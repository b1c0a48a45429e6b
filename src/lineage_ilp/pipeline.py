"""Pipeline stages gluing the library into dataset-in, lineage-out runs.

Each stage reads and writes the on-disk formats from :mod:`lineage_ilp.io`,
so stages can be re-run independently or replaced by external tools (any
proposal source producing the JSON-lines format plugs into train/track).
All randomness is derived from the config's single seed.
"""
from __future__ import annotations

import logging
import os
from dataclasses import dataclass, replace

import numpy as np

from .classify import (
    ConstantModel,
    RandomForest,
    fit_model,
    label_mitosis_sets,
    label_move_edges,
    label_proposals,
    load_model,
    predict_prob,
    save_model,
)
from .config import (
    STAGE_CORRUPTION,
    STAGE_MITOSIS_MODEL,
    STAGE_MOVE_MODEL,
    STAGE_PROPOSAL_MODEL,
    STAGE_SIM,
    PipelineConfig,
    stage_seed,
)
from .evaluate import (
    EvalReport,
    GroundTruth,
    evaluate_tracking,
    report_text,
    report_to_json,
)
from .features import (
    MITOSIS_DIM,
    MOVE_DIM,
    PROPOSAL_DIM,
    mitosis_features,
    move_features,
    proposal_features,
)
from .geometry import label_masks
from .graph import (
    TrackingGraph,
    build_graph,
    enumerate_mitoses,
    enumerate_moves,
    gating_radius_from_truth,
    graph_stats,
    graph_to_json,
    log_odds_cost,
)
from .io import (
    FormatError,
    read_intensity_frames,
    read_json_file,
    read_label_grids,
    read_markers,
    read_proposals,
    read_tracks,
    write_intensity_frames,
    write_json_file,
    write_label_grids,
    write_markers,
    write_proposals,
    write_tracks,
)
from .proposals import Frame, Proposal, log_blob_proposals, multi_threshold_proposals
from .sim import SimResult, corrupt, simulate
from .solve import Lineage, SolveResult, extract_lineage, formulate, solve, solve_greedy

log = logging.getLogger("lineage_ilp")

MODEL_META_VERSION = 1


class SolverTimeout(Exception):
    """The exact solver hit its time limit before proving optimality."""

    def __init__(self, message: str, gap: float):
        super().__init__(message)
        self.gap = gap


# ---------------------------------------------------------------------------
# Dataset directories: frames t000.pgm.. plus gt/{tracks.txt, markers.csv, seg/}


@dataclass
class Dataset:
    frames: list[Frame]
    gt: GroundTruth | None


def write_dataset(directory, frames: list[np.ndarray], gt: GroundTruth) -> None:
    write_intensity_frames(directory, frames)
    gt_dir = os.path.join(directory, "gt")
    os.makedirs(gt_dir, exist_ok=True)
    write_tracks(os.path.join(gt_dir, "tracks.txt"), gt.tracks)
    rows = [
        (t, tid, x, y)
        for t, markers in sorted(gt.markers.items())
        for tid, x, y in markers
    ]
    write_markers(os.path.join(gt_dir, "markers.csv"), rows)
    if gt.label_grids is not None:
        write_label_grids(os.path.join(gt_dir, "seg"), gt.label_grids)


def load_dataset(directory, *, need_gt: bool = False) -> Dataset:
    arrays = read_intensity_frames(directory)
    frames = [Frame(t, arr) for t, arr in enumerate(arrays)]
    gt = None
    gt_dir = os.path.join(directory, "gt")
    if os.path.isdir(gt_dir):
        tracks = read_tracks(os.path.join(gt_dir, "tracks.txt"))
        markers: dict[int, list[tuple[int, float, float]]] = {}
        for t, tid, x, y in read_markers(os.path.join(gt_dir, "markers.csv")):
            markers.setdefault(t, []).append((tid, x, y))
        grids = None
        seg_dir = os.path.join(gt_dir, "seg")
        if os.path.isdir(seg_dir):
            grids = read_label_grids(seg_dir)
            if len(grids) != len(frames):
                raise FormatError(
                    f"{len(grids)} label grids for {len(frames)} frames", path=seg_dir
                )
            for t, (grid, frame) in enumerate(zip(grids, frames)):
                if grid.shape != frame.intensity.shape:
                    raise FormatError(
                        f"label grid {t} shape {grid.shape} differs from frame {frame.intensity.shape}",
                        path=seg_dir,
                    )
        try:
            gt = GroundTruth(tracks=tracks, markers=markers, label_grids=grids)
        except ValueError as exc:
            raise FormatError(f"inconsistent ground truth: {exc}", path=gt_dir) from exc
    if need_gt and gt is None:
        raise FormatError("dataset has no gt/ directory", path=str(directory))
    return Dataset(frames=frames, gt=gt)


# ---------------------------------------------------------------------------
# Stages


def run_simulate(cfg: PipelineConfig, out_dir) -> SimResult:
    sim_cfg = replace(cfg.sim, seed=stage_seed(cfg.seed, STAGE_SIM))
    res = simulate(sim_cfg)
    write_dataset(out_dir, [f.intensity for f in res.frames], res.gt)
    log.info("simulated %d frames, %d tracks, events %s",
             len(res.frames), len(res.gt.tracks), res.counts)
    return res


def generate_proposals(cfg: PipelineConfig, ds: Dataset) -> list[Proposal]:
    p = cfg.proposals
    if p.generator == "truth":
        if ds.gt is None or ds.gt.label_grids is None:
            raise FormatError("the 'truth' proposal generator needs gt/seg label grids")
        ccfg = replace(cfg.corruption, seed=stage_seed(cfg.seed, STAGE_CORRUPTION))
        return corrupt(ds.gt, ds.frames, ccfg)
    props: list[Proposal] = []
    next_id = 0
    for frame in ds.frames:
        if p.generator == "multi_threshold":
            new = multi_threshold_proposals(
                frame,
                levels=p.levels,
                span=p.span,
                stability_iou=p.stability_iou,
                nms_iou=p.nms_iou,
                area_bounds=(p.min_area, p.max_area),
                start_id=next_id,
            )
        else:
            new = log_blob_proposals(
                frame,
                sigmas=p.sigmas,
                response_threshold=p.response_threshold,
                nms_iou=p.nms_iou,
                area_bounds=(p.min_area, p.max_area),
                start_id=next_id,
            )
        props.extend(new)
        next_id += len(new)
    return props


def run_propose(cfg: PipelineConfig, data_dir, out_path) -> list[Proposal]:
    ds = load_dataset(data_dir, need_gt=(cfg.proposals.generator == "truth"))
    props = generate_proposals(cfg, ds)
    write_proposals(out_path, props)
    log.info("wrote %d proposals from %d frames", len(props), len(ds.frames))
    return props


def _group_by_frame(props: list[Proposal], n_frames: int) -> list[list[Proposal]]:
    out: list[list[Proposal]] = [[] for _ in range(n_frames)]
    for p in props:
        if p.t >= n_frames:
            raise FormatError(
                f"proposal {p.id} references frame {p.t}, dataset has {n_frames} frames"
            )
        out[p.t].append(p)
    return out


def proposal_feature_matrix(props: list[Proposal], frames_by_t: dict[int, Frame]) -> np.ndarray:
    if not props:
        return np.zeros((0, PROPOSAL_DIM))
    return np.stack([proposal_features(p, frames_by_t[p.t]) for p in props])


def move_feature_matrix(
    pairs: list[tuple[Proposal, Proposal]],
    node_probs: dict[int, float],
    feats_by_pid: dict[int, np.ndarray],
    frames_by_t: dict[int, Frame],
) -> np.ndarray:
    if not pairs:
        return np.zeros((0, MOVE_DIM))
    rows = []
    for a, b in pairs:
        rows.append(
            move_features(
                a, b,
                node_probs[a.id], node_probs[b.id],
                frames_by_t[a.t], frames_by_t[b.t],
                feat_i=feats_by_pid[a.id], feat_j=feats_by_pid[b.id],
            )
        )
    return np.stack(rows)


def mitosis_feature_matrix(
    triples: list[tuple[Proposal, Proposal, Proposal]],
    node_probs: dict[int, float],
    feats_by_pid: dict[int, np.ndarray],
    frames_by_t: dict[int, Frame],
) -> np.ndarray:
    if not triples:
        return np.zeros((0, MITOSIS_DIM))
    rows = []
    for p, d1, d2 in triples:
        rows.append(
            mitosis_features(
                p, d1, d2,
                node_probs[p.id], node_probs[d1.id], node_probs[d2.id],
                frames_by_t[p.t], frames_by_t[d1.t],
                feat_p=feats_by_pid[p.id],
                feat_d1=feats_by_pid[d1.id],
                feat_d2=feats_by_pid[d2.id],
            )
        )
    return np.stack(rows)


@dataclass
class Models:
    proposal: RandomForest | ConstantModel
    move: RandomForest | ConstantModel
    mitosis: RandomForest | ConstantModel | None
    gating_radius: float
    mitosis_radius: float
    mitosis_n: int


def run_train(cfg: PipelineConfig, data_dir, proposals_path, model_dir) -> Models:
    """Fit the three classifiers against an annotated dataset and save them.

    The move and division classifiers consume the proposal classifier's
    probabilities as features, so fitting is sequential.  A training set
    without any division example disables the division classifier entirely.
    """
    ds = load_dataset(data_dir, need_gt=True)
    props = read_proposals(proposals_path)
    by_frame = _group_by_frame(props, len(ds.frames))
    frames_by_t = {f.t: f for f in ds.frames}

    feats = proposal_feature_matrix(props, frames_by_t)
    pset = label_proposals(props, ds.gt, feats)
    fc = cfg.classify
    fit_kw = dict(
        n_trees=fc.n_trees,
        max_depth=fc.max_depth,
        min_leaf=fc.min_leaf,
        max_negative_ratio=fc.max_negative_ratio,
    )
    node_model = fit_model(pset, seed=stage_seed(cfg.seed, STAGE_PROPOSAL_MODEL), **fit_kw)
    node_prob = predict_prob(node_model, feats)
    node_probs = {p.id: float(node_prob[i]) for i, p in enumerate(props)}
    feats_by_pid = {p.id: feats[i] for i, p in enumerate(props)}

    g = cfg.graph
    if g.gating_radius is not None:
        gating = g.gating_radius
    else:
        gating = gating_radius_from_truth(ds.gt, g.gating_percentile, g.gating_factor)
    mitosis_radius = g.mitosis_radius if g.mitosis_radius is not None else gating * g.mitosis_factor

    pairs = enumerate_moves(by_frame, gating)
    mset = label_move_edges(pairs, ds.gt, move_feature_matrix(pairs, node_probs, feats_by_pid, frames_by_t))
    move_model = fit_model(mset, seed=stage_seed(cfg.seed, STAGE_MOVE_MODEL), **fit_kw)

    triples = enumerate_mitoses(by_frame, mitosis_radius, g.mitosis_n)
    tset = label_mitosis_sets(triples, ds.gt, mitosis_feature_matrix(triples, node_probs, feats_by_pid, frames_by_t))
    if tset.n_positive == 0:
        log.warning("training data contains no division example; division scoring disabled")
        mitosis_model = None
    else:
        mitosis_model = fit_model(tset, seed=stage_seed(cfg.seed, STAGE_MITOSIS_MODEL), **fit_kw)

    log.info(
        "trained on %d proposals (%d pos), %d move pairs (%d pos), %d division triples (%d pos)",
        pset.n_samples, pset.n_positive, mset.n_samples, mset.n_positive,
        tset.n_samples, tset.n_positive,
    )

    models = Models(
        proposal=node_model,
        move=move_model,
        mitosis=mitosis_model,
        gating_radius=float(gating),
        mitosis_radius=float(mitosis_radius),
        mitosis_n=g.mitosis_n,
    )
    save_models(models, model_dir)
    return models


def save_models(models: Models, model_dir) -> None:
    os.makedirs(model_dir, exist_ok=True)
    save_model(models.proposal, os.path.join(model_dir, "proposal.json"))
    save_model(models.move, os.path.join(model_dir, "move.json"))
    if models.mitosis is not None:
        save_model(models.mitosis, os.path.join(model_dir, "mitosis.json"))
    meta = {
        "schema_version": MODEL_META_VERSION,
        "kind": "model_meta",
        "gating_radius": models.gating_radius,
        "mitosis_radius": models.mitosis_radius,
        "mitosis_n": models.mitosis_n,
        "mitosis_enabled": models.mitosis is not None,
        "feature_dims": {"proposal": PROPOSAL_DIM, "move": MOVE_DIM, "mitosis": MITOSIS_DIM},
    }
    write_json_file(os.path.join(model_dir, "meta.json"), meta)


def load_models(model_dir) -> Models:
    meta = read_json_file(
        os.path.join(model_dir, "meta.json"),
        kind="model_meta",
        supported_versions=(MODEL_META_VERSION,),
    )
    gating = meta.get("gating_radius")
    mitosis_radius = meta.get("mitosis_radius")
    enabled = meta.get("mitosis_enabled")
    mitosis_n = meta.get("mitosis_n")
    if (
        not isinstance(gating, (int, float)) or isinstance(gating, bool) or gating <= 0
        or not isinstance(mitosis_radius, (int, float)) or isinstance(mitosis_radius, bool)
        or mitosis_radius <= 0
        or not isinstance(enabled, bool)
        or isinstance(mitosis_n, bool) or not isinstance(mitosis_n, int) or mitosis_n < 2
    ):
        raise FormatError("malformed model_meta document", path=os.path.join(model_dir, "meta.json"))
    proposal = load_model(os.path.join(model_dir, "proposal.json"))
    move = load_model(os.path.join(model_dir, "move.json"))
    if proposal.n_features != PROPOSAL_DIM:
        raise FormatError(f"proposal model expects {proposal.n_features} features, need {PROPOSAL_DIM}")
    if move.n_features != MOVE_DIM:
        raise FormatError(f"move model expects {move.n_features} features, need {MOVE_DIM}")
    mitosis = None
    if enabled:
        mitosis = load_model(os.path.join(model_dir, "mitosis.json"))
        if mitosis.n_features != MITOSIS_DIM:
            raise FormatError(f"division model expects {mitosis.n_features} features, need {MITOSIS_DIM}")
    return Models(
        proposal=proposal,
        move=move,
        mitosis=mitosis,
        gating_radius=float(gating),
        mitosis_radius=float(mitosis_radius),
        mitosis_n=mitosis_n,
    )


def build_candidate_graph(
    cfg: PipelineConfig, ds: Dataset, props: list[Proposal], models: Models
) -> TrackingGraph:
    by_frame = _group_by_frame(props, len(ds.frames))
    frames_by_t = {f.t: f for f in ds.frames}
    feats = proposal_feature_matrix(props, frames_by_t)
    node_prob = predict_prob(models.proposal, feats)
    node_probs = {p.id: float(node_prob[i]) for i, p in enumerate(props)}
    feats_by_pid = {p.id: feats[i] for i, p in enumerate(props)}

    pairs = enumerate_moves(by_frame, models.gating_radius)
    move_probs: dict[tuple[int, int], float] = {}
    if pairs:
        mp = predict_prob(models.move, move_feature_matrix(pairs, node_probs, feats_by_pid, frames_by_t))
        move_probs = {(a.id, b.id): float(mp[i]) for i, (a, b) in enumerate(pairs)}

    mitosis_probs: dict[tuple[int, int, int], float] = {}
    if models.mitosis is not None:
        triples = enumerate_mitoses(by_frame, models.mitosis_radius, models.mitosis_n)
        if triples:
            tp = predict_prob(
                models.mitosis, mitosis_feature_matrix(triples, node_probs, feats_by_pid, frames_by_t)
            )
            mitosis_probs = {(p.id, d1.id, d2.id): float(tp[i]) for i, (p, d1, d2) in enumerate(triples)}

    # Dominance pruning: a move never taken in any optimal selection is one
    # costing more than routing the flow through an exit and an enter; same
    # for a division against one exit and two enters.  Dropping those keeps
    # the optimum while cutting the candidate set drastically.
    enter_cost = log_odds_cost(cfg.graph.p_enter)
    exit_cost = log_odds_cost(cfg.graph.p_exit)
    move_probs = {
        k: v for k, v in move_probs.items() if log_odds_cost(v) <= enter_cost + exit_cost
    }
    mitosis_probs = {
        k: v
        for k, v in mitosis_probs.items()
        if log_odds_cost(v) <= exit_cost + 2.0 * enter_cost
    }

    graph = build_graph(
        by_frame,
        node_probs,
        move_probs,
        mitosis_probs,
        p_enter=cfg.graph.p_enter,
        p_exit=cfg.graph.p_exit,
        p_death=cfg.graph.p_death,
        conflict_iou=cfg.proposals.c1,
        conflict_cover=cfg.proposals.c2,
    )
    log.info("graph: %s", graph_stats(graph))
    return graph


def solve_graph(cfg: PipelineConfig, graph: TrackingGraph) -> tuple[SolveResult, Lineage]:
    instance, varmap = formulate(graph)
    if cfg.solve.backend == "greedy":
        result = solve_greedy(graph, varmap)
    else:
        result = solve(
            instance,
            start=solve_greedy(graph, varmap).x,
            time_limit=cfg.solve.time_limit,
            max_nodes=cfg.solve.max_nodes,
        )
        if result.timed_out and result.status != "optimal":
            gap = result.gap if result.gap is not None else float("inf")
            raise SolverTimeout(
                f"solver hit the {cfg.solve.time_limit}s limit with gap {gap:.6g}", gap
            )
        assert result.x is not None  # the empty selection is always feasible
    log.info(
        "solved: status=%s objective=%s nodes=%d time=%.2fs",
        result.status, result.objective, result.nodes, result.runtime,
    )
    lineage = extract_lineage(graph, varmap, result.x)
    return result, lineage


def paint_lineage(
    lineage: Lineage, by_id: dict[int, Proposal], shape: tuple[int, int], n_frames: int
) -> list[np.ndarray]:
    """Label grids with each track's masks; ascending track id wins overlaps."""
    grids = [np.zeros(shape, dtype=np.int32) for _ in range(n_frames)]
    for track_id in sorted(lineage.members):
        for pid in lineage.members[track_id]:
            p = by_id[pid]
            rows, cols = p.mask.pixels()
            keep = (rows >= 0) & (rows < shape[0]) & (cols >= 0) & (cols < shape[1])
            grids[p.t][rows[keep], cols[keep]] = track_id
    return grids


def write_result(out_dir, lineage: Lineage, props: list[Proposal], shape, n_frames: int) -> None:
    os.makedirs(out_dir, exist_ok=True)
    write_tracks(os.path.join(out_dir, "tracks.txt"), lineage.tracks)
    by_id = {p.id: p for p in props}
    write_label_grids(os.path.join(out_dir, "seg"), paint_lineage(lineage, by_id, shape, n_frames))


@dataclass
class TrackRun:
    dataset: Dataset
    props: list[Proposal]
    graph: TrackingGraph
    result: SolveResult
    lineage: Lineage


def run_track(cfg: PipelineConfig, data_dir, proposals_path, model_dir, out_dir) -> TrackRun:
    ds = load_dataset(data_dir)
    props = read_proposals(proposals_path)
    models = load_models(model_dir)
    graph = build_candidate_graph(cfg, ds, props, models)
    result, lineage = solve_graph(cfg, graph)
    shape = ds.frames[0].intensity.shape
    write_result(out_dir, lineage, props, shape, len(ds.frames))
    log.info("tracked %d lineage tracks", len(lineage.tracks))
    return TrackRun(dataset=ds, props=props, graph=graph, result=result, lineage=lineage)


def result_from_grids(rows, grids: list[np.ndarray]) -> tuple[list[Proposal], Lineage]:
    """Reconstruct proposals and a lineage from a written tracking result."""
    members: dict[int, list[int]] = {row.label: [] for row in rows}
    props: list[Proposal] = []
    pid = 0
    for t, grid in enumerate(grids):
        for label, mask in label_masks(grid).items():
            if label not in members:
                raise FormatError(f"label grid frame {t} uses unknown track {label}")
            props.append(Proposal(id=pid, t=t, mask=mask, raw_score=1.0))
            members[label].append(pid)
            pid += 1
    children: dict[int, int] = {}
    for row in rows:
        if row.parent:
            children[row.parent] = children.get(row.parent, 0) + 1
    end_reason = {
        row.label: "division" if children.get(row.label) == 2 else "exit" for row in rows
    }
    lineage = Lineage(tracks=list(rows), members=members, end_reason=end_reason)
    return props, lineage


def run_eval(
    data_dir,
    result_dir,
    out_path=None,
    *,
    cfg: PipelineConfig | None = None,
    graph: TrackingGraph | None = None,
) -> EvalReport:
    ds = load_dataset(data_dir, need_gt=True)
    rows = read_tracks(os.path.join(result_dir, "tracks.txt"))
    grids = read_label_grids(os.path.join(result_dir, "seg"))
    if len(grids) != len(ds.frames):
        raise FormatError(
            f"result has {len(grids)} label grids for {len(ds.frames)} frames",
            path=str(result_dir),
        )
    props, lineage = result_from_grids(rows, grids)
    weights = cfg.eval.weights if cfg is not None else None
    with_seg = cfg.eval.seg if cfg is not None else True
    report = evaluate_tracking(
        props, lineage, ds.gt, graph=graph, weights=weights, with_seg=with_seg
    )
    if out_path is not None:
        write_json_file(out_path, report_to_json(report))
    return report


def run_dump_graph(cfg: PipelineConfig, data_dir, proposals_path, model_dir, out_path) -> TrackingGraph:
    ds = load_dataset(data_dir)
    props = read_proposals(proposals_path)
    models = load_models(model_dir)
    graph = build_candidate_graph(cfg, ds, props, models)
    write_json_file(out_path, graph_to_json(graph))
    return graph


def run_e2e(cfg: PipelineConfig, out_dir) -> EvalReport:
    """simulate, propose, train, track and evaluate under one seed.

    Every byte written is a pure function of the config, so re-running into a
    fresh directory reproduces identical files.
    """
    os.makedirs(out_dir, exist_ok=True)
    dataset_dir = os.path.join(out_dir, "dataset")
    proposals_path = os.path.join(out_dir, "proposals.jsonl")
    model_dir = os.path.join(out_dir, "models")
    result_dir = os.path.join(out_dir, "result")

    run_simulate(cfg, dataset_dir)
    run_propose(cfg, dataset_dir, proposals_path)
    run_train(cfg, dataset_dir, proposals_path, model_dir)
    tracked = run_track(cfg, dataset_dir, proposals_path, model_dir, result_dir)
    report = run_eval(
        dataset_dir,
        result_dir,
        os.path.join(out_dir, "report.json"),
        cfg=cfg,
        graph=tracked.graph,
    )
    with open(os.path.join(out_dir, "report.txt"), "w", encoding="ascii") as fh:
        fh.write(report_text(report))
    return report
