"""Pipeline stages gluing the library into dataset-in, lineage-out runs.

Each stage writes the on-disk formats from :mod:`lineage_ilp.io`, and takes
its inputs either as those files or as the objects their readers return, so
stages can be re-run independently or replaced by external tools (any
proposal source producing the JSON-lines format plugs into train/track).
``run_e2e`` chains the stages through the objects: it writes every file and
reads none back.  All randomness is derived from the config's single seed.
"""
from __future__ import annotations

import functools
import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

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
    captured_markers,
    evaluate_tracking,
    report_text,
    report_to_json,
)
from .features import (
    MITOSIS_DIM,
    MOVE_DIM,
    PROPOSAL_DIM,
    mitosis_feature_matrix,
    move_feature_matrix,
    proposal_feature_matrix,
)
from .geometry import label_masks
from .graph import (
    MITOSIS_RADIUS_FACTOR,
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
    TrackRow,
    read_frame_shapes,
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
from .sim import corrupt, simulate
from .solve import (
    Lineage,
    SolveResult,
    check_solution,
    extract_lineage,
    formulate,
    solve,
    solve_greedy,
)

log = logging.getLogger("lineage_ilp")

MODEL_META_VERSION = 1
# At most this many threads generate proposals, one frame each.  A thread
# holds one frame's LoG scale stack and its FFT temporaries, a 5.3 MiB peak on
# a 200x200 frame that grows with frame area; the Python part of a frame
# (about a fifth) holds the GIL, which caps the speed-up near 4-5x anyway.
MAX_PROPOSAL_THREADS = 4
# the feature vector lengths a model directory's meta.json must name
FEATURE_DIMS = {"proposal": PROPOSAL_DIM, "move": MOVE_DIM, "mitosis": MITOSIS_DIM}


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


def write_dataset(directory, frames: list[np.ndarray], gt: GroundTruth) -> Dataset:
    """Write a dataset directory; returns the Dataset ``load_dataset`` reads from it."""
    stored = write_intensity_frames(directory, frames)
    gt_dir = os.path.join(directory, "gt")
    os.makedirs(gt_dir, exist_ok=True)
    write_tracks(os.path.join(gt_dir, "tracks.txt"), gt.tracks)
    rows = sorted(
        (t, tid, float(x), float(y))
        for t, markers in gt.markers.items()
        for tid, x, y in markers
    )
    write_markers(os.path.join(gt_dir, "markers.csv"), rows)
    grids = None
    if gt.label_grids is not None:
        write_label_grids(os.path.join(gt_dir, "seg"), gt.label_grids)
        grids = [np.asarray(g, dtype=np.int64) for g in gt.label_grids]
    tracks = sorted(gt.tracks, key=lambda row: row.label)
    truth = _ground_truth(tracks, rows, grids, [arr.shape for arr in stored], gt_dir)
    return Dataset(frames=[Frame(t, arr) for t, arr in enumerate(stored)], gt=truth)


def _check_label_grids(grids: list[np.ndarray], shapes: list[tuple[int, int]], path) -> None:
    """Raise ``FormatError`` unless there is one grid per frame, of its shape."""
    if len(grids) != len(shapes):
        raise FormatError(f"{len(grids)} label grids for {len(shapes)} frames", path=str(path))
    for t, (grid, shape) in enumerate(zip(grids, shapes)):
        if grid.shape != shape:
            raise FormatError(f"label grid {t} shape {grid.shape} differs from frame {shape}", path=str(path))


def _ground_truth(tracks, marker_rows, grids, shapes, gt_dir) -> GroundTruth:
    """Ground truth from the contents of its files, in file order, for
    frames of these shapes; ground truth that does not fit them is a
    FormatError."""
    markers: dict[int, list[tuple[int, float, float]]] = {}
    for t, tid, x, y in marker_rows:
        markers.setdefault(t, []).append((tid, x, y))
    last = len(shapes) - 1
    late = [row.label for row in tracks if row.end > last]
    if late:
        raise FormatError(f"track {late[0]} ends past the last frame {last}", path=gt_dir)
    if grids is not None:
        _check_label_grids(grids, shapes, os.path.join(gt_dir, "seg"))
    try:
        return GroundTruth(tracks=tracks, markers=markers, label_grids=grids)
    except ValueError as exc:
        raise FormatError(f"inconsistent ground truth: {exc}", path=gt_dir) from exc


def _read_ground_truth(directory, shapes: list[tuple[int, int]]) -> GroundTruth:
    """The ground truth in a dataset directory's gt/, whose frames have these shapes."""
    gt_dir = os.path.join(directory, "gt")
    if not os.path.isdir(gt_dir):
        raise FormatError("dataset has no gt/ directory", path=str(directory))
    tracks = read_tracks(os.path.join(gt_dir, "tracks.txt"))
    marker_rows = read_markers(os.path.join(gt_dir, "markers.csv"))
    seg_dir = os.path.join(gt_dir, "seg")
    grids = read_label_grids(seg_dir) if os.path.isdir(seg_dir) else None
    return _ground_truth(tracks, marker_rows, grids, shapes, gt_dir)


def load_dataset(directory, *, need_gt: bool = False) -> Dataset:
    arrays = read_intensity_frames(directory)
    frames = [Frame(t, arr) for t, arr in enumerate(arrays)]
    if not need_gt and not os.path.isdir(os.path.join(directory, "gt")):
        return Dataset(frames=frames, gt=None)
    return Dataset(frames=frames, gt=_read_ground_truth(directory, [arr.shape for arr in arrays]))


def _dataset(data) -> Dataset:
    """``data`` itself when it is a Dataset, else the dataset directory it
    names, read; without ground truth, a FormatError in either form."""
    if not isinstance(data, Dataset):
        return load_dataset(data, need_gt=True)
    if data.gt is None:
        raise FormatError("dataset has no gt/ directory")
    return data


def _frames(data) -> Dataset:
    """``data`` itself when it is a Dataset, else the frames of the dataset
    directory it names, read without its ground truth (``gt`` None): for
    the stages that never use ``gt/``."""
    if isinstance(data, Dataset):
        return data
    return Dataset(frames=[Frame(t, arr) for t, arr in enumerate(read_intensity_frames(data))], gt=None)


# ---------------------------------------------------------------------------
# Stages


def run_simulate(cfg: PipelineConfig, out_dir) -> Dataset:
    """Simulate a sequence and write it; returns the Dataset as written."""
    res = simulate(cfg.sim, stage_seed(cfg.seed, STAGE_SIM))
    ds = write_dataset(out_dir, [f.intensity for f in res.frames], res.gt)
    log.info("simulated %d frames, %d tracks, events %s",
             len(res.frames), len(res.gt.tracks), res.counts)
    return ds


def generate_proposals(cfg: PipelineConfig, ds: Dataset) -> list[Proposal]:
    p = cfg.proposals
    if p.generator == "truth":
        if ds.gt is None or ds.gt.label_grids is None:
            raise FormatError("the 'truth' proposal generator needs gt/seg label grids")
        seed = stage_seed(cfg.seed, STAGE_CORRUPTION)
        return corrupt(ds.gt, cfg.sim.corruption, seed)
    if p.generator == "multi_threshold":
        generate = functools.partial(
            multi_threshold_proposals, levels=p.levels, span=p.span, area_bounds=(p.min_area, p.max_area)
        )
    else:
        generate = functools.partial(log_blob_proposals, sigmas=p.sigmas, area_bounds=(p.min_area, p.max_area))
    # frames are independent; results come back in frame order and ids run on across frames
    props: list[Proposal] = []
    with ThreadPoolExecutor(max_workers=_proposal_threads(len(ds.frames))) as pool:
        for new in pool.map(generate, ds.frames):
            for q in new:
                q.id += len(props)
            props.extend(new)
    return props


def _proposal_threads(n_frames: int) -> int:
    """Threads for ``n_frames`` frames: one per CPU this process may run on,
    at most one per frame and at most ``MAX_PROPOSAL_THREADS``."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_frames, MAX_PROPOSAL_THREADS))


def run_propose(cfg: PipelineConfig, data_dir, out_path) -> list[Proposal]:
    """Generate proposals and write them; returns them in ``(t, id)`` order,
    as ``read_proposals`` reads them back."""
    ds = _dataset(data_dir) if cfg.proposals.generator == "truth" else _frames(data_dir)
    props = generate_proposals(cfg, ds)
    props.sort(key=lambda p: (p.t, p.id))
    write_proposals(out_path, props)
    log.info("wrote %d proposals from %d frames", len(props), len(ds.frames))
    return props


def _proposals(props) -> list[Proposal]:
    """The proposals in ``props`` when it is a list of them, else in the
    proposal file it names, in (t, id) order: the order every candidate
    position refers to."""
    return sorted(props if isinstance(props, list) else read_proposals(props), key=lambda p: (p.t, p.id))


def _group_by_frame(props: list[Proposal], frames: list[Frame]) -> list[list[Proposal]]:
    """Proposals by frame, in list order; one outside the frames, or whose
    mask extends past its frame's edges, is a FormatError."""
    out: list[list[Proposal]] = [[] for _ in frames]
    for p in props:
        if not 0 <= p.t < len(frames):
            raise FormatError(
                f"proposal {p.id} references frame {p.t}, dataset has {len(frames)} frames"
            )
        height, width = frames[p.t].intensity.shape
        h, w = p.mask.bits.shape
        if p.mask.x0 < 0 or p.mask.y0 < 0 or p.mask.x0 + w > width or p.mask.y0 + h > height:
            raise FormatError(
                f"proposal {p.id} extends past frame {p.t}, which is {width}x{height} pixels"
            )
        out[p.t].append(p)
    return out


@dataclass
class CandidateRows:
    """Classifier inputs of one proposal list, the candidates as positions
    in it, in enumeration order."""

    node_prob: np.ndarray
    moves: np.ndarray  # (m, 2)
    move_rows: np.ndarray
    mitosis_sets: np.ndarray | None  # (s, 3); None: not enumerated
    mitosis_rows: np.ndarray | None


def candidate_rows(
    by_frame: list[list[Proposal]],
    props: list[Proposal],
    feats: np.ndarray,
    proposal_model: RandomForest | ConstantModel,
    *, gating_radius: float, mitosis_radius: float, mitosis_n: int, divisions: bool,
) -> CandidateRows:
    """Node probabilities, moves and division sets with their rows.

    ``props`` are in (t, id) order, ``by_frame`` is their
    ``_group_by_frame`` and ``feats`` their proposal feature matrix; the
    move and division rows take the proposal model's probabilities as
    features.  Division sets are enumerated only when ``divisions`` is set.
    """
    node_prob = predict_prob(proposal_model, feats)
    moves = enumerate_moves(by_frame, gating_radius)
    move_rows = move_feature_matrix(props, feats, node_prob, moves)
    sets = mitosis_rows = None
    if divisions:
        sets = enumerate_mitoses(by_frame, mitosis_radius, mitosis_n)
        mitosis_rows = mitosis_feature_matrix(props, feats, node_prob, sets)
    return CandidateRows(node_prob, moves, move_rows, sets, mitosis_rows)


@dataclass
class Models:
    proposal: RandomForest | ConstantModel
    move: RandomForest | ConstantModel
    mitosis: RandomForest | ConstantModel | None
    gating_radius: float
    mitosis_radius: float
    mitosis_n: int


@dataclass
class TrainRun:
    models: Models
    rows: CandidateRows


def run_train(cfg: PipelineConfig, data_dir, proposals_path, model_dir) -> TrainRun:
    """Fit the three classifiers against an annotated dataset and save them.

    The move and division classifiers consume the proposal classifier's
    probabilities as features, so fitting is sequential.  A training set
    without any division example disables the division classifier entirely.

    ``data_dir`` and ``proposals_path`` may also be the Dataset and the
    proposal list themselves.  The models are saved to ``model_dir`` and
    returned; so are the feature rows tracking needs for the same proposals:
    ``run_e2e`` hands both to ``run_track``, so an end-to-end run computes
    every feature row once; ``track`` on its own computes them.
    """
    ds = _dataset(data_dir)
    props = _proposals(proposals_path)
    by_frame = _group_by_frame(props, ds.frames)  # a proposal outside the frames is a FormatError

    feats = proposal_feature_matrix(props, ds.frames)
    captured = captured_markers(props, ds.gt)
    pset = label_proposals(captured, feats)
    n_trees = cfg.classify.n_trees
    node_model = fit_model(pset, n_trees=n_trees, seed=stage_seed(cfg.seed, STAGE_PROPOSAL_MODEL))

    g = cfg.graph
    gating = g.gating_radius if g.gating_radius is not None else gating_radius_from_truth(ds.gt)
    mitosis_radius = (
        g.mitosis_radius if g.mitosis_radius is not None else gating * MITOSIS_RADIUS_FACTOR
    )

    rows = candidate_rows(
        by_frame, props, feats, node_model,
        gating_radius=gating, mitosis_radius=mitosis_radius, mitosis_n=g.mitosis_n,
        divisions=True,
    )
    mset = label_move_edges(captured, rows.moves, rows.move_rows)
    move_model = fit_model(mset, n_trees=n_trees, seed=stage_seed(cfg.seed, STAGE_MOVE_MODEL))

    tset = label_mitosis_sets(captured, rows.mitosis_sets, props, ds.gt, rows.mitosis_rows)
    if tset.n_positive == 0:
        log.warning("training data contains no division example; division scoring disabled")
        mitosis_model = None
    else:
        mitosis_model = fit_model(
            tset, n_trees=n_trees, seed=stage_seed(cfg.seed, STAGE_MITOSIS_MODEL)
        )

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
    return TrainRun(models, rows)


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
        "feature_dims": FEATURE_DIMS,
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
    meta_path = os.path.join(model_dir, "meta.json")
    if (
        not isinstance(gating, (int, float)) or isinstance(gating, bool) or gating <= 0
        or not isinstance(mitosis_radius, (int, float)) or isinstance(mitosis_radius, bool)
        or mitosis_radius <= 0
        or not isinstance(enabled, bool)
        or isinstance(mitosis_n, bool) or not isinstance(mitosis_n, int) or mitosis_n < 2
    ):
        raise FormatError("malformed model_meta document", path=meta_path)
    dims = meta.get("feature_dims")
    if dims != FEATURE_DIMS:
        raise FormatError(
            f"feature_dims {dims!r} differ from this build's {FEATURE_DIMS}", path=meta_path
        )
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


def _models(models) -> Models:
    """``models`` itself when it is a Models, else the model directory it names, read."""
    return models if isinstance(models, Models) else load_models(models)


def build_candidate_graph(
    cfg: PipelineConfig, ds: Dataset, props: list[Proposal], models: Models,
    rows: CandidateRows | None = None,
) -> TrackingGraph:
    """Score the candidates with the models and build the tracking graph.

    ``props`` are in (t, id) order.  ``rows`` are feature rows already
    computed for ``props`` under these models' radii (training's, in
    ``run_e2e``); without them the rows are computed here.
    """
    by_frame = _group_by_frame(props, ds.frames)  # a proposal outside the frames is a FormatError
    if rows is None:
        rows = candidate_rows(
            by_frame, props,
            proposal_feature_matrix(props, ds.frames),
            models.proposal,
            gating_radius=models.gating_radius,
            mitosis_radius=models.mitosis_radius,
            mitosis_n=models.mitosis_n,
            divisions=models.mitosis is not None,
        )

    # Dominance pruning: a move never taken in any optimal selection is one
    # costing more than routing the flow through an exit and an enter; same
    # for a division against one exit and two enters.  Dropping those keeps
    # the optimum while cutting the candidate set drastically.
    enter_cost = log_odds_cost(cfg.graph.p_enter)
    exit_cost = log_odds_cost(cfg.graph.p_exit)
    moves, move_prob = rows.moves, np.zeros(0)
    if len(moves):
        move_prob = predict_prob(models.move, rows.move_rows)
        keep = log_odds_cost(move_prob) <= enter_cost + exit_cost
        moves, move_prob = moves[keep], move_prob[keep]
    sets, set_prob = np.zeros((0, 3), dtype=np.intp), np.zeros(0)
    if models.mitosis is not None and rows.mitosis_sets is not None and len(rows.mitosis_sets):
        set_prob = predict_prob(models.mitosis, rows.mitosis_rows)
        keep = log_odds_cost(set_prob) <= exit_cost + 2.0 * enter_cost
        sets, set_prob = rows.mitosis_sets[keep], set_prob[keep]
    node_prob = rows.node_prob
    del rows  # the feature rows are not needed past scoring

    graph = build_graph(
        props, node_prob, moves, move_prob, sets, set_prob, len(ds.frames),
        p_enter=cfg.graph.p_enter, p_exit=cfg.graph.p_exit,
    )
    if log.isEnabledFor(logging.INFO):
        log.info("graph: %s", graph_stats(graph))
    return graph


def solve_graph(cfg: PipelineConfig, graph: TrackingGraph) -> tuple[SolveResult, Lineage]:
    """Select with the configured backend; every selection is checked
    against the constraints and a violation raises RuntimeError."""
    instance, _ = formulate(graph)
    if cfg.solve.backend == "greedy":
        result = solve_greedy(graph)
    else:
        # a warm start can win only when a budget stops HiGHS before its
        # proof: without one, HiGHS's selection is kept on a tie
        budget = cfg.solve.time_limit is not None or cfg.solve.max_nodes is not None
        result = solve(
            instance,
            start=solve_greedy(graph).x if budget else None,
            time_limit=cfg.solve.time_limit,
            max_nodes=cfg.solve.max_nodes,
        )
        if result.timed_out and result.status != "optimal":
            gap = result.gap if result.gap is not None else float("inf")
            raise SolverTimeout(
                f"solver hit the {cfg.solve.time_limit}s limit with gap {gap:.6g}", gap
            )
        assert result.x is not None  # the empty selection is always feasible
    problems = check_solution(instance, result.x)
    if problems:
        raise RuntimeError(
            f"{cfg.solve.backend} solver returned an infeasible selection: {'; '.join(problems[:5])}"
        )
    log.info(
        "solved: status=%s objective=%s nodes=%d time=%.2fs",
        result.status, result.objective, result.nodes, result.runtime,
    )
    lineage = extract_lineage(graph, result.x)
    return result, lineage


def paint_lineage(
    lineage: Lineage, by_id: dict[int, Proposal], shapes: list[tuple[int, int]]
) -> list[np.ndarray]:
    """Label grids of these shapes, one per frame, with each track's masks;
    ascending track id wins overlaps."""
    grids = [np.zeros(shape, dtype=np.int32) for shape in shapes]
    for track_id in sorted(lineage.members):
        for pid in lineage.members[track_id]:
            p = by_id[pid]
            height, width = shapes[p.t]
            rows, cols = p.mask.pixels()
            keep = (rows >= 0) & (rows < height) & (cols >= 0) & (cols < width)
            grids[p.t][rows[keep], cols[keep]] = track_id
    return grids


def write_result(out_dir, lineage: Lineage, props: list[Proposal], shapes: list[tuple[int, int]]) -> None:
    """Write the lineage's tracks and one label grid per frame, of that frame's shape."""
    os.makedirs(out_dir, exist_ok=True)
    write_tracks(os.path.join(out_dir, "tracks.txt"), lineage.tracks)
    by_id = {p.id: p for p in props}
    write_label_grids(os.path.join(out_dir, "seg"), paint_lineage(lineage, by_id, shapes))


@dataclass
class TrackRun:
    dataset: Dataset
    props: list[Proposal]
    graph: TrackingGraph
    result: SolveResult
    lineage: Lineage


def run_track(
    cfg: PipelineConfig, data_dir, proposals_path, model_dir, out_dir,
    rows: CandidateRows | None = None,
) -> TrackRun:
    """Build the candidate graph, select a lineage and write it.

    ``data_dir``, ``proposals_path`` and ``model_dir`` may also be the
    Dataset, the proposal list and the Models themselves.  ``rows`` are
    training's feature rows for the same proposals (``run_e2e`` passes
    them); without them the graph build computes its own.
    """
    ds = _frames(data_dir)
    props = _proposals(proposals_path)
    models = _models(model_dir)
    graph = build_candidate_graph(cfg, ds, props, models, rows)
    del rows  # training's arrays do not live through the solve
    result, lineage = solve_graph(cfg, graph)
    write_result(out_dir, lineage, props, [f.intensity.shape for f in ds.frames])
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


def _result_grids(result) -> tuple[list[TrackRow], list[np.ndarray], str]:
    """Track rows and label grids of a tracking result, and where they come
    from: a TrackRun's repainted as ``write_result`` paints them, else the
    result directory's, read."""
    if isinstance(result, TrackRun):
        by_id = {p.id: p for p in result.props}
        grids = paint_lineage(result.lineage, by_id, [f.intensity.shape for f in result.dataset.frames])
        return sorted(result.lineage.tracks, key=lambda row: row.label), grids, "tracking result"
    seg_dir = os.path.join(result, "seg")
    return read_tracks(os.path.join(result, "tracks.txt")), read_label_grids(seg_dir), seg_dir


def run_eval(
    data_dir,
    result_dir,
    out_path=None,
    *,
    cfg: PipelineConfig | None = None,
    graph: TrackingGraph | None = None,
) -> EvalReport:
    """Score a tracking result against the dataset's ground truth.

    ``data_dir`` may also be the Dataset and ``result_dir`` the TrackRun;
    either way the result is scored as its written files give it.
    """
    if isinstance(data_dir, Dataset):
        gt, shapes = _dataset(data_dir).gt, [f.intensity.shape for f in data_dir.frames]
    else:  # the frames' shapes only: scoring never reads an intensity
        shapes = read_frame_shapes(data_dir)
        gt = _read_ground_truth(data_dir, shapes)
    rows, grids, where = _result_grids(result_dir)
    _check_label_grids(grids, shapes, where)
    props, lineage = result_from_grids(rows, grids)
    weights = cfg.eval.weights if cfg is not None else None
    report = evaluate_tracking(props, lineage, gt, graph=graph, weights=weights)
    if out_path is not None:
        write_json_file(out_path, report_to_json(report))
    return report


def run_dump_graph(cfg: PipelineConfig, data_dir, proposals_path, model_dir, out_path) -> TrackingGraph:
    graph = build_candidate_graph(
        cfg, _frames(data_dir), _proposals(proposals_path), _models(model_dir)
    )
    write_json_file(out_path, graph_to_json(graph))
    return graph


def run_e2e(cfg: PipelineConfig, out_dir) -> EvalReport:
    """simulate, propose, train, track and evaluate under one seed.

    Every byte written is a pure function of the config, so re-running into a
    fresh directory reproduces identical files, the same files the stages
    write when run one by one.  Each stage still writes its files, but the
    next stage takes the objects instead of reading them back: the dataset
    as written, the proposals, training's models and feature rows (so every
    feature row is computed once), and the TrackRun to evaluate.
    """
    os.makedirs(out_dir, exist_ok=True)
    ds = run_simulate(cfg, os.path.join(out_dir, "dataset"))
    props = run_propose(cfg, ds, os.path.join(out_dir, "proposals.jsonl"))
    trained = [run_train(cfg, ds, props, os.path.join(out_dir, "models"))]
    # popped inside the call, so the rows go over without a name and die
    # with the graph build
    tracked = run_track(
        cfg, ds, props, trained[0].models, os.path.join(out_dir, "result"),
        rows=trained.pop().rows,
    )
    report = run_eval(
        ds, tracked, os.path.join(out_dir, "report.json"), cfg=cfg, graph=tracked.graph
    )
    with open(os.path.join(out_dir, "report.txt"), "w", encoding="ascii") as fh:
        fh.write(report_text(report))
    return report
