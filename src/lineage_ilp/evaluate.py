"""Tracking evaluation: detection matching, PR/AP, graph recall, division F1,
an AOGM-style TRA score, and mask SEG."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import TYPE_CHECKING

import numpy as np

from .geometry import Mask
from .io import TrackRow, validate_tracks
from .proposals import Proposal

if TYPE_CHECKING:
    from .graph import TrackingGraph
    from .solve import Lineage


@dataclass
class GroundTruth:
    """Reference lineage: track table, per-frame markers, optional label grids.

    ``markers[t]`` lists (track_id, x, y); ``label_grids``, when present, are
    per-frame integer grids whose positive values are track labels.
    """

    tracks: list[TrackRow]
    markers: dict[int, list[tuple[int, float, float]]]
    label_grids: list[np.ndarray] | None = None

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        validate_tracks(self.tracks)
        spans = {row.label: row for row in self.tracks}
        for t, rows in self.markers.items():
            for track_id, _x, _y in rows:
                row = spans.get(track_id)
                if row is None:
                    raise ValueError(f"marker references unknown track {track_id}")
                if not row.birth <= t <= row.end:
                    raise ValueError(
                        f"marker for track {track_id} at frame {t} outside span [{row.birth}, {row.end}]"
                    )

    def markers_at(self, t: int) -> list[tuple[int, float, float]]:
        return self.markers.get(t, [])

    def n_markers(self) -> int:
        return sum(len(rows) for rows in self.markers.values())

    def move_edges(self) -> list[tuple[int, int]]:
        """(track_id, t) pairs meaning the cell persists from frame t to t+1."""
        out = []
        for row in self.tracks:
            for t in range(row.birth, row.end):
                out.append((row.label, t))
        return out

    def divisions(self) -> list[tuple[int, int, int, int]]:
        """(parent_label, d1_label, d2_label, t_parent_end) for two-child parents."""
        children: dict[int, list[TrackRow]] = {}
        for row in self.tracks:
            if row.parent:
                children.setdefault(row.parent, []).append(row)
        spans = {row.label: row for row in self.tracks}
        out = []
        for parent_label in sorted(children):
            kids = sorted(children[parent_label], key=lambda r: r.label)
            if len(kids) == 2:
                out.append((parent_label, kids[0].label, kids[1].label, spans[parent_label].end))
        return out

    def displacements(self) -> np.ndarray:
        """Frame-to-frame centroid displacements of all persisting cells."""
        pos: dict[tuple[int, int], tuple[float, float]] = {}
        for t, rows in self.markers.items():
            for track_id, x, y in rows:
                pos[(track_id, t)] = (x, y)
        dists = []
        for track_id, t in self.move_edges():
            a = pos.get((track_id, t))
            b = pos.get((track_id, t + 1))
            if a is not None and b is not None:
                dists.append(float(np.hypot(b[0] - a[0], b[1] - a[1])))
        return np.asarray(dists, dtype=np.float64)


# ---------------------------------------------------------------------------
# Marker containment


def markers_inside(p: Proposal, markers: list[tuple[int, float, float]]) -> list[int]:
    """Track ids of reference markers whose pixel falls inside the mask."""
    return [tid for tid, x, y in markers if p.mask.contains_point(x, y)]


def markers_inside_each(props: list[Proposal], gt: GroundTruth) -> list[list[int]]:
    """``markers_inside(p, gt.markers_at(p.t))`` of every proposal.

    One pass per frame: each marker's pixel is worked out once, by
    ``Mask.contains_point``'s rule (floor of the coordinate plus 0.5, in
    float64), and the frame's masks are read at the marker pixels inside
    their boxes in one lookup.  Ids keep the frame's marker order.
    """
    by_t: dict[int, list[int]] = {}
    for i, p in enumerate(props):
        by_t.setdefault(p.t, []).append(i)
    out: list[list[int]] = [[] for _ in props]
    for t, idx in by_t.items():
        markers = gt.markers_at(t)
        if not markers:
            continue
        tids = np.array([tid for tid, _, _ in markers])
        mx = np.floor(np.array([x for _, x, _ in markers], dtype=np.float64) + 0.5)
        my = np.floor(np.array([y for _, _, y in markers], dtype=np.float64) + 0.5)
        masks = [props[i].mask for i in idx]
        x0 = np.array([m.x0 for m in masks])
        y0 = np.array([m.y0 for m in masks])
        h = np.array([m.bits.shape[0] for m in masks])
        w = np.array([m.bits.shape[1] for m in masks])
        c = mx[None, :] - x0[:, None]  # (mask, marker) column inside the mask's box
        r = my[None, :] - y0[:, None]
        k, j = np.nonzero((c >= 0) & (c < w[:, None]) & (r >= 0) & (r < h[:, None]))
        bits = np.concatenate([m.bits.ravel() for m in masks])
        start = np.cumsum(h * w) - h * w
        hit = bits[start[k] + r[k, j].astype(np.intp) * w[k] + c[k, j].astype(np.intp)]
        k, j = k[hit], j[hit]
        for kk, ids in zip(np.unique(k), np.split(tids[j], np.flatnonzero(np.diff(k)) + 1)):
            out[idx[kk]] = ids.tolist()
    return out


def captured_markers(props: list[Proposal], gt: GroundTruth) -> list[int | None]:
    """The single marker each proposal captures in its frame, or None where it
    holds zero or several."""
    return [inside[0] if len(inside) == 1 else None for inside in markers_inside_each(props, gt)]


def _cell_overlap(
    gt: GroundTruth, t: int, masks: list[Mask]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The reference cells of frame ``t`` against ``masks``, in one count.

    Returns the frame's labels in ascending order, each cell's area, the
    (mask, cell) intersection table and which mask majority-covers which
    cell (``2 * inter > area``), the one matching rule of TRA and SEG.
    Grid values are non-negative labels, 0 the background.  Pixels outside
    the grid count nowhere, and a frame past the last grid has no cells.
    """
    if gt.label_grids is None:
        raise ValueError("ground truth has no label grids")
    grid = gt.label_grids[t] if 0 <= t < len(gt.label_grids) else np.zeros((0, 0), dtype=np.int64)
    counts = np.bincount(grid.ravel(), minlength=1)  # pixels per label value
    labels = np.flatnonzero(counts[1:]) + 1
    n = len(labels) + 1  # column 0 is background
    column = np.zeros(len(counts), dtype=np.intp)
    column[labels] = np.arange(1, n)
    keys = [np.empty(0, dtype=np.intp)]
    for k, m in enumerate(masks):
        y0, x0 = max(m.y0, 0), max(m.x0, 0)  # the mask's box cut to the grid
        y1 = min(m.y0 + m.bits.shape[0], grid.shape[0])
        x1 = min(m.x0 + m.bits.shape[1], grid.shape[1])
        if y0 < y1 and x0 < x1:
            bits = m.bits[y0 - m.y0 : y1 - m.y0, x0 - m.x0 : x1 - m.x0]
            keys.append(column[grid[y0:y1, x0:x1][bits]] + k * n)
    inter = np.bincount(np.concatenate(keys), minlength=len(masks) * n)
    inter = inter.reshape(len(masks), n)[:, 1:]
    area = counts[labels]
    return labels, area, inter, 2 * inter > area


Overlaps = dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]


def frame_overlaps(props: list[Proposal], lineage: Lineage, gt: GroundTruth) -> Overlaps:
    """``_cell_overlap`` of each frame against the proposals the lineage
    selects in it (in id order), for every frame of the label grids and
    every frame a selected proposal lies in: the one count TRA and SEG
    both match cells by."""
    if gt.label_grids is None:
        raise ValueError("ground truth has no label grids")
    by_frame = {
        t: [p.mask for p in group] for t, group in groupby(_selected(props, lineage), key=lambda p: p.t)
    }
    frames = sorted(set(range(len(gt.label_grids))) | set(by_frame))
    return {t: _cell_overlap(gt, t, by_frame.get(t, [])) for t in frames}


def _selected(props: list[Proposal], lineage: Lineage) -> list[Proposal]:
    """The proposals a lineage selects, in (frame, id) order."""
    by_id = {p.id: p for p in props}
    pids = {pid for members in lineage.members.values() for pid in members}
    return sorted((by_id[pid] for pid in pids), key=lambda p: (p.t, p.id))


# ---------------------------------------------------------------------------
# Detection matching and precision/recall


def _rank_order(props: list[Proposal], scores: np.ndarray) -> list[int]:
    if len(scores) != len(props):
        raise ValueError("scores length must match proposals")
    return sorted(range(len(props)), key=lambda i: (-float(scores[i]), props[i].id, i))


def match_marker(props: list[Proposal], scores: np.ndarray, gt: GroundTruth) -> np.ndarray:
    """Greedy marker matching in descending score order.

    A proposal counts as correct when it captures exactly one marker and that
    marker was not claimed by a higher-scoring proposal.  Returns a boolean
    array aligned with the input order.
    """
    flags = np.zeros(len(props), dtype=bool)
    used: set[tuple[int, int]] = set()
    for i in _rank_order(props, scores):
        p = props[i]
        inside = markers_inside(p, gt.markers_at(p.t))
        if len(inside) == 1 and (p.t, inside[0]) not in used:
            used.add((p.t, inside[0]))
            flags[i] = True
    return flags


def match_iou(
    props: list[Proposal], scores: np.ndarray, gt: GroundTruth, *, min_iou: float = 0.5
) -> np.ndarray:
    """Greedy overlap matching in descending score order.

    Each proposal claims the still-unclaimed reference region with the highest
    overlap, provided that overlap exceeds ``min_iou``; equal overlaps go to
    the lower label.
    """
    ious: dict[int, np.ndarray] = {}  # proposal index -> IoU with each cell of its frame
    claimed: dict[int, np.ndarray] = {}
    frame_order = sorted(range(len(props)), key=lambda i: props[i].t)
    for t, group in groupby(frame_order, key=lambda i: props[i].t):
        idx = list(group)
        _, area, inter, _ = _cell_overlap(gt, t, [props[i].mask for i in idx])
        union = np.array([props[i].mask.area for i in idx])[:, None] + area - inter
        ious.update(zip(idx, np.where(inter > 0, inter / union, 0.0)))
        claimed[t] = np.zeros(len(area), dtype=bool)
    flags = np.zeros(len(props), dtype=bool)
    for i in _rank_order(props, scores):
        used = claimed[props[i].t]
        iou = np.where(used, 0.0, ious[i])
        if iou.size and iou.max() > min_iou:
            used[iou.argmax()] = True
            flags[i] = True
    return flags


@dataclass
class PRCurve:
    recalls: np.ndarray
    precisions: np.ndarray
    ap: float


def pr_curve_and_ap(flags: np.ndarray, n_gt: int) -> PRCurve:
    """Precision/recall sweep over match flags already in rank order.

    The curve starts at (recall 0, precision 1) and adds one point per
    proposal; AP is the trapezoidal area under that polyline.
    """
    flags = np.asarray(flags, dtype=bool)
    if n_gt <= 0:
        raise ValueError("n_gt must be positive")
    tp = np.cumsum(flags)
    k = np.arange(1, flags.size + 1, dtype=np.float64)
    recalls = np.concatenate(([0.0], tp / float(n_gt)))
    precisions = np.concatenate(([1.0], tp / k))
    dr = np.diff(recalls)
    ap = float(np.sum(dr * (precisions[1:] + precisions[:-1]) / 2.0))
    return PRCurve(recalls, precisions, ap)


def detection_pr(
    props: list[Proposal],
    scores: np.ndarray,
    gt: GroundTruth,
    *,
    criterion: str = "marker",
    min_iou: float = 0.5,
) -> PRCurve:
    """PR curve and AP for scored proposals against the reference cells."""
    if criterion == "marker":
        flags = match_marker(props, scores, gt)
    elif criterion == "iou":
        flags = match_iou(props, scores, gt, min_iou=min_iou)
    else:
        raise ValueError(f"unknown matching criterion {criterion!r}")
    order = _rank_order(props, scores)
    return pr_curve_and_ap(flags[order], gt.n_markers())


# ---------------------------------------------------------------------------
# Graph coverage: can the candidate graph represent the reference lineage at all?


def graph_recall(graph: TrackingGraph, gt: GroundTruth) -> dict[str, float]:
    """Upper bounds the tracker: fractions of reference cells, links and
    divisions that exist as nodes/edges in the candidate graph.

    ``R`` counts cells captured alone by some proposal, ``R_NS`` cells inside
    any proposal at all.  A link or division is covered when single-capturing
    proposals for all its endpoints are connected by a candidate edge or
    division set.  Vacuous denominators give 1.0.
    """
    single: dict[tuple[int, int], set[int]] = {}  # proposal indices per (t, track)
    any_hit: set[tuple[int, int]] = set()
    for i, (p, inside) in enumerate(zip(graph.proposals, markers_inside_each(graph.proposals, gt))):
        for tid in inside:
            any_hit.add((p.t, tid))
        if len(inside) == 1:
            single.setdefault((p.t, inside[0]), set()).add(i)

    marker_keys = [(t, tid) for t, rows in sorted(gt.markers.items()) for tid, _, _ in rows]
    n = len(marker_keys)
    r = sum(1 for key in marker_keys if single.get(key)) / n if n else 1.0
    r_ns = sum(1 for key in marker_keys if key in any_hit) / n if n else 1.0

    move_pairs = set(map(tuple, graph.moves.tolist()))
    moves = gt.move_edges()
    found = 0
    for tid, t in moves:
        a = single.get((t, tid), set())
        b = single.get((t + 1, tid), set())
        if any((u, v) in move_pairs for u in a for v in b):
            found += 1
    move_recall = found / len(moves) if moves else 1.0

    spans = {row.label: row for row in gt.tracks}
    divs = gt.divisions()
    sets = graph.mitosis_sets.tolist()
    hit = 0
    for parent, d1, d2, tend in divs:
        ps = single.get((tend, parent), set())
        a = single.get((spans[d1].birth, d1), set())
        b = single.get((spans[d2].birth, d2), set())
        if any(
            p in ps and ((s1 in a and s2 in b) or (s1 in b and s2 in a))
            for p, s1, s2 in sets
        ):
            hit += 1
    mitosis_recall = hit / len(divs) if divs else 1.0

    return {"R": r, "R_NS": r_ns, "move_recall": move_recall, "mitosis_recall": mitosis_recall}


# ---------------------------------------------------------------------------
# Division detection quality of a finished result


def mitosis_f1(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def lineage_divisions(lineage: Lineage) -> list[tuple[int, int, int]]:
    """(parent last proposal, daughter first proposals) per division, in parent
    track order; daughters ordered by track label."""
    children: dict[int, list[int]] = {}
    for row in lineage.tracks:
        if row.parent:
            children.setdefault(row.parent, []).append(row.label)
    out = []
    for parent_label in sorted(children):
        kids = sorted(children[parent_label])
        if len(kids) != 2:
            continue
        if not all(lineage.members.get(lab) for lab in (parent_label, *kids)):
            continue
        out.append(
            (
                lineage.members[parent_label][-1],
                lineage.members[kids[0]][0],
                lineage.members[kids[1]][0],
            )
        )
    return out


def division_metrics(
    props: list[Proposal], lineage: Lineage, gt: GroundTruth
) -> tuple[float, float, float]:
    """Precision, recall and F1 of the divisions reported by a tracking result.

    A reported division is correct when its parent proposal captures exactly
    the reference parent marker and the two daughter proposals capture exactly
    the two daughter markers; each reference division can be claimed once.
    Empty denominators count as precision or recall 1.0.
    """
    by_id = {p.id: p for p in props}
    gt_divs: dict[tuple[int, int], tuple[int, int]] = {}
    for parent, d1, d2, tend in gt.divisions():
        gt_divs[(parent, tend)] = (d1, d2)
    used: set[tuple[int, int]] = set()
    reported = lineage_divisions(lineage)
    pids = [pid for division in reported for pid in division]
    captured = dict(zip(pids, captured_markers([by_id[pid] for pid in pids], gt)))
    tp = 0
    for parent_pid, a_pid, b_pid in reported:
        pm, am, bm = (captured[pid] for pid in (parent_pid, a_pid, b_pid))
        if pm is None or am is None or bm is None:
            continue
        key = (pm, by_id[parent_pid].t)
        if key in used or key not in gt_divs:
            continue
        if {am, bm} == set(gt_divs[key]):
            used.add(key)
            tp += 1
    precision = tp / len(reported) if reported else 1.0
    recall = tp / len(gt_divs) if gt_divs else 1.0
    return precision, recall, mitosis_f1(precision, recall)


# ---------------------------------------------------------------------------
# TRA: weighted cost of editing the result lineage graph into the reference one


TRA_WEIGHTS = {"ns": 5.0, "fn": 10.0, "fp": 1.0, "ed2": 1.0, "ea": 1.5, "ec": 1.0}


@dataclass
class TraResult:
    fn: int
    fp: int
    ns: int
    ea: int
    ed2: int
    ec: int
    aogm: float
    aogm0: float
    tra: float


def tra_score(
    props: list[Proposal],
    lineage: Lineage,
    gt: GroundTruth,
    *,
    weights: dict[str, float] | None = None,
    overlaps: Overlaps | None = None,
) -> TraResult:
    """Acyclic-graph edit cost between the result lineage and the reference.

    Result nodes are matched to reference cells in (frame, proposal id) order:
    with label grids a proposal claims every still-unclaimed cell whose region
    it majority-covers, otherwise every unclaimed marker inside its mask.
    Zero claims make the node spurious (fp), two or more a merger needing
    m - 1 splits (ns); leftover reference cells are missing (fn).  Edges map
    through uniquely matched endpoints; reference edges without a counterpart
    cost ea, result edges without one ed2, class mismatches ec.  The score
    normalises the weighted sum by the cost of building the reference from
    nothing, so 1.0 is perfect and an empty result scores 0.0.

    ``overlaps`` is ``frame_overlaps`` of the same arguments, when the
    caller has it already.
    """
    selected = _selected(props, lineage)
    if gt.label_grids is None:
        claims = markers_inside_each(selected, gt)
    else:
        if overlaps is None:
            overlaps = frame_overlaps(props, lineage, gt)
        claims = []
        for t in dict.fromkeys(p.t for p in selected):
            labels, _, _, held = overlaps[t]
            claims.extend(labels[row].tolist() for row in held)

    gt_nodes = [
        (t, tid)
        for t, rows in sorted(gt.markers.items())
        for tid in sorted(tid for tid, _, _ in rows)
    ]
    node_set = set(gt_nodes)

    # frame -> reference cells not yet claimed
    unmatched = {t: {tid for tid, _, _ in rows} for t, rows in gt.markers.items()}
    node_match: dict[int, tuple[int, int] | None] = {}
    fp = ns = 0
    for p, inside in zip(selected, claims):
        left = unmatched.get(p.t, set())
        hits = [tid for tid in inside if tid in left]
        node_match[p.id] = (p.t, hits[0]) if len(hits) == 1 else None
        fp += not hits
        ns += max(len(hits) - 1, 0)
        left.difference_update(hits)
    fn = sum(len(left) for left in unmatched.values())

    spans = {row.label: row for row in gt.tracks}
    gt_edges: dict[tuple[tuple[int, int], tuple[int, int]], str] = {}
    for tid, t in gt.move_edges():
        key = ((t, tid), (t + 1, tid))
        if key[0] in node_set and key[1] in node_set:
            gt_edges[key] = "track"
    for parent, d1, d2, tend in gt.divisions():
        for d in (d1, d2):
            key = ((tend, parent), (spans[d].birth, d))
            if key[0] in node_set and key[1] in node_set:
                gt_edges[key] = "parent"

    res_edges: list[tuple[int, int, str]] = []
    for track_id in sorted(lineage.members):
        ms = lineage.members[track_id]
        for u, v in zip(ms, ms[1:]):
            res_edges.append((u, v, "track"))
    for parent_pid, a_pid, b_pid in lineage_divisions(lineage):
        res_edges.append((parent_pid, a_pid, "parent"))
        res_edges.append((parent_pid, b_pid, "parent"))

    covered: set[tuple[tuple[int, int], tuple[int, int]]] = set()
    ed2 = ec = 0
    for u, v, cls in res_edges:
        a = node_match.get(u)
        b = node_match.get(v)
        if a is None or b is None or (a, b) not in gt_edges or (a, b) in covered:
            ed2 += 1
            continue
        covered.add((a, b))
        if gt_edges[(a, b)] != cls:
            ec += 1
    ea = len(gt_edges) - len(covered)

    w = dict(TRA_WEIGHTS)
    if weights:
        w.update(weights)
    aogm = w["ns"] * ns + w["fn"] * fn + w["fp"] * fp + w["ed2"] * ed2 + w["ea"] * ea + w["ec"] * ec
    aogm0 = w["fn"] * len(gt_nodes) + w["ea"] * len(gt_edges)
    if aogm0 == 0:
        tra = 1.0 if aogm == 0 else 0.0
    else:
        tra = 1.0 - min(aogm, aogm0) / aogm0
    return TraResult(fn=fn, fp=fp, ns=ns, ea=ea, ed2=ed2, ec=ec, aogm=aogm, aogm0=aogm0, tra=tra)


# ---------------------------------------------------------------------------
# SEG: mask agreement of matched cells


def seg_score(
    props: list[Proposal], lineage: Lineage, gt: GroundTruth, *, overlaps: Overlaps | None = None
) -> float:
    """Mean IoU, over the reference cells in (frame, label) order, with the
    selected proposal that majority-covers the cell most (the lowest id among
    equals); zero when none does.  Needs label grids.  ``overlaps`` as for
    ``tra_score``."""
    if overlaps is None:
        overlaps = frame_overlaps(props, lineage, gt)
    selected = _selected(props, lineage)
    by_frame = {t: list(group) for t, group in groupby(selected, key=lambda p: p.t)}
    scores: list[float] = []
    for t in range(len(gt.label_grids)):
        sel = by_frame.get(t, [])
        labels, area, inter, held = overlaps[t]
        if not sel:
            scores.extend([0.0] * len(labels))
            continue
        best = np.where(held, inter, 0).argmax(axis=0)  # a covering row wins
        cols = np.arange(len(labels))
        hit = inter[best, cols]
        union = np.array([p.mask.area for p in sel])[best] + area - hit
        scores.extend(np.where(held[best, cols], hit / union, 0.0).tolist())
    return float(np.mean(scores)) if scores else 1.0


# ---------------------------------------------------------------------------
# Report


@dataclass
class EvalReport:
    tra: TraResult
    seg: float | None
    division_precision: float
    division_recall: float
    division_f1: float
    n_tracks: int
    n_gt_tracks: int
    recalls: dict[str, float] | None = None


def evaluate_tracking(
    props: list[Proposal],
    lineage: Lineage,
    gt: GroundTruth,
    *,
    graph: TrackingGraph | None = None,
    weights: dict[str, float] | None = None,
) -> EvalReport:
    """Score a tracking result against the reference lineage.

    SEG is computed when the reference carries label grids; graph coverage
    fractions are included when the candidate graph is supplied.
    """
    overlaps = frame_overlaps(props, lineage, gt) if gt.label_grids is not None else None
    tra = tra_score(props, lineage, gt, weights=weights, overlaps=overlaps)
    seg = seg_score(props, lineage, gt, overlaps=overlaps) if overlaps is not None else None
    dp, dr, df1 = division_metrics(props, lineage, gt)
    recalls = graph_recall(graph, gt) if graph is not None else None
    return EvalReport(
        tra=tra,
        seg=seg,
        division_precision=dp,
        division_recall=dr,
        division_f1=df1,
        n_tracks=len(lineage.tracks),
        n_gt_tracks=len(gt.tracks),
        recalls=recalls,
    )


def report_text(report: EvalReport) -> str:
    seg = "-" if report.seg is None else f"{report.seg:.4f}"
    t = report.tra
    lines = [
        "TRA SEG FN FP NS EA EC ED2",
        f"{t.tra:.4f} {seg} {t.fn} {t.fp} {t.ns} {t.ea} {t.ec} {t.ed2}",
        f"divisions P={report.division_precision:.2f} R={report.division_recall:.2f}"
        f" F1={report.division_f1:.2f}",
        f"tracks {report.n_tracks} (reference {report.n_gt_tracks})",
    ]
    if report.recalls is not None:
        lines.append(
            "R={R:.4f} R-NS={R_NS:.4f} moves={move_recall:.4f}"
            " divisions={mitosis_recall:.4f}".format(**report.recalls)
        )
    return "\n".join(lines) + "\n"


def report_to_json(report: EvalReport) -> dict:
    t = report.tra
    out: dict = {
        "schema_version": 1,
        "kind": "eval_report",
        "tra": {
            "score": t.tra,
            "aogm": t.aogm,
            "aogm0": t.aogm0,
            "fn": t.fn,
            "fp": t.fp,
            "ns": t.ns,
            "ea": t.ea,
            "ed2": t.ed2,
            "ec": t.ec,
        },
        "seg": report.seg,
        "divisions": {
            "precision": report.division_precision,
            "recall": report.division_recall,
            "f1": report.division_f1,
        },
        "n_tracks": report.n_tracks,
        "n_gt_tracks": report.n_gt_tracks,
    }
    if report.recalls is not None:
        out["recalls"] = dict(sorted(report.recalls.items()))
    return out
