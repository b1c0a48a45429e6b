"""Spatio-temporal hypothesis graph over proposals.

Every proposal is a node between a virtual source and sink.  Edges carry
probabilities turned into additive costs via the negative log odds, so
selecting likely hypotheses lowers the objective.  Division candidates form
two-edge sets (parent to each daughter) that the solver must pick atomically.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .evaluate import GroundTruth
from .features import centroid_distance
from .proposals import Proposal, conflicts

GRAPH_SCHEMA_VERSION = 1
PROB_CLAMP = 1e-6


def log_odds_cost(p: float) -> float:
    """-log(p / (1-p)) with p clamped away from 0 and 1."""
    p = min(max(p, PROB_CLAMP), 1.0 - PROB_CLAMP)
    return -math.log(p / (1.0 - p))


@dataclass(frozen=True)
class Edge:
    kind: str  # "move" | "enter" | "exit" | "mitosis"
    src: int | None  # None means the virtual source
    dst: int | None  # None means the virtual sink
    prob: float
    cost: float
    set_id: int = -1  # division set index for mitosis edges
    k: int = 0  # 1 = first daughter edge, 2 = second


@dataclass(frozen=True)
class MitosisSet:
    set_id: int
    parent: int
    d1: int
    d2: int
    prob: float


@dataclass
class TrackingGraph:
    proposals: list[Proposal]
    node_prob: dict[int, float]
    node_cost: dict[int, float]
    edges: list[Edge]
    conflicts: list[tuple[int, int]]
    mitosis_sets: list[MitosisSet] = field(default_factory=list)
    n_frames: int = 0

    def proposal_by_id(self) -> dict[int, Proposal]:
        return {p.id: p for p in self.proposals}


MITOSIS_RADIUS_FACTOR = 1.5  # division search radius per unit of gating radius


def gating_radius_from_truth(
    gt: GroundTruth, percentile: float = 99.0, factor: float = 1.25, fallback: float = 15.0
) -> float:
    """Candidate-link search radius from observed displacements; ``fallback``
    when no displacement is observed or none is above zero (no cell moves)."""
    d = gt.displacements()
    radius = float(np.percentile(d, percentile) * factor) if len(d) else 0.0
    return radius if radius > 0 else fallback


def _centroids(props: list[Proposal]) -> np.ndarray:
    """(n, 2) array of proposal centroids in list order."""
    return np.array([p.centroid for p in props], dtype=np.float64).reshape(-1, 2)


def _near(src: np.ndarray, dst: np.ndarray, radius: float) -> np.ndarray:
    """(n_src, n_dst) prefilter: True for every pair within ``radius`` by
    ``math.hypot`` and possibly a few just beyond it.

    Squared distances round differently from ``math.hypot``, so the limit
    carries a relative margin far above that rounding error; callers decide
    each surviving pair with ``centroid_distance``.
    """
    d = dst[None, :, :] - src[:, None, :]
    return (d * d).sum(axis=2) <= radius * radius * (1.0 + 1e-9)


def enumerate_moves(
    props_by_frame: list[list[Proposal]], gating_radius: float
) -> list[tuple[Proposal, Proposal]]:
    """Candidate frame-to-frame links: centroid distance at most the radius.

    Pairs come by source id, then destination id.
    """
    out = []
    frames = [sorted(frame, key=lambda p: p.id) for frame in props_by_frame]
    xy = [_centroids(frame) for frame in frames]
    for t in range(len(frames) - 1):
        src, dst = frames[t], frames[t + 1]
        for i, j in zip(*np.nonzero(_near(xy[t], xy[t + 1], gating_radius))):
            if centroid_distance(src[i], dst[j]) <= gating_radius:
                out.append((src[i], dst[j]))
    return out


def enumerate_mitoses(
    props_by_frame: list[list[Proposal]],
    mitosis_radius: float,
    n_neighbors: int = 3,
) -> list[tuple[Proposal, Proposal, Proposal]]:
    """Division candidates: the n nearest next-frame proposals, all pairs.

    Daughters are ordered by ascending id within each triple.
    """
    out = []
    for t in range(len(props_by_frame) - 1):
        nxt = props_by_frame[t + 1]
        parents = sorted(props_by_frame[t], key=lambda p: p.id)
        gate = _near(_centroids(parents), _centroids(nxt), mitosis_radius)
        for parent, row in zip(parents, gate):
            dists = ((nxt[j], centroid_distance(parent, nxt[j])) for j in np.flatnonzero(row))
            near = [(d, r) for d, r in dists if r <= mitosis_radius]
            near.sort(key=lambda item: (item[1], item[0].id))
            chosen = [d for d, _ in near[:n_neighbors]]
            chosen.sort(key=lambda p: p.id)
            for a in range(len(chosen)):
                for b in range(a + 1, len(chosen)):
                    out.append((parent, chosen[a], chosen[b]))
    return out


def build_graph(
    props_by_frame: list[list[Proposal]],
    node_probs: dict[int, float],
    move_probs: dict[tuple[int, int], float],
    mitosis_probs: dict[tuple[int, int, int], float],
    *,
    p_enter: float = 0.01,
    p_exit: float = 0.01,
) -> TrackingGraph:
    """Assemble the graph from scored proposals and scored candidates.

    move_probs is keyed by (src id, dst id) with dst one frame after src;
    mitosis_probs by (parent id, d1 id, d2 id) with d1 < d2.  Enter and exit
    edges are attached to every proposal.
    """
    flat = [p for frame in props_by_frame for p in frame]
    flat.sort(key=lambda p: (p.t, p.id))
    by_id = {p.id: p for p in flat}
    if len(by_id) != len(flat):
        raise ValueError("duplicate proposal ids")
    missing = [p.id for p in flat if p.id not in node_probs]
    if missing:
        raise ValueError(f"missing node probabilities for ids {missing[:5]}")

    node_cost = {p.id: log_odds_cost(node_probs[p.id]) for p in flat}
    edges: list[Edge] = []

    enter_cost = log_odds_cost(p_enter)
    exit_cost = log_odds_cost(p_exit)
    for p in flat:
        edges.append(Edge("enter", None, p.id, p_enter, enter_cost))

    for (src, dst) in sorted(move_probs):
        if src not in by_id or dst not in by_id:
            raise ValueError(f"move edge ({src}, {dst}) references unknown proposal")
        if by_id[dst].t != by_id[src].t + 1:
            raise ValueError(f"move edge ({src}, {dst}) does not span adjacent frames")
        prob = move_probs[(src, dst)]
        edges.append(Edge("move", src, dst, prob, log_odds_cost(prob)))

    for p in flat:
        edges.append(Edge("exit", p.id, None, p_exit, exit_cost))

    sets: list[MitosisSet] = []
    for (parent, d1, d2) in sorted(mitosis_probs):
        if d1 >= d2:
            raise ValueError(f"mitosis daughters must be id-ordered, got ({d1}, {d2})")
        for pid in (parent, d1, d2):
            if pid not in by_id:
                raise ValueError(f"mitosis set references unknown proposal {pid}")
        if by_id[d1].t != by_id[parent].t + 1 or by_id[d2].t != by_id[parent].t + 1:
            raise ValueError(f"mitosis set ({parent}, {d1}, {d2}) has daughters off frame")
        prob = mitosis_probs[(parent, d1, d2)]
        set_id = len(sets)
        sets.append(MitosisSet(set_id, parent, d1, d2, prob))
        # The set cost is the log odds of the division; half sits on each
        # edge so selecting the pair adds the full amount once.
        half = log_odds_cost(prob) / 2.0
        edges.append(Edge("mitosis", parent, d1, prob, half, set_id=set_id, k=1))
        edges.append(Edge("mitosis", parent, d2, prob, half, set_id=set_id, k=2))

    pair_list = []
    for frame in props_by_frame:
        pair_list.extend(conflicts(frame))

    return TrackingGraph(
        proposals=flat,
        node_prob=dict(node_probs),
        node_cost=node_cost,
        edges=edges,
        conflicts=sorted(pair_list),
        mitosis_sets=sets,
        n_frames=len(props_by_frame),
    )


def graph_stats(graph: TrackingGraph) -> dict:
    kinds: dict[str, int] = {}
    for e in graph.edges:
        kinds[e.kind] = kinds.get(e.kind, 0) + 1
    return {
        "n_frames": graph.n_frames,
        "n_proposals": len(graph.proposals),
        "n_edges": len(graph.edges),
        "edges_by_kind": {k: kinds[k] for k in sorted(kinds)},
        "n_conflicts": len(graph.conflicts),
        "n_mitosis_sets": len(graph.mitosis_sets),
    }


def graph_to_json(graph: TrackingGraph) -> dict:
    return {
        "schema_version": GRAPH_SCHEMA_VERSION,
        "kind": "tracking_graph",
        "n_frames": graph.n_frames,
        "proposals": [
            {
                "id": p.id,
                "t": p.t,
                "prob": graph.node_prob[p.id],
                "cost": graph.node_cost[p.id],
            }
            for p in graph.proposals
        ],
        "edges": [
            {
                "kind": e.kind,
                "src": e.src,
                "dst": e.dst,
                "prob": e.prob,
                "cost": e.cost,
                "set_id": e.set_id,
                "k": e.k,
            }
            for e in graph.edges
        ],
        "conflicts": [list(pair) for pair in graph.conflicts],
        "mitosis_sets": [
            {"set_id": s.set_id, "parent": s.parent, "d1": s.d1, "d2": s.d2, "prob": s.prob}
            for s in graph.mitosis_sets
        ],
    }
