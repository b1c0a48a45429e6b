"""Spatio-temporal hypothesis graph over proposals.

Every proposal is a node between a virtual source and sink.  Edges carry
probabilities turned into additive costs via the negative log odds, so
selecting likely hypotheses lowers the objective.  Division candidates form
two-edge sets (parent to each daughter) that the solver must pick atomically.
The graph is a set of arrays built once; only its costs change when it is
re-scored.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evaluate import GroundTruth
from .features import centroid_distance
from .proposals import Proposal, conflicts

GRAPH_SCHEMA_VERSION = 1
PROB_CLAMP = 1e-6


def log_odds_cost(p):
    """-log(p / (1-p)) with p clamped away from 0 and 1: a float for a float,
    an array for an array.  Each log is math.log's, whose bits numpy's
    vectorised log does not always match, so a cost has the same bits in
    either form."""
    q = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    costs = [-math.log(v) for v in np.ravel(q / (1.0 - q)).tolist()]
    return costs[0] if np.ndim(p) == 0 else np.array(costs, dtype=np.float64)


@dataclass(frozen=True)
class Edge:
    kind: str  # "move" | "enter" | "exit" | "mitosis"
    src: int | None  # None means the virtual source
    dst: int | None  # None means the virtual sink
    prob: float
    cost: float
    set_id: int = -1  # division set index for mitosis edges
    k: int = 0  # 1 = first daughter edge, 2 = second


@dataclass
class TrackingGraph:
    """The candidate graph as arrays over proposal indices, the positions in
    ``proposals``, which are in (t, id) order.

    Per proposal: the probability and cost of the proposal itself, of its
    enter edge and of its exit edge.  Per move, in (source id, destination
    id) order: its (source, destination), probability and cost.  Per
    division set, in (parent, d1, d2) id order with d1's id below d2's: its
    (parent, d1, d2), probability and half cost; each of the set's two edges
    carries the half, so selecting the pair adds the whole cost once.
    ``conflicts`` holds the same-frame pairs that may not coexist, in id
    order.  Only the cost arrays hold costs, so replacing them re-costs the
    graph.
    """

    proposals: list[Proposal]
    node_prob: np.ndarray
    node_cost: np.ndarray
    enter_prob: np.ndarray
    enter_cost: np.ndarray
    exit_prob: np.ndarray
    exit_cost: np.ndarray
    moves: np.ndarray  # (m, 2)
    move_prob: np.ndarray
    move_cost: np.ndarray
    mitosis_sets: np.ndarray  # (s, 3)
    mitosis_prob: np.ndarray
    mitosis_cost: np.ndarray
    conflicts: np.ndarray  # (c, 2)
    n_frames: int

    @property
    def edges(self) -> tuple[Edge, ...]:
        """Every edge as a record naming proposals by id, in variable order
        (see ``solve.formulate``): an enter edge per proposal, the moves, an
        exit edge per proposal, then each division set's first and second
        daughter edge.  Built on each access; the arrays are the graph."""
        ids = [p.id for p in self.proposals]
        enters = zip(ids, self.enter_prob.tolist(), self.enter_cost.tolist())
        moves = zip(self.moves.tolist(), self.move_prob.tolist(), self.move_cost.tolist())
        exits = zip(ids, self.exit_prob.tolist(), self.exit_cost.tolist())
        sets = zip(self.mitosis_sets.tolist(), self.mitosis_prob.tolist(), self.mitosis_cost.tolist())
        return (
            *(Edge("enter", None, i, p, c) for i, p, c in enters),
            *(Edge("move", ids[a], ids[b], p, c) for (a, b), p, c in moves),
            *(Edge("exit", i, None, p, c) for i, p, c in exits),
            *(
                Edge("mitosis", ids[parent], ids[d], p, c, set_id=s, k=k)
                for s, ((parent, d1, d2), p, c) in enumerate(sets)
                for k, d in ((1, d1), (2, d2))
            ),
        )


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
    edges are attached to every proposal.  Every cost is the log odds of its
    probability, computed in one pass over all of them.
    """
    flat = [p for frame in props_by_frame for p in frame]
    flat.sort(key=lambda p: (p.t, p.id))
    index = {p.id: i for i, p in enumerate(flat)}
    if len(index) != len(flat):
        raise ValueError("duplicate proposal ids")
    missing = [p.id for p in flat if p.id not in node_probs]
    if missing:
        raise ValueError(f"missing node probabilities for ids {missing[:5]}")
    t = np.array([p.t for p in flat], dtype=np.int64)

    def locate(keys: list[tuple], what: str) -> np.ndarray:
        for key in keys:
            for pid in key:
                if pid not in index:
                    raise ValueError(f"{what} {key} references unknown proposal {pid}")
        return np.array([[index[pid] for pid in key] for key in keys], dtype=np.intp)

    move_keys, set_keys = sorted(move_probs), sorted(mitosis_probs)
    moves = locate(move_keys, "move edge").reshape(-1, 2)
    off = t[moves[:, 1]] != t[moves[:, 0]] + 1
    if off.any():
        raise ValueError(f"move edge {move_keys[int(np.argmax(off))]} does not span adjacent frames")
    unordered = [key for key in set_keys if key[1] >= key[2]]
    if unordered:
        raise ValueError(f"mitosis daughters must be id-ordered, got {unordered[0][1:]}")
    sets = locate(set_keys, "mitosis set").reshape(-1, 3)
    off = (t[sets[:, 1:]] != t[sets[:, :1]] + 1).any(axis=1)
    if off.any():
        raise ValueError(f"mitosis set {set_keys[int(np.argmax(off))]} has daughters off frame")

    n = len(flat)
    probs = np.array(
        [node_probs[p.id] for p in flat] + [p_enter] * n + [p_exit] * n
        + [move_probs[k] for k in move_keys] + [mitosis_probs[k] for k in set_keys],
        dtype=np.float64,
    )
    # the node, enter, exit, move and division parts of ``probs``
    parts = np.cumsum([n, n, n, len(moves)])
    prob, cost = np.split(probs, parts), np.split(log_odds_cost(probs), parts)
    pairs = [(index[a], index[b]) for a, b in conflicts(flat)]
    return TrackingGraph(
        proposals=flat,
        node_prob=prob[0], node_cost=cost[0],
        enter_prob=prob[1], enter_cost=cost[1],
        exit_prob=prob[2], exit_cost=cost[2],
        moves=moves, move_prob=prob[3], move_cost=cost[3],
        mitosis_sets=sets, mitosis_prob=prob[4], mitosis_cost=cost[4] / 2.0,
        conflicts=np.array(pairs, dtype=np.intp).reshape(-1, 2),
        n_frames=len(props_by_frame),
    )


def graph_stats(graph: TrackingGraph) -> dict:
    n, m, s = len(graph.proposals), len(graph.moves), len(graph.mitosis_sets)
    kinds = {"enter": n, "exit": n, "mitosis": 2 * s, "move": m}
    return {
        "n_frames": graph.n_frames,
        "n_proposals": n,
        "n_edges": 2 * n + m + 2 * s,
        "edges_by_kind": {k: v for k, v in kinds.items() if v},
        "n_conflicts": len(graph.conflicts),
        "n_mitosis_sets": s,
    }


def graph_to_json(graph: TrackingGraph) -> dict:
    ids = [p.id for p in graph.proposals]
    return {
        "schema_version": GRAPH_SCHEMA_VERSION,
        "kind": "tracking_graph",
        "n_frames": graph.n_frames,
        "proposals": [
            {"id": i, "t": p.t, "prob": prob, "cost": cost}
            for i, p, prob, cost in zip(
                ids, graph.proposals, graph.node_prob.tolist(), graph.node_cost.tolist()
            )
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
        "conflicts": [[ids[a], ids[b]] for a, b in graph.conflicts.tolist()],
        "mitosis_sets": [
            {"set_id": k, "parent": ids[parent], "d1": ids[d1], "d2": ids[d2], "prob": prob}
            for k, ((parent, d1, d2), prob) in enumerate(
                zip(graph.mitosis_sets.tolist(), graph.mitosis_prob.tolist())
            )
        ],
    }
