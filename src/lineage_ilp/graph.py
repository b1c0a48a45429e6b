"""Spatio-temporal hypothesis graph over proposals.

Every proposal is a node between a virtual source and sink.  Edges carry
probabilities turned into additive costs via the negative log odds, so
selecting likely hypotheses lowers the objective.  Division candidates form
two-edge sets (parent to each daughter) that the solver must pick atomically.
The graph is a set of arrays built once; only its costs change when it is
re-scored.
"""
from __future__ import annotations

import itertools
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


def _frame_positions(props_by_frame: list[list[Proposal]]) -> tuple[list[Proposal], list[np.ndarray]]:
    """The proposals listed frame after frame, and per frame the positions
    of its proposals in that list, in id order."""
    flat = [p for frame in props_by_frame for p in frame]
    starts = np.cumsum([0] + [len(frame) for frame in props_by_frame])
    return flat, [
        start + np.argsort([p.id for p in frame], kind="stable").astype(np.intp)
        for start, frame in zip(starts.tolist(), props_by_frame)
    ]


def enumerate_moves(props_by_frame: list[list[Proposal]], gating_radius: float) -> np.ndarray:
    """Candidate frame-to-frame links: centroid distance at most the radius.

    Returns (m, 2) (source, destination) positions in the proposals listed
    frame after frame (the pipeline's list, in (t, id) order), by frame,
    then source id, then destination id.
    """
    flat, frames = _frame_positions(props_by_frame)
    xy = _centroids(flat)
    out = [np.zeros((0, 2), dtype=np.intp)]
    for src, dst in zip(frames, frames[1:]):
        i, j = np.nonzero(_near(xy[src], xy[dst], gating_radius))
        pairs = np.column_stack([src[i], dst[j]])
        keep = [centroid_distance(flat[a], flat[b]) <= gating_radius for a, b in pairs.tolist()]
        out.append(pairs[np.array(keep, dtype=bool)])
    return np.concatenate(out)


def enumerate_mitoses(
    props_by_frame: list[list[Proposal]],
    mitosis_radius: float,
    n_neighbors: int = 3,
) -> np.ndarray:
    """Division candidates: the n nearest next-frame proposals, all pairs.

    Returns (s, 3) (parent, d1, d2) positions as ``enumerate_moves`` gives
    them, by frame, then parent id; d1's id is below d2's.
    """
    flat, frames = _frame_positions(props_by_frame)
    xy = _centroids(flat)
    out = []
    for parents, nxt in zip(frames, frames[1:]):
        gate = _near(xy[parents], xy[nxt], mitosis_radius)
        for parent, row in zip(parents.tolist(), gate):
            dists = ((centroid_distance(flat[parent], flat[j]), flat[j].id, j) for j in nxt[row].tolist())
            near = sorted(item for item in dists if item[0] <= mitosis_radius)[:n_neighbors]
            chosen = [j for _, _, j in sorted(near, key=lambda item: item[1])]
            out += [(parent, a, b) for a, b in itertools.combinations(chosen, 2)]
    return np.array(out, dtype=np.intp).reshape(-1, 3)


def build_graph(
    proposals: list[Proposal],
    node_prob: np.ndarray,
    moves: np.ndarray,
    move_prob: np.ndarray,
    mitosis_sets: np.ndarray,
    mitosis_prob: np.ndarray,
    n_frames: int,
    *,
    p_enter: float = 0.01,
    p_exit: float = 0.01,
) -> TrackingGraph:
    """Assemble the graph from scored proposals and scored candidates.

    ``proposals`` are in (t, id) order with distinct ids, and ``node_prob``
    holds their probabilities.  ``moves`` holds (source, destination)
    positions in ``proposals`` with the destination one frame after the
    source, and ``mitosis_sets`` (parent, d1, d2) positions with both
    daughters one frame after the parent and d1's id below d2's;
    ``move_prob`` and ``mitosis_prob`` hold their probabilities.  Both are
    put into id order.  Enter and exit edges are attached to every proposal.
    Every cost is the log odds of its probability, computed in one pass
    over all of them.
    """
    n = len(proposals)
    ids = np.array([p.id for p in proposals], dtype=np.int64)
    t = np.array([p.t for p in proposals], dtype=np.int64)
    if np.any((t[1:] < t[:-1]) | ((t[1:] == t[:-1]) & (ids[1:] < ids[:-1]))):
        raise ValueError("proposals must be in (t, id) order")
    if len(np.unique(ids)) != n:
        raise ValueError("duplicate proposal ids")
    moves = np.asarray(moves, dtype=np.intp).reshape(-1, 2)
    sets = np.asarray(mitosis_sets, dtype=np.intp).reshape(-1, 3)
    node_prob, move_prob, mitosis_prob = given = [
        np.asarray(v, dtype=np.float64) for v in (node_prob, move_prob, mitosis_prob)
    ]
    for what, prob, want in zip(("node", "move", "mitosis"), given, (n, len(moves), len(sets))):
        if prob.shape != (want,):
            raise ValueError(f"{what} probabilities have shape {prob.shape}, need ({want},)")

    def refuse(bad: np.ndarray, rows: np.ndarray, message: str) -> None:
        if bad.any():
            raise ValueError(message.format(rows[np.argmax(bad)].tolist()))

    for what, at in (("move edge", moves), ("mitosis set", sets)):
        refuse(((at < 0) | (at >= n)).any(axis=1), at, f"{what} {{}} references a position outside 0..{n - 1}")
        refuse((t[at[:, 1:]] != t[at[:, :1]] + 1).any(axis=1), ids[at], f"{what} {{}} does not span adjacent frames")
    refuse(ids[sets[:, 1]] >= ids[sets[:, 2]], ids[sets], "mitosis daughters must be id-ordered, got {}")

    move_order = np.lexsort(ids[moves].T[::-1])
    set_order = np.lexsort(ids[sets].T[::-1])
    probs = np.concatenate([
        node_prob, np.full(n, p_enter), np.full(n, p_exit), move_prob[move_order], mitosis_prob[set_order],
    ])
    # the node, enter, exit, move and division parts of ``probs``
    parts = np.cumsum([n, n, n, len(moves)])
    prob, cost = np.split(probs, parts), np.split(log_odds_cost(probs), parts)
    return TrackingGraph(
        proposals=list(proposals),
        node_prob=prob[0], node_cost=cost[0],
        enter_prob=prob[1], enter_cost=cost[1],
        exit_prob=prob[2], exit_cost=cost[2],
        moves=moves[move_order], move_prob=prob[3], move_cost=cost[3],
        mitosis_sets=sets[set_order], mitosis_prob=prob[4], mitosis_cost=cost[4] / 2.0,
        conflicts=conflicts(proposals),
        n_frames=n_frames,
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
