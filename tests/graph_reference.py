"""The tracking graph with candidates named by proposal id and walked one
object at a time: a reference for ``graph.enumerate_moves``,
``graph.enumerate_mitoses`` and ``graph.build_graph``, which name candidates
by position, and for ``solve.solve_greedy`` and ``solve.extract_lineage``,
which read the graph's arrays.

``enumerate_moves`` and ``enumerate_mitoses`` return proposal tuples, and
``build_graph`` takes probabilities keyed by id, as the package did before
it named candidates by position; ``build_graph`` takes its conflicts from
``overlap_reference``.  ``edge_list`` lists the edges as ``build_graph``
assembled them when the graph was a list of ``Edge`` records.
``solve_greedy`` and ``extract_lineage`` walk the ``graph.edges`` records
with proposals keyed by id; only their first lines, which key the graph's
arrays by id, are new.
"""
from __future__ import annotations

import math

import numpy as np
import overlap_reference

from lineage_ilp.features import centroid_distance
from lineage_ilp.graph import PROB_CLAMP, Edge, TrackingGraph, _centroids, _near
from lineage_ilp.io import TrackRow
from lineage_ilp.proposals import CONFLICT_COVER, CONFLICT_IOU
from lineage_ilp.solve import Lineage, SolveResult


def log_odds_cost(p: float) -> float:
    """-log(p / (1-p)) with p clamped away from 0 and 1, one float at a time."""
    p = min(max(p, PROB_CLAMP), 1.0 - PROB_CLAMP)
    return -math.log(p / (1.0 - p))


def enumerate_moves(props_by_frame, gating_radius: float) -> list[tuple]:
    """Candidate frame-to-frame links, centroid distance at most the radius,
    as (source, destination) proposals, by source id, then destination id."""
    out = []
    frames = [sorted(frame, key=lambda p: p.id) for frame in props_by_frame]
    xy = [_centroids(frame) for frame in frames]
    for t in range(len(frames) - 1):
        src, dst = frames[t], frames[t + 1]
        for i, j in zip(*np.nonzero(_near(xy[t], xy[t + 1], gating_radius))):
            if centroid_distance(src[i], dst[j]) <= gating_radius:
                out.append((src[i], dst[j]))
    return out


def enumerate_mitoses(props_by_frame, mitosis_radius: float, n_neighbors: int = 3) -> list[tuple]:
    """Division candidates, the n nearest next-frame proposals and all pairs
    of them, as (parent, d1, d2) proposals with d1's id below d2's."""
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


def build_graph(props_by_frame, node_probs, move_probs, mitosis_probs, *, p_enter=0.01, p_exit=0.01):
    """The graph from probabilities keyed by id: moves by (src id, dst id)
    with dst one frame after src, division sets by (parent id, d1 id, d2 id)
    with d1 < d2.  Moves, sets and conflicts go in id order."""
    flat = sorted((p for frame in props_by_frame for p in frame), key=lambda p: (p.t, p.id))
    index = {p.id: i for i, p in enumerate(flat)}
    if len(index) != len(flat):
        raise ValueError("duplicate proposal ids")
    move_keys, set_keys = sorted(move_probs), sorted(mitosis_probs)
    for key in move_keys:
        if flat[index[key[1]]].t != flat[index[key[0]]].t + 1:
            raise ValueError(f"move edge {key} does not span adjacent frames")
    for key in set_keys:
        if key[1] >= key[2] or any(flat[index[d]].t != flat[index[key[0]]].t + 1 for d in key[1:]):
            raise ValueError(f"mitosis set {key} is out of order or off frame")

    def split(prob: list[float]) -> tuple[np.ndarray, np.ndarray]:
        return np.array(prob, dtype=np.float64), np.array([log_odds_cost(p) for p in prob], dtype=np.float64)

    def at(keys: list[tuple], width: int) -> np.ndarray:
        return np.array([[index[pid] for pid in key] for key in keys], dtype=np.intp).reshape(-1, width)

    n = len(flat)
    node_prob, node_cost = split([node_probs[p.id] for p in flat])
    enter_prob, enter_cost = split([p_enter] * n)
    exit_prob, exit_cost = split([p_exit] * n)
    move_prob, move_cost = split([move_probs[k] for k in move_keys])
    mitosis_prob, mitosis_cost = split([mitosis_probs[k] for k in set_keys])
    pairs = overlap_reference.conflicts(flat, CONFLICT_IOU, CONFLICT_COVER)
    return TrackingGraph(
        proposals=flat,
        node_prob=node_prob, node_cost=node_cost,
        enter_prob=enter_prob, enter_cost=enter_cost,
        exit_prob=exit_prob, exit_cost=exit_cost,
        moves=at(move_keys, 2), move_prob=move_prob, move_cost=move_cost,
        mitosis_sets=at(set_keys, 3), mitosis_prob=mitosis_prob, mitosis_cost=mitosis_cost / 2.0,
        conflicts=at(pairs, 2),
        n_frames=len(props_by_frame),
    )


def id_keyed(proposals, node_prob, moves, move_prob, mitosis_sets, mitosis_prob, n_frames, **kwargs):
    """``build_graph``'s arguments by position (the package's form) as the
    id-keyed arguments of this module's ``build_graph`` and ``edge_list``."""
    ids = [p.id for p in proposals]
    frames = [[p for p in proposals if p.t == t] for t in range(n_frames)]
    node_probs = dict(zip(ids, np.asarray(node_prob).tolist()))

    def keyed(at, prob) -> dict[tuple, float]:
        return {tuple(ids[k] for k in key): p for key, p in zip(np.asarray(at).tolist(), np.asarray(prob).tolist())}

    return (frames, node_probs, keyed(moves, move_prob), keyed(mitosis_sets, mitosis_prob)), kwargs


def edge_list(props_by_frame, node_probs, move_probs, mitosis_probs, *, p_enter=0.01, p_exit=0.01):
    """The edges of ``build_graph``'s graph, one record each: enter edges,
    moves, exit edges, then the two edges of each division set."""
    flat = sorted((p for frame in props_by_frame for p in frame), key=lambda p: (p.t, p.id))
    edges = [Edge("enter", None, p.id, p_enter, log_odds_cost(p_enter)) for p in flat]
    for src, dst in sorted(move_probs):
        prob = move_probs[(src, dst)]
        edges.append(Edge("move", src, dst, prob, log_odds_cost(prob)))
    edges += [Edge("exit", p.id, None, p_exit, log_odds_cost(p_exit)) for p in flat]
    for set_id, (parent, d1, d2) in enumerate(sorted(mitosis_probs)):
        prob = mitosis_probs[(parent, d1, d2)]
        half = log_odds_cost(prob) / 2.0
        edges.append(Edge("mitosis", parent, d1, prob, half, set_id=set_id, k=1))
        edges.append(Edge("mitosis", parent, d2, prob, half, set_id=set_id, k=2))
    return edges


def _keyed(graph: TrackingGraph):
    """The graph's edge records, node costs by id, division sets as (set id,
    parent, d1, d2) ids and conflicts as id pairs."""
    ids = [p.id for p in graph.proposals]
    node_cost = dict(zip(ids, graph.node_cost.tolist()))
    sets = [(k, ids[a], ids[b], ids[c]) for k, (a, b, c) in enumerate(graph.mitosis_sets.tolist())]
    conflicts = [(ids[a], ids[b]) for a, b in graph.conflicts.tolist()]
    return list(graph.edges), node_cost, sets, conflicts


def solve_greedy(graph: TrackingGraph) -> SolveResult:
    """Repeated cheapest extension: whole tracks first, then divisions."""
    edges, node_cost, mitosis_sets, graph_conflicts = _keyed(graph)
    props = graph.proposals
    by_frame: dict[int, list[int]] = {}
    for p in props:
        by_frame.setdefault(p.t, []).append(p.id)
    for lst in by_frame.values():
        lst.sort()
    frames = sorted(by_frame)

    enter_edge: dict[int, tuple[float, int]] = {}
    exit_edge: dict[int, tuple[float, int]] = {}
    in_moves: dict[int, list[tuple[int, float, int]]] = {pid: [] for pid in node_cost}
    out_moves: dict[int, list[tuple[int, float, int]]] = {pid: [] for pid in node_cost}
    for i, e in enumerate(edges):
        if e.kind == "enter":
            enter_edge[e.dst] = (e.cost, i)
        elif e.kind == "exit":
            exit_edge[e.src] = (e.cost, i)
        elif e.kind == "move":
            in_moves[e.dst].append((e.src, e.cost, i))
            out_moves[e.src].append((e.dst, e.cost, i))
    for lst in in_moves.values():
        lst.sort(key=lambda item: item[0])
    for lst in out_moves.values():
        lst.sort(key=lambda item: item[0])

    set_edges: dict[int, dict[int, int]] = {}
    for i, e in enumerate(edges):
        if e.kind == "mitosis":
            set_edges.setdefault(e.set_id, {})[e.k] = i
    sets_by_parent: dict[int, list] = {}
    for s in mitosis_sets:
        sets_by_parent.setdefault(s[1], []).append(s)
    conflict_pairs = set(graph_conflicts)
    conflict_adj: dict[int, list[int]] = {}
    for a, b in graph_conflicts:
        conflict_adj.setdefault(a, []).append(b)
        conflict_adj.setdefault(b, []).append(a)

    available = {pid: True for pid in node_cost}
    used: set[int] = set()
    chosen_edges: set[int] = set()
    chain_end_term: dict[int, int] = {}  # selected track tail pid -> terminal edge idx
    divided: set[int] = set()
    actions = 0

    def claim(pid: int) -> None:
        available[pid] = False
        used.add(pid)
        for other in conflict_adj.get(pid, []):
            available[other] = False

    def best_chain():
        dist: dict[int, float] = {}
        pred: dict[int, tuple] = {}
        best = (np.inf, None)
        for t in frames:
            for pid in by_frame[t]:
                if not available[pid]:
                    continue
                cost = enter_edge[pid][0] + node_cost[pid]
                how = ("enter",)
                for src, mcost, eidx in in_moves[pid]:
                    d = dist.get(src)
                    if d is not None and d + mcost + node_cost[pid] < cost:
                        cost = d + mcost + node_cost[pid]
                        how = ("move", src, eidx)
                dist[pid] = cost
                pred[pid] = how
                total = cost + exit_edge[pid][0]
                if total < best[0]:
                    best = (total, pid)
        if best[1] is None:
            return np.inf, None
        path = []
        cur = best[1]
        while True:
            path.append(cur)
            how = pred[cur]
            if how[0] == "enter":
                break
            cur = how[1]
        path.reverse()
        return best[0], path

    def tail_costs() -> dict[int, float]:
        tail: dict[int, float] = {}
        for t in reversed(frames):
            for pid in by_frame[t]:
                if not available[pid]:
                    continue
                best = exit_edge[pid][0]
                for dst, mcost, eidx in out_moves[pid]:
                    d = tail.get(dst)
                    if d is not None and mcost + d < best:
                        best = mcost + d
                tail[pid] = node_cost[pid] + best
        return tail

    def walk_tail(start: int) -> None:
        cur = start
        claim(cur)
        while True:
            tail = tail_costs()
            best_cost = exit_edge[cur][0]
            best_next = None
            for dst, mcost, eidx in out_moves[cur]:
                d = tail.get(dst)
                if d is not None and mcost + d < best_cost:
                    best_cost = mcost + d
                    best_next = (dst, eidx)
            if best_next is None:
                chosen_edges.add(exit_edge[cur][1])
                chain_end_term[cur] = exit_edge[cur][1]
                return
            dst, eidx = best_next
            chosen_edges.add(eidx)
            claim(dst)
            cur = dst

    while True:
        chain_cost, chain_path = best_chain()

        tail = tail_costs()
        best_div = (np.inf, None)
        for parent in sorted(chain_end_term):
            if parent in divided:
                continue
            for s in sets_by_parent.get(parent, []):
                set_id, _, d1, d2 = s
                if not (available.get(d1) and available.get(d2)):
                    continue
                if (d1, d2) in conflict_pairs:
                    continue
                e1 = edges[set_edges[set_id][1]]
                e2 = edges[set_edges[set_id][2]]
                term_cost = edges[chain_end_term[parent]].cost
                delta = -term_cost + e1.cost + e2.cost + tail[d1] + tail[d2]
                if delta < best_div[0]:
                    best_div = (delta, s)

        best_cost = min(chain_cost, best_div[0])
        if not (best_cost < 0.0):
            break
        actions += 1
        if chain_cost <= best_div[0]:
            path = chain_path
            chosen_edges.add(enter_edge[path[0]][1])
            claim(path[0])
            prev = path[0]
            for pid in path[1:]:
                eidx = next(i for (dst, _, i) in out_moves[prev] if dst == pid)
                chosen_edges.add(eidx)
                claim(pid)
                prev = pid
            chosen_edges.add(exit_edge[prev][1])
            chain_end_term[prev] = exit_edge[prev][1]
        else:
            set_id, parent, d1, d2 = best_div[1]
            parent_term = chain_end_term.pop(parent)
            chosen_edges.discard(parent_term)
            divided.add(parent)
            chosen_edges.add(set_edges[set_id][1])
            chosen_edges.add(set_edges[set_id][2])
            walk_tail(d1)
            walk_tail(d2)

    x = np.zeros(len(props) + len(edges), dtype=np.int8)
    var = {p.id: i for i, p in enumerate(props)}  # proposal i is variable i
    for pid in used:
        x[var[pid]] = 1
    edge_x = x[len(props):]
    edge_x[list(chosen_edges)] = 1
    objective = float(sum(node_cost[pid] for pid in used)) + float(
        sum(edges[i].cost for i in chosen_edges)
    )
    return SolveResult("feasible", x, objective, None, None, actions, 0.0)


def extract_lineage(graph: TrackingGraph, x: np.ndarray) -> Lineage:
    """Turn a feasible selection into tracks with parent links."""
    edges = list(graph.edges)
    x = np.asarray(x)
    selected = {p.id for i, p in enumerate(graph.proposals) if x[i] == 1}
    edge_x = x[len(graph.proposals):]
    by_id = {p.id: p for p in graph.proposals}

    in_kind: dict[int, str] = {}
    move_next: dict[int, tuple[int, int]] = {}
    exits: set[int] = set()
    div_out: dict[int, list[int | None]] = {}  # parent pid -> [d1, d2]
    for i, e in enumerate(edges):
        if edge_x[i] != 1:
            continue
        for endpoint in (e.src, e.dst):
            if endpoint is not None and endpoint not in selected:
                raise ValueError(
                    f"selected {e.kind} edge touches unselected proposal {endpoint}"
                )
        if e.kind == "enter":
            _set_once(in_kind, e.dst, "enter")
        elif e.kind == "move":
            _set_once(in_kind, e.dst, "move")
            if e.src in move_next:
                raise ValueError(f"proposal {e.src} has two outgoing moves")
            move_next[e.src] = (e.dst, i)
        elif e.kind == "exit":
            if e.src in exits:
                raise ValueError(f"proposal {e.src} has two exit edges")
            exits.add(e.src)
        elif e.kind == "mitosis":
            _set_once(in_kind, e.dst, "mitosis")
            pair = div_out.setdefault(e.src, [None, None])
            pair[e.k - 1] = e.dst

    for pid in selected:
        if pid not in in_kind:
            raise ValueError(f"selected proposal {pid} has no incoming edge")

    daughter_parent: dict[int, int] = {}
    for parent, pair in div_out.items():
        if pair[0] is None or pair[1] is None:
            raise ValueError(f"division at {parent} is missing a daughter edge")
        for d in pair:
            daughter_parent[d] = parent

    starts = sorted(
        (by_id[pid].t, pid)
        for pid, kind in in_kind.items()
        if kind in ("enter", "mitosis")
    )
    lineage = Lineage()
    track_of_pid: dict[int, int] = {}
    for track_id, (_, start) in enumerate(starts, start=1):
        members = [start]
        cur = start
        while cur in move_next:
            cur = move_next[cur][0]
            members.append(cur)
        for pid in members:
            track_of_pid[pid] = track_id
        if cur in div_out:
            reason = "division"
        elif cur in exits:
            reason = "exit"
        else:
            raise ValueError(f"track ending at {cur} has no terminal edge")
        lineage.members[track_id] = members
        lineage.end_reason[track_id] = reason

    for track_id, (_, start) in enumerate(starts, start=1):
        members = lineage.members[track_id]
        parent_track = 0
        if start in daughter_parent:
            parent_track = track_of_pid[daughter_parent[start]]
        lineage.tracks.append(
            TrackRow(
                label=track_id,
                birth=by_id[members[0]].t,
                end=by_id[members[-1]].t,
                parent=parent_track,
            )
        )
    return lineage


def _set_once(d: dict, key, value) -> None:
    if key in d:
        raise ValueError(f"proposal {key} has more than one incoming edge")
    d[key] = value
