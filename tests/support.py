"""Shared generators for solver tests: random instances, random small graphs
(alone or joined side by side), the pinned fixture where the greedy
heuristic strictly trails the exact solver, and the split of an instance
into its constraint components; and the conversion of candidates named by
proposal id into the positions the package takes."""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from lineage_ilp.geometry import Mask
from lineage_ilp.graph import (
    TrackingGraph,
    build_graph,
    enumerate_mitoses,
    enumerate_moves,
)
from lineage_ilp.proposals import Proposal
from lineage_ilp.solve import IlpInstance


def random_instance(rng: np.random.Generator, max_vars: int = 20) -> IlpInstance:
    """Random selection problem; the all-zeros point is always feasible."""
    n = int(rng.integers(4, max_vars + 1))
    costs = rng.uniform(-2.0, 2.0, size=n)
    cons: list[tuple] = []  # (indices, coeffs, sense, rhs) per row
    for _ in range(int(rng.integers(0, n))):
        i, j = rng.choice(n, size=2, replace=False)
        cons.append(((int(min(i, j)), int(max(i, j))), (1, 1), "<=", 1))
    for _ in range(int(rng.integers(0, max(2, n // 3)))):
        size = int(rng.integers(1, 4))
        chosen = rng.choice(n, size=size + 1, replace=False)
        members, target = chosen[:-1], int(chosen[-1])
        cons.append((tuple(int(v) for v in members) + (target,), (1,) * size + (-1,), "==", 0))
    for _ in range(int(rng.integers(0, 3))):
        k = int(rng.integers(2, 5))
        chosen = rng.choice(n, size=k, replace=False)
        split = int(rng.integers(1, k))
        cons.append(
            (tuple(int(v) for v in chosen), (1,) * split + (-1,) * (k - split), "==", 0)
        )
    return IlpInstance.from_rows(costs, cons)


def constraint_components(instance: IlpInstance) -> list[list[int]]:
    """The variables of each connected component of the variable-constraint
    graph, ascending, in order of their smallest variable; a variable in no
    constraint is a component of its own."""
    parent = list(range(instance.n_vars))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for indices, _, _, _ in instance.constraints.tuples():
        root = find(indices[0])
        for i in indices[1:]:
            parent[find(i)] = root
    groups: dict[int, list[int]] = {}
    for i in range(instance.n_vars):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values())


def component_instance(instance: IlpInstance, members: list[int]) -> IlpInstance:
    """The costs and constraints of one constraint component, its variables
    renumbered in the order of ``members``."""
    pos = {v: k for k, v in enumerate(members)}
    cons = [
        ([pos[i] for i in indices], coeffs, sense, rhs)
        for indices, coeffs, sense, rhs in instance.constraints.tuples()
        if indices[0] in pos
    ]
    return IlpInstance.from_rows(instance.costs[members], cons)


def positions(props: list[Proposal], keys) -> np.ndarray:
    """Each of ``keys``, a tuple of proposal ids, as the positions of those
    proposals in ``props``: one row per key, in key order."""
    at = {p.id: k for k, p in enumerate(props)}
    return np.array([[at[pid] for pid in key] for key in keys], dtype=np.intp)


def keyed_graph(props_by_frame, node_probs, move_probs, mitosis_probs, **kwargs) -> TrackingGraph:
    """``build_graph`` over the frames' proposals in (t, id) order, with
    probabilities keyed by proposal id, moves by (source id, destination id)
    and division sets by (parent id, d1 id, d2 id)."""
    props = sorted((p for frame in props_by_frame for p in frame), key=lambda p: (p.t, p.id))
    return build_graph(
        props, [node_probs[p.id] for p in props],
        positions(props, move_probs), list(move_probs.values()),
        positions(props, mitosis_probs), list(mitosis_probs.values()),
        len(props_by_frame), **kwargs,
    )


def _square(pid: int, t: int, x: int, y: int, size: int) -> Proposal:
    return Proposal(
        id=pid, t=t, mask=Mask(x, y, np.ones((size, size), bool)), raw_score=0.5
    )


def random_graph_inputs(rng: np.random.Generator) -> tuple[list, dict, dict, dict, dict]:
    """``keyed_graph``'s arguments for a small two-frame graph whose
    instance stays within brute-force range: the frames, the node, move and
    division probabilities keyed by id, and the keyword arguments."""
    shapes = [(2, 2), (1, 3), (3, 1), (2, 1)]
    n0, n1 = shapes[int(rng.integers(0, len(shapes)))]
    frames: list[list[Proposal]] = [[], []]
    pid = 0
    for t, count in ((0, n0), (1, n1)):
        for _ in range(count):
            x = int(rng.integers(0, 25))
            y = int(rng.integers(0, 25))
            size = int(rng.integers(1, 4))
            frames[t].append(_square(pid, t, x, y, size))
            pid += 1
    node_probs = {p.id: float(rng.uniform(0.05, 0.95)) for f in frames for p in f}
    ids = [p.id for f in frames for p in f]
    moves = enumerate_moves(frames, gating_radius=100.0)
    move_probs = {
        (ids[a], ids[b]): float(rng.uniform(0.05, 0.95)) for a, b in moves.tolist()
    }
    triples = enumerate_mitoses(frames, mitosis_radius=100.0, n_neighbors=3)
    mitosis_probs = {
        (ids[p], ids[a], ids[b]): float(rng.uniform(0.05, 0.95)) for p, a, b in triples.tolist()
    }
    kwargs = {"p_enter": float(rng.uniform(0.05, 0.5)), "p_exit": float(rng.uniform(0.05, 0.5))}
    return frames, node_probs, move_probs, mitosis_probs, kwargs


def random_graph(rng: np.random.Generator) -> TrackingGraph:
    """Small two-frame graph whose instance stays within brute-force range."""
    *args, kwargs = random_graph_inputs(rng)
    return keyed_graph(*args, **kwargs)


def join_graphs(graphs: list[TrackingGraph]) -> TrackingGraph:
    """The disjoint union of ``graphs``: proposal ids of each graph are
    offset past those of the graphs before it, and no edge or conflict joins
    two of them, so the instance splits into at least one constraint
    component per graph."""
    props: list[Proposal] = []
    starts = []  # each graph's first proposal in props
    for g in graphs:
        id_off = max(p.id for p in props) + 1 if props else 0
        starts.append(len(props))
        props += [replace(p, id=p.id + id_off) for p in g.proposals]
    # the union in (t, id) order; ids grow from graph to graph, so the moves,
    # division sets and conflicts stay in id order when stacked
    order = sorted(range(len(props)), key=lambda i: (props[i].t, props[i].id))
    moved_to = np.argsort(order)

    def stacked(name: str) -> np.ndarray:
        return np.concatenate([getattr(g, name) for g in graphs])

    def linked(name: str) -> np.ndarray:
        return moved_to[np.concatenate([getattr(g, name) + s for g, s in zip(graphs, starts)])]

    per_proposal = {
        f"{kind}_{what}": stacked(f"{kind}_{what}")[order]
        for kind in ("node", "enter", "exit") for what in ("prob", "cost")
    }
    return TrackingGraph(
        proposals=[props[i] for i in order],
        **per_proposal,
        moves=linked("moves"), move_prob=stacked("move_prob"), move_cost=stacked("move_cost"),
        mitosis_sets=linked("mitosis_sets"), mitosis_prob=stacked("mitosis_prob"),
        mitosis_cost=stacked("mitosis_cost"),
        conflicts=linked("conflicts"),
        n_frames=max(g.n_frames for g in graphs),
    )


def random_joined_graph(rng: np.random.Generator) -> tuple[TrackingGraph, list[TrackingGraph]]:
    """Two or three ``random_graph``s joined, and the parts."""
    parts = [random_graph(rng) for _ in range(int(rng.integers(2, 4)))]
    return join_graphs(parts), parts


def strict_gap_graph() -> TrackingGraph:
    """One parent, two daughters.  The greedy pass commits the parent to the
    cheap move chain and can never recover the division, which the exact
    solver prefers: greedy lands at -12.6, the optimum is -15.7."""
    p = _square(0, 0, 5, 5, 1)
    d1 = _square(1, 1, 3, 8, 1)
    d2 = _square(2, 1, 8, 8, 1)
    g = build_graph(
        [p, d1, d2], np.full(3, 0.5), [[0, 1]], [0.5], [[0, 1, 2]], [0.5], 2, p_enter=0.5, p_exit=0.5,
    )
    # costs set by hand, not the log odds of the probabilities
    return replace(
        g, node_cost=np.full(3, -4.0), enter_cost=np.full(3, 0.1), exit_cost=np.full(3, 0.1),
        move_cost=np.array([-1.0]), mitosis_cost=np.array([-2.0]),
    )
