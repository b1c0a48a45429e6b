"""Shared generators for solver tests: random instances, random small graphs
(alone or joined side by side), the pinned fixture where the greedy
heuristic strictly trails the exact solver, and the split of an instance
into its constraint components."""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from lineage_ilp.geometry import Mask
from lineage_ilp.graph import (
    Edge,
    MitosisSet,
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


def _square(pid: int, t: int, x: int, y: int, size: int) -> Proposal:
    return Proposal(
        id=pid, t=t, mask=Mask(x, y, np.ones((size, size), bool)), raw_score=0.5
    )


def random_graph(rng: np.random.Generator) -> TrackingGraph:
    """Small two-frame graph whose instance stays within brute-force range."""
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
    moves = enumerate_moves(frames, gating_radius=100.0)
    move_probs = {
        (a.id, b.id): float(rng.uniform(0.05, 0.95)) for a, b in moves
    }
    triples = enumerate_mitoses(frames, mitosis_radius=100.0, n_neighbors=3)
    mitosis_probs = {
        (p.id, a.id, b.id): float(rng.uniform(0.05, 0.95)) for p, a, b in triples
    }
    return build_graph(
        frames,
        node_probs,
        move_probs,
        mitosis_probs,
        p_enter=float(rng.uniform(0.05, 0.5)),
        p_exit=float(rng.uniform(0.05, 0.5)),
    )


def join_graphs(graphs: list[TrackingGraph]) -> TrackingGraph:
    """The disjoint union of ``graphs``: proposal ids and division set ids of
    each graph are offset past those of the graphs before it, and no edge or
    conflict joins two of them, so the instance splits into at least one
    constraint component per graph."""
    joined = TrackingGraph([], {}, {}, [], [], [], 0)
    id_off = set_off = 0

    def shift(pid):
        return None if pid is None else pid + id_off

    for g in graphs:
        joined.proposals += [replace(p, id=p.id + id_off) for p in g.proposals]
        joined.node_prob.update({pid + id_off: v for pid, v in g.node_prob.items()})
        joined.node_cost.update({pid + id_off: v for pid, v in g.node_cost.items()})
        joined.edges += [
            replace(
                e, src=shift(e.src), dst=shift(e.dst),
                set_id=e.set_id + set_off if e.set_id >= 0 else e.set_id,
            )
            for e in g.edges
        ]
        joined.conflicts += [(a + id_off, b + id_off) for a, b in g.conflicts]
        joined.mitosis_sets += [
            MitosisSet(m.set_id + set_off, m.parent + id_off, m.d1 + id_off, m.d2 + id_off, m.prob)
            for m in g.mitosis_sets
        ]
        joined.n_frames = max(joined.n_frames, g.n_frames)
        id_off += max(p.id for p in g.proposals) + 1
        set_off += len(g.mitosis_sets)
    return joined


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
    edges = [
        Edge("enter", None, 0, 0.5, 0.1),
        Edge("enter", None, 1, 0.5, 0.1),
        Edge("enter", None, 2, 0.5, 0.1),
        Edge("move", 0, 1, 0.5, -1.0),
        Edge("exit", 0, None, 0.5, 0.1),
        Edge("exit", 1, None, 0.5, 0.1),
        Edge("exit", 2, None, 0.5, 0.1),
        Edge("mitosis", 0, 1, 0.5, -2.0, set_id=0, k=1),
        Edge("mitosis", 0, 2, 0.5, -2.0, set_id=0, k=2),
    ]
    return TrackingGraph(
        proposals=[p, d1, d2],
        node_prob={0: 0.5, 1: 0.5, 2: 0.5},
        node_cost={0: -4.0, 1: -4.0, 2: -4.0},
        edges=edges,
        conflicts=[],
        mitosis_sets=[MitosisSet(0, 0, 1, 2, 0.5)],
        n_frames=2,
    )
