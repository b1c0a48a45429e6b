"""The selection problem built one row at a time: a reference for
``solve.formulate`` and the rows it writes as arrays.

Rows are (indices, coeffs, sense, rhs) tuples.  The maximal cliques come
from ``solve._maximal_cliques``, which ``TestMaximalCliques`` checks against
a brute-force enumeration.
"""
from __future__ import annotations

import numpy as np

from lineage_ilp.graph import TrackingGraph
from lineage_ilp.solve import _maximal_cliques


def formulate_rows(graph: TrackingGraph) -> tuple[np.ndarray, list[tuple], dict[int, int]]:
    """Costs, rows and the proposal-to-variable map of the graph's
    selection problem: clique rows, then one explanation row per proposal,
    one flow row per proposal, and one row per division set."""
    node_var = {p.id: i for i, p in enumerate(graph.proposals)}
    n_props = len(graph.proposals)
    edge_var = [n_props + i for i in range(len(graph.edges))]

    in_vars: dict[int, list[int]] = {pid: [] for pid in node_var}
    out_vars: dict[int, list[int]] = {pid: [] for pid in node_var}
    for i, e in enumerate(graph.edges):
        v = edge_var[i]
        if e.kind == "enter":
            in_vars[e.dst].append(v)
        elif e.kind == "move":
            in_vars[e.dst].append(v)
            out_vars[e.src].append(v)
        elif e.kind == "exit":
            out_vars[e.src].append(v)
        elif e.kind == "mitosis":
            in_vars[e.dst].append(v)
            if e.k == 1:  # the second daughter edge does not count as outflow
                out_vars[e.src].append(v)
        else:
            raise ValueError(f"unknown edge kind {e.kind!r}")

    rows = [
        (clique, (1,) * len(clique), "<=", 1)
        for clique in _maximal_cliques((node_var[a], node_var[b]) for a, b in graph.conflicts)
    ]
    for p in graph.proposals:
        ins = in_vars[p.id]
        rows.append((tuple(ins) + (node_var[p.id],), (1,) * len(ins) + (-1,), "==", 0))
    for p in graph.proposals:
        ins, outs = in_vars[p.id], out_vars[p.id]
        rows.append((tuple(ins) + tuple(outs), (1,) * len(ins) + (-1,) * len(outs), "==", 0))
    set_edges: dict[int, dict[int, int]] = {}
    for i, e in enumerate(graph.edges):
        if e.kind == "mitosis":
            set_edges.setdefault(e.set_id, {})[e.k] = edge_var[i]
    for set_id in sorted(set_edges):
        pair = set_edges[set_id]
        rows.append(((pair[1], pair[2]), (1, -1), "==", 0))

    costs = np.zeros(n_props + len(graph.edges))
    for p in graph.proposals:
        costs[node_var[p.id]] = graph.node_cost[p.id]
    for i, e in enumerate(graph.edges):
        costs[edge_var[i]] = e.cost
    return costs, rows, node_var
