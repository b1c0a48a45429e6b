"""Why an exact solver earns its keep against the greedy heuristic.

Part 1 replays a three-proposal toy problem where committing to the cheapest
edge first walks the greedy pass straight past the optimum: it links the
parent to one daughter and pays an enter for the other, while the exact
search takes the division.

Part 2 runs both backends on the same corrupted simulation and compares
objectives and tracking scores.

    python demos/exact_vs_greedy.py
"""
import tempfile
from dataclasses import replace

import numpy as np

from lineage_ilp.config import config_from_dict
from lineage_ilp.geometry import Mask
from lineage_ilp.graph import TrackingGraph, build_graph
from lineage_ilp.pipeline import run_e2e
from lineage_ilp.proposals import Proposal
from lineage_ilp.solve import extract_lineage, formulate, solve, solve_greedy


def toy_graph() -> TrackingGraph:
    """One bright parent in frame 0, two candidate daughters in frame 1."""
    dot = np.ones((1, 1), bool)
    props = [
        Proposal(id=0, t=0, mask=Mask(5, 5, dot), raw_score=0.9),
        Proposal(id=1, t=1, mask=Mask(3, 8, dot), raw_score=0.9),
        Proposal(id=2, t=1, mask=Mask(8, 8, dot), raw_score=0.9),
    ]
    graph = build_graph(
        [props[:1], props[1:]], dict.fromkeys(range(3), 0.5), {(0, 1): 0.5}, {(0, 1, 2): 0.5},
        p_enter=0.5, p_exit=0.5,
    )
    # the costs are set by hand: the graph holds them as plain arrays
    return replace(
        graph, node_cost=np.full(3, -4.0), enter_cost=np.full(3, 0.1), exit_cost=np.full(3, 0.1),
        move_cost=np.array([-1.0]), mitosis_cost=np.array([-2.0]),  # -2.0 on each division edge
    )


def describe(name: str, graph: TrackingGraph, result, varmap) -> None:
    lineage = extract_lineage(graph, varmap, result.x)
    edge_x = result.x[len(graph.proposals):]
    chosen = [
        f"{e.kind}({e.src}->{e.dst})" for e, on in zip(graph.edges, edge_x) if on == 1
    ]
    print(f"  {name}: objective {result.objective:.1f}")
    print(f"    edges: {', '.join(chosen)}")
    for row in lineage.tracks:
        members = lineage.members[row.label]
        parent = f" parent {row.parent}" if row.parent else ""
        print(f"    track {row.label}: proposals {members}{parent}")


def main() -> None:
    print("Part 1: the pinned toy fixture")
    graph = toy_graph()
    instance, varmap = formulate(graph)
    describe("exact ", graph, solve(instance), varmap)
    describe("greedy", graph, solve_greedy(graph, varmap), varmap)
    print("  The move at -1.0 is the single cheapest extension, so the greedy")
    print("  pass grabs it and the division (two edges, -2.0 each) is gone.")
    print()

    print("Part 2: a corrupted 30-frame simulation, both backends")
    doc = {
        "seed": 8,
        "proposals": {"generator": "truth"},
        "sim": {
            "frames": 30,
            "width": 160,
            "height": 160,
            "initial_cells": 10,
            "division_rate": 0.02,
            "enter_rate": 0.1,
            "motion_sigma": 1.5,
            "corruption": {"drop_rate": 0.05, "clutter_rate": 0.05, "merge_rate": 0.03},
        },
    }
    for backend in ("exact", "greedy"):
        cfg = config_from_dict({**doc, "solve": {"backend": backend}})
        with tempfile.TemporaryDirectory() as tmp:
            report = run_e2e(cfg, tmp)
        t = report.tra
        print(
            f"  {backend:6s}: TRA {t.tra:.4f}"
            f"  (fn={t.fn} fp={t.fp} ns={t.ns} ea={t.ea} ec={t.ec} ed2={t.ed2})"
            f"  division F1 {report.division_f1:.2f}"
        )
    print("  Same proposals, same classifiers, same graph; only the solver differs.")
    print("  The toy pattern recurs at scale: greedy trades divisions for moves.")


if __name__ == "__main__":
    main()
