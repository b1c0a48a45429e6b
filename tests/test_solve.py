"""Solver tests: brute force oracle, clique rows, the HiGHS backend and its
loader, greedy, lineage."""
from __future__ import annotations

import importlib.machinery
import itertools
import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
import graph_reference
from formulate_reference import formulate_rows
from support import (
    component_instance,
    constraint_components,
    keyed_graph,
    random_graph,
    random_graph_inputs,
    random_instance,
    random_joined_graph,
    strict_gap_graph,
)

import lineage_ilp.solve as solve_mod
from lineage_ilp.config import config_from_dict
from lineage_ilp.graph import Edge, TrackingGraph, build_graph
from lineage_ilp.io import FormatError, dumps_json, validate_tracks
from lineage_ilp.pipeline import (
    build_candidate_graph,
    load_dataset,
    load_models,
    read_proposals,
    run_propose,
    run_simulate,
    run_train,
    solve_graph,
)
from lineage_ilp.solve import (
    BRUTEFORCE_MAX_VARS,
    IlpInstance,
    SolveResult,
    _maximal_cliques,
    check_solution,
    extract_lineage,
    formulate,
    instance_from_json,
    instance_to_json,
    load_instance,
    objective_value,
    save_instance,
    solve,
    solve_bruteforce,
    solve_greedy,
)


class TestConstraintValidation:
    """IlpInstance.from_rows checks every row it is given."""

    @staticmethod
    def instance(*row):
        return IlpInstance.from_rows(np.zeros(2), [row])

    def test_bad_sense(self):
        with pytest.raises(ValueError):
            self.instance((0,), (1,), ">=", 0)

    def test_bad_coeff(self):
        with pytest.raises(ValueError):
            self.instance((0, 1), (1, 2), "<=", 1)

    def test_duplicate_index(self):
        with pytest.raises(ValueError):
            self.instance((0, 0), (1, 1), "<=", 1)

    def test_empty(self):
        with pytest.raises(ValueError):
            self.instance((), (), "<=", 1)
        with pytest.raises(ValueError):
            self.instance((0, 1), (1,), "<=", 1)

    def test_instance_checks_range(self):
        with pytest.raises(ValueError):
            self.instance((5,), (1,), "<=", 1)
        with pytest.raises(ValueError):
            self.instance((-1,), (1,), "<=", 1)

    @pytest.mark.parametrize(
        "row",
        [((0,), (1,), "<=", 1.0), ((0,), (True,), "<=", 1), ((0.0,), (1,), "<=", 1)],
        ids=["float-rhs", "bool-coeff", "float-index"],
    )
    def test_non_integers_refused(self, row):
        with pytest.raises(ValueError, match="integers"):
            self.instance(*row)

    def test_rows_kept_in_order(self):
        rows = [((1, 0), (1, -1), "==", 0), ((0, 1), (1, 1), "<=", 1)]
        inst = IlpInstance.from_rows(np.zeros(2), rows)
        assert len(inst.constraints) == 2
        assert list(inst.constraints.tuples()) == [
            ([1, 0], [1, -1], "==", 0),
            ([0, 1], [1, 1], "<=", 1),
        ]


class TestBruteForce:
    def test_conflict_picks_cheaper(self):
        inst = IlpInstance.from_rows(
            np.array([-1.0, -2.0]), [((0, 1), (1, 1), "<=", 1)]
        )
        res = solve_bruteforce(inst)
        assert res.status == "optimal"
        assert res.objective == -2.0
        np.testing.assert_array_equal(res.x, [0, 1])

    def test_unconstrained_selects_negatives(self):
        inst = IlpInstance.from_rows(np.array([-1.0, 2.0, -0.5]), [])
        res = solve_bruteforce(inst)
        np.testing.assert_array_equal(res.x, [1, 0, 1])
        assert res.objective == -1.5

    def test_tie_prefers_lexicographically_smallest(self):
        inst = IlpInstance.from_rows(
            np.array([-1.0, -1.0]), [((0, 1), (1, 1), "<=", 1)]
        )
        res = solve_bruteforce(inst)
        np.testing.assert_array_equal(res.x, [1, 0])

    def test_infeasible(self):
        cons = [
            ((0,), (1,), "==", 1),
            ((1,), (1,), "==", 1),
            ((0, 1), (1, 1), "<=", 1),
        ]
        res = solve_bruteforce(IlpInstance.from_rows(np.zeros(2), cons))
        assert res.status == "infeasible"
        assert res.x is None

    def test_refuses_large_instances(self):
        with pytest.raises(ValueError):
            solve_bruteforce(IlpInstance.from_rows(np.zeros(25), []))

    def test_chunking_matches_single_pass(self):
        rng = np.random.default_rng(0)
        inst = random_instance(rng, max_vars=18)
        a = solve_bruteforce(inst, chunk_bits=7)
        b = solve_bruteforce(inst, chunk_bits=20)
        assert a.objective == b.objective
        np.testing.assert_array_equal(a.x, b.x)


class TestCheckSolution:
    def test_reports_violations(self):
        inst = IlpInstance.from_rows(
            np.zeros(2),
            [
                ((0, 1), (1, 1), "<=", 1),
                ((0, 1), (1, -1), "==", 0),
            ],
        )
        assert check_solution(inst, np.array([0, 0])) == []
        v = check_solution(inst, np.array([1, 0]))
        assert len(v) == 1 and "constraint 1" in v[0]
        v = check_solution(inst, np.array([1, 1]))
        assert len(v) == 1 and "constraint 0" in v[0]
        assert check_solution(inst, np.array([2, 0]))
        assert check_solution(inst, np.array([1]))

    def test_objective_value(self):
        inst = IlpInstance.from_rows(np.array([1.5, -2.0]), [])
        assert objective_value(inst, np.array([1, 1])) == -0.5


class TestRowsFeasible:
    """The solver's vectorised feasibility test over its sparse rows agrees
    with the independent checker."""

    def test_agrees_with_check_solution(self):
        """200 distinct instances, every other one without constraints."""
        seen = set()
        for seed in range(200):
            rng = np.random.default_rng(seed)
            inst = random_instance(rng, max_vars=12)
            if seed % 2:
                inst = IlpInstance.from_rows(inst.costs, [])
            seen.add(repr((inst.costs.tolist(), list(inst.constraints.tuples()))))
            rows = inst.constraints
            xs = [np.zeros(inst.n_vars, dtype=np.int8)]
            xs += [rng.integers(0, 2, size=inst.n_vars).astype(np.int8) for _ in range(20)]
            for x in xs:
                assert rows.feasible(x) == (check_solution(inst, x) == []), x
        assert len(seen) == 200


def brute_maximal_cliques(edges) -> list[tuple[int, ...]]:
    """Maximal cliques by testing every vertex subset of two or more."""
    adjacent = {frozenset(e) for e in edges}
    verts = sorted({v for e in edges for v in e})
    cliques = [
        s
        for k in range(2, len(verts) + 1)
        for s in itertools.combinations(verts, k)
        if all(frozenset(pair) in adjacent for pair in itertools.combinations(s, 2))
    ]
    return sorted(s for s in cliques if not any(set(s) < set(t) for t in cliques))


class TestMaximalCliques:
    def test_matches_brute_force_enumeration(self):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(0, 10))
            density = float(rng.uniform(0.0, 1.0))
            edges = [
                (i, j) for i, j in itertools.combinations(range(n), 2) if rng.random() < density
            ]
            assert _maximal_cliques(edges) == brute_maximal_cliques(edges), seed

    def test_graph_without_edges_has_no_clique(self):
        assert _maximal_cliques([]) == []


class TestCliqueRows:
    """formulate emits one <= 1 row per maximal clique of the conflict graph,
    in sorted order, and none when nothing conflicts."""

    def test_rows_are_the_maximal_conflict_cliques(self):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            g = random_graph(rng)
            # random same-frame conflicts in place of the few that overlap
            same_frame = [
                (i, j)
                for (i, a), (j, b) in itertools.combinations(enumerate(g.proposals), 2)
                if a.t == b.t
            ]
            kept = [pair for pair in same_frame if rng.random() < 0.6]
            g = replace(g, conflicts=np.array(kept, dtype=np.intp).reshape(-1, 2))
            inst, _ = formulate(g)
            rows = [c for c in inst.constraints.tuples() if c[2] == "<="]
            # proposal i is variable i
            assert [tuple(i) for i, _, _, _ in rows] == brute_maximal_cliques(kept), seed
            assert all(coeffs == [1] * len(coeffs) and rhs == 1 for _, coeffs, _, rhs in rows)

    def test_no_conflicts_no_clique_row(self):
        inst, _ = formulate(strict_gap_graph())
        assert len(inst.constraints) and inst.constraints.is_eq.all()


# Small scenes from each proposal generator.  The multi_threshold ladder is
# the one that yields conflicts; its scene is large enough that a third of
# the pair cliques left out changes the optimum.
PIPELINE_SCENES = {
    "truth": {
        "frames": 5, "width": 96, "height": 96, "initial_cells": 6,
        "corruption": {"drop_rate": 0.05, "clutter_rate": 0.1, "merge_rate": 0.05},
    },
    "multi_threshold": {"frames": 4, "width": 96, "height": 96, "initial_cells": 6},
    "log": {"frames": 4, "width": 64, "height": 64, "initial_cells": 5},
}


def pipeline_graph(generator: str, seed: int, root):
    cfg = config_from_dict(
        {"seed": seed, "proposals": {"generator": generator}, "sim": PIPELINE_SCENES[generator]}
    )
    run_simulate(cfg, root / "ds")
    run_propose(cfg, root / "ds", root / "p.jsonl")
    run_train(cfg, root / "ds", root / "p.jsonl", root / "models")
    return build_candidate_graph(
        cfg,
        load_dataset(root / "ds"),
        read_proposals(root / "p.jsonl"),
        load_models(root / "models"),
    )


class TestFormulateMatchesReference:
    """formulate writes the rows as arrays straight from the graph; the
    per-row reference gives the same costs, rows (entry by entry, in order)
    and variable map, and the instance file holds the bytes the per-row
    writer wrote."""

    @staticmethod
    def check(g: TrackingGraph) -> None:
        inst, vm = formulate(g)
        costs, rows, node_var = formulate_rows(g)
        assert vm.node_var == node_var
        assert inst.costs.tobytes() == costs.tobytes()
        assert len(inst.constraints) == len(rows)
        got = [(tuple(i), tuple(c), sense, rhs) for i, c, sense, rhs in inst.constraints.tuples()]
        assert got == rows
        per_row = {
            "schema_version": 1,
            "kind": "selection_instance",
            "costs": costs.tolist(),
            "constraints": [
                {"indices": list(i), "coeffs": list(c), "sense": sense, "rhs": rhs}
                for i, c, sense, rhs in rows
            ],
        }
        assert dumps_json(instance_to_json(inst)) == dumps_json(per_row)

    def test_generated_graphs(self):
        for seed in range(100):
            self.check(random_graph(np.random.default_rng(seed)))
            self.check(random_joined_graph(np.random.default_rng(seed))[0])
        self.check(strict_gap_graph())
        self.check(build_graph([], [], [], [], [], [], 0))

    @pytest.mark.parametrize("generator", sorted(PIPELINE_SCENES))
    def test_pipeline_graph(self, generator, tmp_path):
        self.check(pipeline_graph(generator, 0, tmp_path))


class TestSolveMatchesBruteForce:
    def test_random_instances(self):
        for seed in range(150):
            rng = np.random.default_rng(seed)
            inst = random_instance(rng, max_vars=16)
            exact = solve(inst)
            brute = solve_bruteforce(inst)
            assert exact.status == brute.status == "optimal", f"seed {seed}"
            assert exact.objective == pytest.approx(brute.objective, abs=1e-9), (
                f"seed {seed}"
            )
            assert check_solution(inst, exact.x) == []

    def test_deterministic(self):
        inst = random_instance(np.random.default_rng(77), max_vars=16)
        a = solve(inst)
        b = solve(inst)
        np.testing.assert_array_equal(a.x, b.x)
        assert a.objective == b.objective
        assert a.nodes == b.nodes

    def test_infeasible_instance(self):
        cons = [
            ((0,), (1,), "==", 1),
            ((1,), (1,), "==", 1),
            ((0, 1), (1, 1), "<=", 1),
        ]
        res = solve(IlpInstance.from_rows(np.zeros(2), cons))
        assert res.status == "infeasible"

    def test_flow_toy(self):
        # enter - node = 0 and enter - exit = 0; selecting all three is -2
        costs = np.array([-3.0, 0.5, 0.5])
        cons = [
            ((1, 0), (1, -1), "==", 0),
            ((1, 2), (1, -1), "==", 0),
        ]
        res = solve(IlpInstance.from_rows(costs, cons))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-2.0)
        np.testing.assert_array_equal(res.x, [1, 1, 1])

    def test_no_constraints_takes_negative_costs_without_search(self):
        for seed in range(20):
            costs = np.random.default_rng(seed).uniform(-2.0, 2.0, size=seed % 5 + 1)
            res = solve(IlpInstance.from_rows(costs, []), max_nodes=1)
            assert res.status == "optimal" and res.nodes == 0, seed
            np.testing.assert_array_equal(res.x, costs < 0)
            assert res.objective == pytest.approx(costs[costs < 0].sum())
            assert res.bound == pytest.approx(res.objective)

    def test_node_limit(self):
        # max_nodes is HiGHS's node limit
        for seed in range(12):
            inst = random_instance(np.random.default_rng(seed), max_vars=16)
            res = solve(inst, max_nodes=1)
            assert res.status in ("feasible", "optimal", "unknown")
            assert res.nodes <= 1, seed

    def test_time_limit_zero_returns_quickly(self):
        inst = random_instance(np.random.default_rng(13), max_vars=16)
        res = solve(inst, time_limit=0.0)
        assert res.timed_out
        if res.x is not None:
            assert check_solution(inst, res.x) == []


class TestOnRandomGraphs:
    def test_exact_greedy_and_checker(self):
        for seed in range(40):
            g = random_graph(np.random.default_rng(seed))
            inst, _ = formulate(g)
            assert inst.n_vars <= 24
            brute = solve_bruteforce(inst)
            exact = solve(inst)
            greedy = solve_greedy(g)
            assert exact.objective == pytest.approx(brute.objective, abs=1e-9), (
                f"seed {seed}"
            )
            assert check_solution(inst, exact.x) == []
            assert check_solution(inst, greedy.x) == []
            assert greedy.objective >= brute.objective - 1e-9, f"seed {seed}"


def pairwise_milp_optimum(inst: IlpInstance, graph) -> np.ndarray:
    """Optimum by scipy.optimize.milp over one row per conflicting pair and
    the equality rows of ``inst``; proposal i of the graph is variable i."""
    from scipy.optimize import Bounds, milp
    from scipy.optimize import LinearConstraint as Rows

    rows = [(i, c, rhs) for i, c, sense, rhs in inst.constraints.tuples() if sense == "=="]
    n_eq = len(rows)
    rows += [((a, b), (1, 1), 1) for a, b in graph.conflicts.tolist()]
    A = np.zeros((len(rows), inst.n_vars))
    for r, (indices, coeffs, _) in enumerate(rows):
        A[r, list(indices)] = coeffs
    upper = np.array([rhs for _, _, rhs in rows], dtype=np.float64)
    lower = np.where(np.arange(len(rows)) < n_eq, upper, -np.inf)
    res = milp(
        inst.costs,
        integrality=np.ones(inst.n_vars),
        bounds=Bounds(0.0, 1.0),
        constraints=[Rows(A, lower, upper)],
        options={"mip_rel_gap": 0.0},
    )
    assert res.status == 0, res.message
    return np.rint(res.x).astype(np.int8)


class TestDifferentialAtPipelineScale:
    """solve() against two independent references on graphs the pipeline
    builds with each proposal generator: brute force on every constraint
    component small enough for it, and scipy.optimize.milp over pairwise
    conflict rows built here instead of formulate's clique rows."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("generator", sorted(PIPELINE_SCENES))
    def test_agrees_with_bruteforce_and_pairwise_milp(self, generator, seed, tmp_path):
        g = pipeline_graph(generator, seed, tmp_path)
        inst, _ = formulate(g)
        exact = solve(inst, start=solve_greedy(g).x)
        assert exact.status == "optimal"
        assert check_solution(inst, exact.x) == []

        compared = 0
        for members in constraint_components(inst):
            if len(members) > BRUTEFORCE_MAX_VARS:
                continue
            brute = solve_bruteforce(component_instance(inst, members))
            part = float(inst.costs[members] @ exact.x[members])
            assert part == pytest.approx(brute.objective, rel=1e-9, abs=1e-12), members
            compared += 1
        assert compared > 0 or generator == "multi_threshold"

        ref = pairwise_milp_optimum(inst, g)
        assert check_solution(inst, ref) == []
        assert exact.objective == pytest.approx(objective_value(inst, ref), rel=1e-9, abs=1e-12)


class TestHighsLoader:
    """The backend loads scipy's compiled HiGHS module by file path; when
    that fails it solves through the public scipy.optimize.milp with the
    same results.  Neither path warns."""

    @staticmethod
    def force_fallback(monkeypatch):
        # with no extension suffix to try, the loader finds no module
        monkeypatch.setattr(solve_mod, "_highs_module", None)
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])

    def test_fallback_gives_the_same_results(self, monkeypatch):
        instances = [
            random_instance(np.random.default_rng(seed), max_vars=16) for seed in range(40)
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            extension = [solve(inst) for inst in instances]
            self.force_fallback(monkeypatch)
            public = [solve(inst) for inst in instances]
            timed = solve(instances[0], time_limit=1e-7)
        assert solve_mod._highs_module is False
        for seed, (a, b) in enumerate(zip(extension, public)):
            assert a.status == b.status == "optimal", seed
            assert a.objective == b.objective, seed
        assert timed.timed_out

    def test_thread_pool_of_another_size_is_reset(self):
        h = solve_mod._highs_extension()
        if h is None:
            pytest.skip("this scipy has no compiled HiGHS module")
        # HiGHS keeps one thread pool per process; start it anew with two
        # threads, as a caller with other settings would
        h._Highs.resetGlobalScheduler(True)
        highs = h._Highs()
        highs.setOptionValue("output_flag", False)
        highs.setOptionValue("threads", 2)
        lp = h.HighsLp()
        lp.num_col_ = lp.a_matrix_.num_col_ = 1
        lp.col_cost_ = np.array([-1.0])
        lp.col_lower_ = np.zeros(1)
        lp.col_upper_ = np.ones(1)
        lp.a_matrix_.start_ = np.zeros(2, dtype=np.int32)
        highs.passModel(lp)
        assert highs.run() == h.HighsStatus.kOk
        inst = random_instance(np.random.default_rng(5), max_vars=12)
        assert solve(inst).objective == solve_bruteforce(inst).objective


class TestBoundIsSound:
    """The reported bound never exceeds the objective or the true optimum,
    whether the search completes or runs out of nodes."""

    SETTINGS = ({}, {"max_nodes": 3})

    def check(self, inst, label, optimum=None):
        if optimum is None:
            optimum = solve_bruteforce(inst).objective
        for kwargs in self.SETTINGS:
            res = solve(inst, **kwargs)
            assert res.nodes <= kwargs.get("max_nodes", res.nodes), (label, kwargs)
            assert res.bound <= res.objective, (label, kwargs)
            assert res.bound <= optimum + 1e-9, (label, kwargs)
            assert res.gap == pytest.approx(res.objective - res.bound, abs=1e-12)
            if res.status == "optimal":
                assert res.objective == pytest.approx(optimum, abs=1e-9)

    def test_random_instances(self):
        for seed in range(60):
            self.check(random_instance(np.random.default_rng(seed), max_vars=12), seed)

    def test_random_graphs(self):
        # two or three graphs side by side, solved in one call: the optimum
        # is the sum of the parts' optima (six joined graphs hold about as
        # many parts to brute-force as twelve single ones)
        for seed in range(6):
            g, parts = random_joined_graph(np.random.default_rng(seed))
            inst, _ = formulate(g)
            assert len(constraint_components(inst)) >= len(parts)
            optimum = sum(solve_bruteforce(formulate(p)[0]).objective for p in parts)
            self.check(inst, seed, optimum)


class TestWarmStart:
    """The exact solver keeps a feasible warm start as a candidate incumbent
    and ignores an infeasible one; under a node or time budget the pipeline
    passes the greedy selection, so exact is never worse than greedy at any
    node budget."""

    def test_any_start_keeps_the_optimum(self):
        for seed in range(60):
            rng = np.random.default_rng(seed)
            inst = random_instance(rng, max_vars=14)
            start = rng.integers(0, 2, size=inst.n_vars)
            res = solve(inst, start=start)
            brute = solve_bruteforce(inst)
            assert res.status == "optimal", seed
            assert res.objective == pytest.approx(brute.objective, abs=1e-9), seed
            assert res.bound <= res.objective, seed

    def test_feasible_start_is_the_first_incumbent(self):
        for seed in range(30):
            inst = random_instance(np.random.default_rng(seed), max_vars=14)
            brute = solve_bruteforce(inst)
            res = solve(inst, start=brute.x, max_nodes=1)
            assert res.objective == pytest.approx(brute.objective, abs=1e-9), seed

    def test_malformed_start_is_rejected(self):
        inst = random_instance(np.random.default_rng(1), max_vars=8)
        with pytest.raises(ValueError):
            solve(inst, start=np.zeros(inst.n_vars + 1))
        with pytest.raises(ValueError):
            solve(inst, start=np.full(inst.n_vars, 2))

    def test_pipeline_exact_never_worse_than_greedy_at_one_node(self):
        cfg = config_from_dict({"solve": {"max_nodes": 1}})
        graphs = [strict_gap_graph()] + [
            random_graph(np.random.default_rng(seed)) for seed in range(20)
        ]
        for k, g in enumerate(graphs):
            exact, _ = solve_graph(cfg, g)
            greedy = solve_greedy(g)
            assert exact.objective <= greedy.objective + 1e-9, k

    def test_property_checked_bounded_and_no_worse_than_greedy(self):
        """60 distinct joined graphs, several constraint components in one
        solve, under node budgets from 1 to 200."""
        seen = set()
        for seed in range(60):
            max_nodes = 1 + seed * 67 % 200
            g, parts = random_joined_graph(np.random.default_rng(seed))
            inst, _ = formulate(g)
            seen.add(repr((inst.costs.tolist(), list(inst.constraints.tuples()))))
            assert len(constraint_components(inst)) >= len(parts)
            exact, _ = solve_graph(config_from_dict({"solve": {"max_nodes": max_nodes}}), g)
            assert check_solution(inst, exact.x) == []
            assert exact.bound <= exact.objective
            assert exact.objective <= solve_greedy(g).objective + 1e-9
            assert exact.nodes <= max_nodes
        assert len(seen) == 60


class TestWarmStartOnlyUnderBudget:
    """Without a time or node limit HiGHS runs to its proof and keeps its
    own selection on a tie, so solve_graph builds no greedy start."""

    @pytest.mark.parametrize(
        "limits, calls", [({}, 0), ({"max_nodes": 50}, 1), ({"time_limit": 60.0}, 1)]
    )
    def test_greedy_runs_only_under_a_budget(self, limits, calls, monkeypatch):
        import lineage_ilp.pipeline as pipeline_mod

        seen = []
        greedy = pipeline_mod.solve_greedy
        monkeypatch.setattr(
            pipeline_mod, "solve_greedy", lambda graph: seen.append(1) or greedy(graph)
        )
        for g in [strict_gap_graph()] + [random_graph(np.random.default_rng(s)) for s in range(5)]:
            seen.clear()
            exact, _ = solve_graph(config_from_dict({"solve": limits}), g)
            assert exact.status == "optimal"
            assert len(seen) == calls


def _fields(edges) -> list[tuple]:
    """Each edge's fields, floats as hex so that every bit counts."""
    return [(e.kind, e.src, e.dst, e.prob.hex(), e.cost.hex(), e.set_id, e.k) for e in edges]


def pipeline_graph_inputs(generator: str, seed: int, root, monkeypatch):
    """pipeline_graph's graph and the arguments its build_graph call got."""
    import lineage_ilp.pipeline as pipeline_mod

    calls = []
    build = pipeline_mod.build_graph
    monkeypatch.setattr(
        pipeline_mod, "build_graph", lambda *a, **k: calls.append((a, k)) or build(*a, **k)
    )
    g = pipeline_graph(generator, seed, root)
    monkeypatch.undo()
    return g, calls[-1]


class TestGraphArraysMatchReference:
    """The graph's edge records, the greedy selection and the lineage, read
    from the arrays, equal those of the object-walking reference: the
    edges as build_graph listed them (field by field, in order), and
    ``graph_reference.solve_greedy`` and ``extract_lineage`` over them."""

    @staticmethod
    def check_selection(g: TrackingGraph) -> None:
        inst, _ = formulate(g)
        got, want = solve_greedy(g), graph_reference.solve_greedy(g)
        np.testing.assert_array_equal(got.x, want.x)
        assert got.nodes == want.nodes
        # the reference adds the costs up in set order, the array form in one
        # dot product; both are the objective of the same x
        assert got.objective == objective_value(inst, got.x)
        assert got.objective == pytest.approx(want.objective, rel=1e-12, abs=1e-12)
        for x in (got.x, solve(inst).x):
            lin, ref = extract_lineage(g, x), graph_reference.extract_lineage(g, x)
            assert (lin.tracks, lin.members, lin.end_reason) == (ref.tracks, ref.members, ref.end_reason)

    def test_generated_graphs(self):
        for seed in range(100):
            *args, kwargs = random_graph_inputs(np.random.default_rng(seed))
            g = keyed_graph(*args, **kwargs)
            assert _fields(g.edges) == _fields(graph_reference.edge_list(*args, **kwargs)), seed
            self.check_selection(g)
            self.check_selection(random_joined_graph(np.random.default_rng(seed))[0])

    def test_strict_gap_graph(self):
        g = strict_gap_graph()
        want = [
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
        assert _fields(g.edges) == _fields(want)
        self.check_selection(g)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("generator", sorted(PIPELINE_SCENES))
    def test_pipeline_graph(self, generator, seed, tmp_path, monkeypatch):
        g, (args, kwargs) = pipeline_graph_inputs(generator, seed, tmp_path, monkeypatch)
        args, kwargs = graph_reference.id_keyed(*args, **kwargs)
        assert _fields(g.edges) == _fields(graph_reference.edge_list(*args, **kwargs))
        self.check_selection(g)


class TestSolveGraphChecksSelection:
    """solve_graph checks the selection of either backend against the
    constraints before using it, outside the test-suite audit too."""

    @pytest.mark.parametrize("backend", ["exact", "greedy"])
    def test_infeasible_selection_raises(self, backend, monkeypatch):
        import lineage_ilp.pipeline as pipeline_mod

        g = strict_gap_graph()
        everything = np.ones(formulate(g)[0].n_vars, dtype=np.int8)
        bad = SolveResult("optimal", everything, 0.0, 0.0, 0.0, 0, 0.0)
        monkeypatch.setattr(pipeline_mod, "solve", lambda instance, **kwargs: bad)
        monkeypatch.setattr(pipeline_mod, "solve_greedy", lambda graph: bad)
        with pytest.raises(RuntimeError, match="infeasible selection"):
            solve_graph(config_from_dict({"solve": {"backend": backend}}), g)


class TestStrictGapFixture:
    def test_exact_beats_greedy(self):
        g = strict_gap_graph()
        inst, _ = formulate(g)
        exact = solve(inst)
        greedy = solve_greedy(g)
        brute = solve_bruteforce(inst)
        assert brute.objective == pytest.approx(-15.7)
        assert exact.objective == pytest.approx(-15.7)
        assert greedy.objective == pytest.approx(-12.6)
        assert check_solution(inst, greedy.x) == []

    def test_lineages(self):
        g = strict_gap_graph()
        inst, _ = formulate(g)
        exact = solve(inst)
        lin = extract_lineage(g, exact.x)
        assert len(lin.tracks) == 3
        validate_tracks(lin.tracks)
        assert lin.end_reason[1] == "division"
        assert lin.members[1] == [0]
        assert {lin.tracks[1].parent, lin.tracks[2].parent} == {1}
        assert sorted([lin.members[2], lin.members[3]]) == [[1], [2]]

        greedy = solve_greedy(g)
        glin = extract_lineage(g, greedy.x)
        assert len(glin.tracks) == 2
        assert glin.members[1] == [0, 1]
        assert glin.end_reason[1] == "exit"
        assert glin.members[2] == [2]

    def test_no_division_onto_conflicting_daughters(self):
        # a division worth -20 whose daughters conflict: greedy keeps the
        # parent's track, as the exact solver does
        g = replace(
            strict_gap_graph(), node_cost=np.array([-4.0, 1.0, 1.0]), move_cost=np.array([5.0]),
            mitosis_cost=np.array([-10.0]), conflicts=np.array([[1, 2]]),
        )
        inst, _ = formulate(g)
        greedy = solve_greedy(g)
        assert check_solution(inst, greedy.x) == []
        np.testing.assert_array_equal(greedy.x, graph_reference.solve_greedy(g).x)
        assert greedy.objective == pytest.approx(solve(inst).objective) == pytest.approx(-3.8)

    def test_extract_rejects_inconsistent_selection(self):
        g = strict_gap_graph()
        inst, vm = formulate(g)
        x = np.zeros(inst.n_vars, dtype=np.int8)
        x[vm.node_var[0]] = 1  # selected proposal with no incoming edge
        with pytest.raises(ValueError):
            extract_lineage(g, x)


class TestInstanceSerialization:
    def test_roundtrip(self, tmp_path):
        inst = random_instance(np.random.default_rng(21), max_vars=12)
        obj = instance_to_json(inst)
        back = instance_from_json(obj)
        np.testing.assert_array_equal(back.costs, inst.costs)
        assert list(back.constraints.tuples()) == list(inst.constraints.tuples())
        path = tmp_path / "instance.json"
        save_instance(inst, path)
        loaded = load_instance(path)
        assert list(loaded.constraints.tuples()) == list(inst.constraints.tuples())
        np.testing.assert_array_equal(loaded.costs, inst.costs)


class TestInstanceReaderIsStrict:
    """Costs must be JSON numbers and indices, coefficients and rhs JSON
    integers; the reader refuses anything else instead of coercing it."""

    ROW = {"indices": [0, 1], "coeffs": [1, 1], "sense": "<=", "rhs": 1}

    @staticmethod
    def document(costs, row) -> str:
        return json.dumps({
            "schema_version": 1, "kind": "selection_instance", "costs": costs, "constraints": [row],
        })

    def test_well_formed_document_loads(self, tmp_path):
        path = tmp_path / "i.json"
        path.write_text(self.document([-1.0, -2], self.ROW))
        assert solve(load_instance(path)).objective == -2.0

    @pytest.mark.parametrize(
        "key, value",
        [
            ("rhs", 1.9),
            ("rhs", "1"),
            ("rhs", True),
            ("coeffs", [1, True]),
            ("indices", [0, True]),
            ("indices", [0.5, 1]),
            ("costs", ["1.5", "-2"]),
            ("costs", [True, -2.0]),
        ],
        ids=["rhs-float", "rhs-string", "rhs-bool", "coeff-bool", "index-bool", "index-float",
             "cost-strings", "cost-bool"],
    )
    def test_non_integer_or_non_number_refused(self, key, value, tmp_path):
        costs, row = [-1.0, -2.0], dict(self.ROW)
        if key == "costs":
            costs = value
        else:
            row[key] = value
        path = tmp_path / "i.json"
        path.write_text(self.document(costs, row))
        with pytest.raises(FormatError, match="malformed selection_instance"):
            load_instance(path)
