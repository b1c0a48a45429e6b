"""Solver tests: brute force oracle, branch and bound, greedy, lineage."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from support import random_graph, random_instance, random_joined_graph, strict_gap_graph

from lineage_ilp.config import config_from_dict
from lineage_ilp.io import validate_tracks
from lineage_ilp.pipeline import solve_graph
from lineage_ilp.solve import (
    IlpInstance,
    LinearConstraint,
    SolveResult,
    _DualBound,
    _Propagator,
    _Rows,
    _constraint_components,
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
    def test_bad_sense(self):
        with pytest.raises(ValueError):
            LinearConstraint((0,), (1,), ">=", 0)

    def test_bad_coeff(self):
        with pytest.raises(ValueError):
            LinearConstraint((0, 1), (1, 2), "<=", 1)

    def test_duplicate_index(self):
        with pytest.raises(ValueError):
            LinearConstraint((0, 0), (1, 1), "<=", 1)

    def test_empty(self):
        with pytest.raises(ValueError):
            LinearConstraint((), (), "<=", 1)

    def test_instance_checks_range(self):
        with pytest.raises(ValueError):
            IlpInstance(np.zeros(2), [LinearConstraint((5,), (1,), "<=", 1)])


class TestBruteForce:
    def test_conflict_picks_cheaper(self):
        inst = IlpInstance(
            np.array([-1.0, -2.0]), [LinearConstraint((0, 1), (1, 1), "<=", 1)]
        )
        res = solve_bruteforce(inst)
        assert res.status == "optimal"
        assert res.objective == -2.0
        np.testing.assert_array_equal(res.x, [0, 1])

    def test_unconstrained_selects_negatives(self):
        inst = IlpInstance(np.array([-1.0, 2.0, -0.5]), [])
        res = solve_bruteforce(inst)
        np.testing.assert_array_equal(res.x, [1, 0, 1])
        assert res.objective == -1.5

    def test_tie_prefers_lexicographically_smallest(self):
        inst = IlpInstance(
            np.array([-1.0, -1.0]), [LinearConstraint((0, 1), (1, 1), "<=", 1)]
        )
        res = solve_bruteforce(inst)
        np.testing.assert_array_equal(res.x, [1, 0])

    def test_infeasible(self):
        cons = [
            LinearConstraint((0,), (1,), "==", 1),
            LinearConstraint((1,), (1,), "==", 1),
            LinearConstraint((0, 1), (1, 1), "<=", 1),
        ]
        res = solve_bruteforce(IlpInstance(np.zeros(2), cons))
        assert res.status == "infeasible"
        assert res.x is None

    def test_refuses_large_instances(self):
        with pytest.raises(ValueError):
            solve_bruteforce(IlpInstance(np.zeros(25), []))

    def test_chunking_matches_single_pass(self):
        rng = np.random.default_rng(0)
        inst = random_instance(rng, max_vars=18)
        a = solve_bruteforce(inst, chunk_bits=7)
        b = solve_bruteforce(inst, chunk_bits=20)
        assert a.objective == b.objective
        np.testing.assert_array_equal(a.x, b.x)


class TestCheckSolution:
    def test_reports_violations(self):
        inst = IlpInstance(
            np.zeros(2),
            [
                LinearConstraint((0, 1), (1, 1), "<=", 1),
                LinearConstraint((0, 1), (1, -1), "==", 0),
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
        inst = IlpInstance(np.array([1.5, -2.0]), [])
        assert objective_value(inst, np.array([1, 1])) == -0.5


class TestPropagation:
    def test_equality_forces_remaining(self):
        cons = [LinearConstraint((0, 1, 2), (1, 1, -1), "==", 0)]
        prop = _Propagator(_Rows.build(cons, 3))
        fixed = np.array([0, -1, 1], dtype=np.int8)
        assert prop.run(fixed, [0])
        assert fixed[1] == 1

    def test_conflict_pair_propagates(self):
        cons = [LinearConstraint((0, 1), (1, 1), "<=", 1)]
        prop = _Propagator(_Rows.build(cons, 2))
        fixed = np.array([1, -1], dtype=np.int8)
        assert prop.run(fixed, [0])
        assert fixed[1] == 0

    def test_detects_infeasible(self):
        cons = [LinearConstraint((0, 1), (1, 1), "<=", 1)]
        prop = _Propagator(_Rows.build(cons, 2))
        fixed = np.array([1, 1], dtype=np.int8)
        assert not prop.run(fixed, [0])

    def test_chain_reaction(self):
        cons = [
            LinearConstraint((0, 1), (1, -1), "==", 0),
            LinearConstraint((1, 2), (1, -1), "==", 0),
        ]
        prop = _Propagator(_Rows.build(cons, 3))
        fixed = np.array([1, -1, -1], dtype=np.int8)
        assert prop.run(fixed, [0])
        np.testing.assert_array_equal(fixed, [1, 1, 1])


class TestRowsFeasible:
    """The solver's vectorised feasibility test over its sparse rows agrees
    with the independent checker."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), constrained=st.booleans())
    def test_agrees_with_check_solution(self, seed, constrained):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, max_vars=12)
        if not constrained:
            inst = IlpInstance(inst.costs, [])
        rows = _Rows.build(inst.constraints, inst.n_vars)
        xs = [np.zeros(inst.n_vars, dtype=np.int8)]
        xs += [rng.integers(0, 2, size=inst.n_vars).astype(np.int8) for _ in range(20)]
        for x in xs:
            assert rows.feasible(x) == (check_solution(inst, x) == []), x


class TestDualBound:
    def test_sound_against_bruteforce(self):
        for seed in range(60):
            rng = np.random.default_rng(seed)
            inst = random_instance(rng, max_vars=14)
            n = inst.n_vars
            rows = _Rows.build(inst.constraints, n)
            bounder = _DualBound(rows, inst.costs, 0.0)  # all zeros is feasible
            prop = _Propagator(rows)
            fixed = np.full(n, -1, dtype=np.int8)
            for v in rng.choice(n, size=rng.integers(0, n // 2 + 1), replace=False):
                fixed[v] = rng.integers(0, 2)
            if not prop.run(fixed, range(len(prop.idx))):
                continue
            bound = bounder.bound(fixed)
            best = _restricted_optimum(inst, fixed)
            if best is None:
                continue
            assert bound <= best + 1e-9, f"seed {seed}: bound {bound} > best {best}"

    def test_dominates_flat_bound_on_tracking_instance(self):
        g = random_graph(np.random.default_rng(3))
        inst, _ = formulate(g)
        bounder = _DualBound(_Rows.build(inst.constraints, inst.n_vars), inst.costs, 0.0)
        root = np.full(inst.n_vars, -1, dtype=np.int8)
        flat = float(np.minimum(inst.costs, 0.0).sum())
        assert bounder.bound(root) >= flat - 1e-12


def _restricted_optimum(inst: IlpInstance, fixed: np.ndarray) -> float | None:
    """Brute-force optimum among completions of a partial assignment."""
    n = inst.n_vars
    best = None
    for code in range(1 << n):
        x = np.array([(code >> k) & 1 for k in range(n)], dtype=np.int8)
        if ((fixed != -1) & (x != fixed)).any():
            continue
        if check_solution(inst, x):
            continue
        val = objective_value(inst, x)
        if best is None or val < best:
            best = val
    return best


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
            LinearConstraint((0,), (1,), "==", 1),
            LinearConstraint((1,), (1,), "==", 1),
            LinearConstraint((0, 1), (1, 1), "<=", 1),
        ]
        res = solve(IlpInstance(np.zeros(2), cons))
        assert res.status == "infeasible"

    def test_flow_toy(self):
        # enter - node = 0 and enter - exit = 0; selecting all three is -2
        costs = np.array([-3.0, 0.5, 0.5])
        cons = [
            LinearConstraint((1, 0), (1, -1), "==", 0),
            LinearConstraint((1, 2), (1, -1), "==", 0),
        ]
        res = solve(IlpInstance(costs, cons))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-2.0)
        np.testing.assert_array_equal(res.x, [1, 1, 1])

    def test_no_constraints_takes_negative_costs_without_search(self):
        for seed in range(20):
            costs = np.random.default_rng(seed).uniform(-2.0, 2.0, size=seed % 5 + 1)
            res = solve(IlpInstance(costs, []), max_nodes=1)
            assert res.status == "optimal" and res.nodes == 0, seed
            np.testing.assert_array_equal(res.x, costs < 0)
            assert res.objective == pytest.approx(costs[costs < 0].sum())
            assert res.bound == pytest.approx(res.objective)

    def test_node_limit(self):
        # the budget caps the nodes summed over every component
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
            inst, vm = formulate(g)
            assert inst.n_vars <= 24
            brute = solve_bruteforce(inst)
            exact = solve(inst)
            greedy = solve_greedy(g, vm)
            assert exact.objective == pytest.approx(brute.objective, abs=1e-9), (
                f"seed {seed}"
            )
            assert check_solution(inst, exact.x) == []
            assert check_solution(inst, greedy.x) == []
            assert greedy.objective >= brute.objective - 1e-9, f"seed {seed}"


def components(inst: IlpInstance) -> int:
    return len(np.unique(_constraint_components(_Rows.build(inst.constraints, inst.n_vars))))


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
        # two or three graphs side by side: the budget and the bound are
        # split over the components, and the optimum is the sum of the
        # parts' optima (six joined graphs hold about as many parts to
        # brute-force as twelve single ones)
        for seed in range(6):
            g, parts = random_joined_graph(np.random.default_rng(seed))
            inst, _ = formulate(g)
            assert components(inst) >= len(parts)
            optimum = sum(solve_bruteforce(formulate(p)[0]).objective for p in parts)
            self.check(inst, seed, optimum)


class TestWarmStart:
    """The exact solver takes a warm start as its first incumbent when it is
    feasible and ignores it otherwise; the pipeline passes the greedy
    selection, so exact is never worse than greedy at any node budget."""

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
            greedy = solve_greedy(g, formulate(g)[1])
            assert exact.objective <= greedy.objective + 1e-9, k

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), max_nodes=st.integers(1, 200))
    def test_property_checked_bounded_and_no_worse_than_greedy(self, seed, max_nodes):
        # joined graphs, so the warm start and the node budget are split
        # over several components
        g, parts = random_joined_graph(np.random.default_rng(seed))
        inst, vm = formulate(g)
        assert components(inst) >= len(parts)
        exact, _ = solve_graph(config_from_dict({"solve": {"max_nodes": max_nodes}}), g)
        assert check_solution(inst, exact.x) == []
        assert exact.bound <= exact.objective
        assert exact.objective <= solve_greedy(g, vm).objective + 1e-9
        assert exact.nodes <= max_nodes


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
        monkeypatch.setattr(pipeline_mod, "solve_greedy", lambda graph, varmap: bad)
        with pytest.raises(RuntimeError, match="infeasible selection"):
            solve_graph(config_from_dict({"solve": {"backend": backend}}), g)


class TestStrictGapFixture:
    def test_exact_beats_greedy(self):
        g = strict_gap_graph()
        inst, vm = formulate(g)
        exact = solve(inst)
        greedy = solve_greedy(g, vm)
        brute = solve_bruteforce(inst)
        assert brute.objective == pytest.approx(-15.7)
        assert exact.objective == pytest.approx(-15.7)
        assert greedy.objective == pytest.approx(-12.6)
        assert check_solution(inst, greedy.x) == []

    def test_lineages(self):
        g = strict_gap_graph()
        inst, vm = formulate(g)
        exact = solve(inst)
        lin = extract_lineage(g, vm, exact.x)
        assert len(lin.tracks) == 3
        validate_tracks(lin.tracks)
        assert lin.end_reason[1] == "division"
        assert lin.members[1] == [0]
        assert {lin.tracks[1].parent, lin.tracks[2].parent} == {1}
        assert sorted([lin.members[2], lin.members[3]]) == [[1], [2]]

        greedy = solve_greedy(g, vm)
        glin = extract_lineage(g, vm, greedy.x)
        assert len(glin.tracks) == 2
        assert glin.members[1] == [0, 1]
        assert glin.end_reason[1] == "exit"
        assert glin.members[2] == [2]

    def test_extract_rejects_inconsistent_selection(self):
        g = strict_gap_graph()
        inst, vm = formulate(g)
        x = np.zeros(inst.n_vars, dtype=np.int8)
        x[vm.node_var[0]] = 1  # selected proposal with no incoming edge
        with pytest.raises(ValueError):
            extract_lineage(g, vm, x)


class TestInstanceSerialization:
    def test_roundtrip(self, tmp_path):
        inst = random_instance(np.random.default_rng(21), max_vars=12)
        obj = instance_to_json(inst)
        back = instance_from_json(obj)
        np.testing.assert_array_equal(back.costs, inst.costs)
        assert back.constraints == inst.constraints
        path = tmp_path / "instance.json"
        save_instance(inst, path)
        loaded = load_instance(path)
        assert loaded.constraints == inst.constraints
        np.testing.assert_array_equal(loaded.costs, inst.costs)
