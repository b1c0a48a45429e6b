"""The benchmark's tracer wraps package functions by module attribute
(``bench/spans.py``, ``WRAPPED``), counts what they return, and its
correctness gate (``bench/workloads.py``, ``check_op``) re-formulates each
graph; a renamed or removed function or attribute must fail here rather
than only in a bench run."""
import importlib.util
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from support import random_graph

from lineage_ilp.solve import formulate, solve

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")


@pytest.fixture
def bench_module(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched

    def load(name: str):
        path = os.path.join(BENCH, f"{name}.py")
        spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
        spec.loader.exec_module(module)
        return module

    return load


def test_every_wrapped_binding_resolves(bench_module):
    spans = bench_module("spans")
    assert len(spans.WRAPPED) > 0
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _name, _count in spans.WRAPPED
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []


def test_counters_read_the_graph_and_the_instance(bench_module):
    spans = bench_module("spans")
    g = random_graph(np.random.default_rng(0))
    tr = spans.Tracer()
    tr.op = 0
    tr._stack.append(spans.Span(0, -1, 0, "pipeline.graph", 0.0))  # as inside build_candidate_graph
    spans._count_graph(tr, g, ())
    spans._count_formulate(tr, formulate(g), ())
    counts = tr.counts[0]
    inst, _ = formulate(g)
    assert counts["graph.edges"] == len(g.edges)
    assert counts["solve.n_vars"] == inst.n_vars == len(g.proposals) + len(g.edges)
    assert counts["solve.n_constraints"] == len(list(inst.constraints.tuples())) > 0


def test_correctness_gate_checks_a_selection(bench_module):
    workloads = bench_module("workloads")
    g = random_graph(np.random.default_rng(0))
    result = solve(formulate(g)[0])
    report = SimpleNamespace(tra=SimpleNamespace(tra=0.5), seg=0.5)
    out = workloads.OpOutput(report=report, track=SimpleNamespace(result=result, graph=g))
    assert workloads.check_op(out) == []
    result.x = np.ones_like(result.x)  # every proposal and edge: infeasible
    assert workloads.check_op(out)
