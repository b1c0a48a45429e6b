"""The benchmark's tracer wraps package functions by module attribute
(``bench/spans.py``, ``WRAPPED``), counts what they return, and its
correctness gate (``bench/workloads.py``, ``check_op``) re-formulates each
graph; a renamed or removed function or attribute must fail here rather
than only in a bench run."""
import importlib.util
import os
import sys
from types import SimpleNamespace

import graph_reference
import numpy as np
import pytest
from support import random_graph

from lineage_ilp.classify import TrainingSet, label_mitosis_sets
from lineage_ilp.config import config_from_dict
from lineage_ilp.evaluate import captured_markers
from lineage_ilp.features import proposal_feature_matrix
from lineage_ilp.graph import enumerate_mitoses, enumerate_moves
from lineage_ilp.io import read_proposals
from lineage_ilp.pipeline import run_e2e
from lineage_ilp.proposals import Proposal
from lineage_ilp.sim import SimConfig, ideal_proposals, simulate
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


def test_counters_read_candidate_positions(bench_module):
    """The counters of the candidate stages read what those stages return
    now that candidates are positions: pairs and triples as (m, 2) and
    (s, 3) arrays, division positives of the training set, and the rows of
    the feature matrix, the fit and the prediction.  Each count equals the
    one the object form gives."""
    spans = bench_module("spans")
    res = simulate(SimConfig(frames=6, width=96, height=96, initial_cells=6, division_rate=0.3), 3)
    frames = [
        [Proposal(id=1000 * t + k, t=t, mask=mask, raw_score=0.9) for k, (_, mask) in enumerate(regions)]
        for t, regions in enumerate(ideal_proposals(res.gt))
    ]
    props = [p for frame in frames for p in frame]
    moves, sets = enumerate_moves(frames, 20.0), enumerate_mitoses(frames, 20.0)
    feats = proposal_feature_matrix(props, res.frames)
    tset = label_mitosis_sets(captured_markers(props, res.gt), sets, props, res.gt, np.zeros((len(sets), 1)))
    # positives the object form counts: triples whose markers form a recorded division
    captured = dict(zip([p.id for p in props], captured_markers(props, res.gt)))
    divisions = {(parent, t): {c1, c2} for parent, c1, c2, t in res.gt.divisions()}
    positives = sum(
        divisions.get((captured[p.id], p.t)) == {captured[d1.id], captured[d2.id]} and captured[p.id] is not None
        for p, d1, d2 in graph_reference.enumerate_mitoses(frames, 20.0)
    )
    assert positives > 0

    tr = spans.Tracer()
    tr.op = 0
    tr._stack.append(spans.Span(0, -1, 0, "pipeline.graph", 0.0))  # as inside build_candidate_graph
    spans._count_pairs(tr, moves, ())
    spans._count_triples(tr, sets, ())
    spans._count_mitosis_labels(tr, tset, ())
    lambdas = {name: count for _, _, name, count in spans.WRAPPED if count is not None}
    lambdas["features.proposal"](tr, feats, (props,))
    lambdas["classify.fit"](tr, None, (TrainingSet(feats, np.zeros(len(feats))),))
    lambdas["classify.predict"](tr, None, (None, feats))
    assert tr.counts[0] == {
        "graph.move_pairs": len(graph_reference.enumerate_moves(frames, 20.0)),
        "graph.mitosis_triples": len(graph_reference.enumerate_mitoses(frames, 20.0)),
        "classify.division_positives": positives,
        "features.vectors": len(props),
        "classify.fit_samples": len(props),
        "classify.predict_rows": len(props),
    }


def test_tracer_sees_the_feature_layer(bench_module, tmp_path):
    """The pipeline calls the feature matrices through the names the tracer
    wraps: a tiny e2e run records the three feature spans and one proposal
    vector per proposal.  A call that went round those names would leave the
    ``features.*`` numbers at zero."""
    spans = bench_module("spans")
    cfg = config_from_dict({"seed": 2, "sim": {"frames": 4, "width": 64, "height": 64, "initial_cells": 4}})
    tr = spans.Tracer()
    with tr.installed(0):
        run_e2e(cfg, tmp_path)
    names = {s.name for s in tr.op_spans(0)}
    assert {"features.proposal", "features.move", "features.mitosis"} <= names
    assert tr.counts[0]["features.vectors"] == len(read_proposals(tmp_path / "proposals.jsonl")) > 0
