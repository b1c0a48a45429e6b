"""Self-tests of the benchmark: tiny smoke runs of every workload, the
per-op correctness gate, stage spans against op wall time, and the exit
code outside a checkout.

    python3 -m pytest bench -q
"""
from __future__ import annotations

import dataclasses
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import pytest  # noqa: E402

import lineage_ilp.pipeline as pipeline_mod  # noqa: E402
from harness import load_declared, measure, tail_percentile  # noqa: E402
from spans import PIPELINE_STAGES  # noqa: E402
from workloads import WORKLOADS, check_op, prepare, run_op, tiny  # noqa: E402

DECLARED = load_declared(ROOT)
# Stage spans of an op must cover its wall time up to this much: the op's
# own glue (directory creation, report.txt) is the only thing outside them.
SPAN_SUM_ATOL_S = 0.02
SPAN_SUM_RTOL = 0.02


def tiny_run(name: str, trace: bool, work) -> object:
    return measure(tiny(WORKLOADS[name]), 0, 0.0, trace, str(work), declared=DECLARED)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke(name, trace, tmp_path):
    run = tiny_run(name, trace, tmp_path)
    assert run.failed == 0, [r.problems for r in run.ops]
    assert run.attempted == tiny(WORKLOADS[name]).scenes * (2 if trace else 1)
    kind = "per_layer" if trace else "end_to_end"
    assert set(run.metrics) == set(DECLARED[kind])
    if trace:
        # the untraced and traced twin of a scene wrote identical outputs
        assert len({r.fingerprint for r in run.ops if r.scene == 0}) == 1
    else:
        assert all(v > 0 for v in run.metrics.values()), run.metrics


def test_gate_rejects_a_flipped_bit(tmp_path):
    w = tiny(WORKLOADS["mt-exact"])
    prep = prepare(w, 0, str(tmp_path / "setup"))
    out = run_op(w, prep, prep.scenes[0], str(tmp_path / "op"))
    assert check_op(out) == []
    result = out.track.result
    x = result.x.copy()
    x[-1] ^= 1
    out.track.result = dataclasses.replace(result, x=x)
    assert check_op(out)


def test_flipped_bit_is_counted_as_failed(tmp_path, monkeypatch):
    exact = pipeline_mod.solve

    def flipped(instance, **kwargs):
        result = exact(instance, **kwargs)
        x = result.x.copy()
        x[0] ^= 1
        return dataclasses.replace(result, x=x)

    monkeypatch.setattr(pipeline_mod, "solve", flipped)
    run = tiny_run("mt-exact", False, tmp_path)
    assert run.attempted == tiny(WORKLOADS["mt-exact"]).scenes
    assert run.failed == run.attempted, [r.problems for r in run.ops]
    assert run.metrics["ok_share"] == 0.0


@pytest.mark.parametrize("name", ["truth-degraded", "log-track"])
def test_stage_spans_sum_to_op_time(name, tmp_path):
    run = tiny_run(name, True, tmp_path)
    stages = {span for _, span in PIPELINE_STAGES}
    traced = [r for r in run.ops if r.traced]
    assert traced
    for r in traced:
        top = [s for s in run.tracer.op_spans(r.op) if s.parent == -1]
        assert {s.name for s in top} <= stages
        covered = sum(s.seconds for s in top)
        assert covered <= r.seconds
        assert r.seconds - covered <= SPAN_SUM_ATOL_S + SPAN_SUM_RTOL * r.seconds, (r.seconds, covered)


def test_tail_percentile():
    assert tail_percentile([1.0] * 10) is None
    pct, value = tail_percentile([float(i) for i in range(20)])
    assert pct == 50.0 and value == 9.0


def test_fails_without_the_package(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mt-exact", "--seed", "0", "--seconds", "1"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
