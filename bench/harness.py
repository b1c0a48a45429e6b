"""Measurement loop: set-up, timed ops, correctness gate, metrics.

``measure`` runs one workload for a given time and returns every op record
and the metrics named in ``BENCHMARK.json``.  End-to-end metrics come from
untraced ops.  A traced run processes each scene twice in a row, once
untraced and once traced, alternating which goes first: per-layer metrics
come from the traced ops, and the difference between the two is the tracing
overhead.
"""
from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field

import numpy as np

from spans import Tracer, layer_times
from workloads import Workload, check_op, fingerprint, prepare, result_files, run_op, tree_bytes

SETUP_REPEATS = 3
# Other work on a shared machine slows every op, by up to a third for
# seconds at a time.  So each timed span is scaled by the speed of a fixed
# reference kernel measured right before and right after it: a scaled time is
# the wall time on a machine where the kernel takes REF_SECONDS (about its
# time on an idle 2-vCPU x86 VM).  Raw wall times stay in the op records.
REF_SECONDS = 0.02


def reference_kernel() -> float:
    """Wall time of a fixed mix of interpreted Python and small numpy work."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i % 7
    counts: dict[int, int] = {}
    for i in range(30_000):
        counts[i % 977] = counts.get(i % 977, 0) + 1
    rng = np.random.default_rng(0)
    np.sort(rng.random(200_000))
    m = rng.random((64, 64))
    for _ in range(100):
        m = m @ m
        m /= m.max()
    return time.perf_counter() - t0


def timed(fn, *args, **kwargs):
    """``(fn(*args, **kwargs), wall seconds, scaled seconds)``."""
    before = reference_kernel()
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    wall = time.perf_counter() - t0
    after = reference_kernel()
    return out, wall, wall * 2.0 * REF_SECONDS / (before + after)


def startup_seconds(src: str) -> float:
    """Median scaled time of a fresh interpreter importing the pipeline."""
    cmd = [sys.executable, "-c", "import lineage_ilp.pipeline"]
    env = {**os.environ, "PYTHONPATH": src}
    return statistics.median(
        timed(subprocess.run, cmd, env=env, check=True, timeout=120)[2]
        for _ in range(SETUP_REPEATS)
    )


def load_declared(root: str) -> dict:
    """End-to-end and per-layer metric declarations from ``BENCHMARK.json``."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    return {kind: {m["name"]: m for m in doc[kind]} for kind in ("end_to_end", "per_layer")}


@dataclass
class OpRecord:
    op: int
    scene: int
    traced: bool
    frames: int
    seconds: float | None = None  # wall time
    scaled: float | None = None  # wall time scaled to the reference speed
    problems: list[str] = field(default_factory=list)
    fingerprint: str = ""
    status: str = ""
    objective: float | None = None
    bound: float | None = None
    gap: float | None = None
    tra: float | None = None
    seg: float | None = None
    division_f1: float | None = None
    move_recall: float | None = None
    mitosis_recall: float | None = None
    proposals: int = 0
    conflicts: int = 0
    bytes_written: int = 0


@dataclass
class Run:
    workload: str
    seed: int
    trace: bool
    setup_seconds: list[float]
    setup_fingerprint: str
    ops: list[OpRecord]
    tracer: Tracer | None
    metrics: dict[str, float] = field(default_factory=dict)
    extra: dict[str, float] = field(default_factory=dict)  # derived numbers not declared as metrics

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.ops if r.problems)

    def fingerprint(self) -> str:
        """One digest over the first output of every scene, in scene order."""
        firsts = [(r.scene, r.fingerprint) for r in _first_per_scene(self.ops)]
        return hashlib.sha256(json.dumps(firsts).encode()).hexdigest()

    def to_json(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "trace": self.trace,
            "attempted": self.attempted,
            "failed": self.failed,
            "fingerprint": self.fingerprint(),
            "setup_seconds": self.setup_seconds,
            "setup_fingerprint": self.setup_fingerprint,
            "metrics": self.metrics,
            "extra": self.extra,
            "ops": [asdict(r) for r in self.ops],
            "spans": [asdict(s) for s in self.tracer.spans] if self.tracer else [],
        }


def _one_op(w: Workload, prep, scene, op: int, work: str, tracer: Tracer | None, seen: dict) -> OpRecord:
    rec = OpRecord(op=op, scene=scene.index, traced=tracer is not None, frames=scene.cfg.sim.frames)
    out_dir = os.path.join(work, f"op{op}")
    try:
        with tracer.installed(op) if tracer else nullcontext():
            out, rec.seconds, rec.scaled = timed(run_op, w, prep, scene, out_dir)
        rec.problems = check_op(out)
        rec.fingerprint = fingerprint(result_files(out_dir), out_dir)
        rec.bytes_written = tree_bytes(out_dir)
        earlier = seen.setdefault(scene.index, rec.fingerprint)
        if earlier != rec.fingerprint:
            rec.problems.append("outputs differ from an earlier op on the same scene")
        res, report, graph = out.track.result, out.report, out.track.graph
        rec.status, rec.objective, rec.bound, rec.gap = res.status, res.objective, res.bound, res.gap
        rec.tra, rec.seg, rec.division_f1 = report.tra.tra, report.seg, report.division_f1
        recalls = report.recalls or {}
        rec.move_recall = recalls.get("move_recall")
        rec.mitosis_recall = recalls.get("mitosis_recall")
        rec.proposals, rec.conflicts = len(out.track.props), len(graph.conflicts)
    except Exception as exc:  # one op's failure is counted, never aborts the run
        traceback.print_exc(file=sys.stderr)
        rec.problems.append(f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return rec


def measure(
    w: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    work: str,
    *,
    startup_s: float = 0.0,
    declared: dict,
) -> Run:
    """Set up ``SETUP_REPEATS`` times, then run ops round robin over the
    scenes until ``seconds`` have passed and every scene ran at least once
    (in a traced run, once untraced and once traced).

    ``setup_s`` is ``startup_s`` (process start to an imported package) plus
    the median scaled set-up time."""
    tracer = Tracer() if trace else None
    setup_seconds, digests = [], set()
    for i in range(SETUP_REPEATS):
        root = os.path.join(work, f"setup{i}")
        last = i + 1 == SETUP_REPEATS
        # a traced run traces its last set-up as op -1
        with tracer.installed(-1) if tracer and last else nullcontext():
            prep, _, scaled = timed(prepare, w, seed, root)
        setup_seconds.append(scaled)
        digests.add(prep.fingerprint)
        if not last:
            shutil.rmtree(root, ignore_errors=True)
    if len(digests) != 1:
        raise RuntimeError("set-up wrote different files on repeated runs with one seed")

    ops: list[OpRecord] = []
    seen: dict[int, str] = {}
    t_start = time.perf_counter()
    i = 0
    while i < w.scenes or time.perf_counter() - t_start < seconds:
        scene = prep.scenes[i % w.scenes]
        # a traced run alternates which twin of a scene runs first
        for tr in ((None, tracer) if i % 2 == 0 else (tracer, None)) if tracer else (None,):
            ops.append(_one_op(w, prep, scene, len(ops), work, tr, seen))
        i += 1

    run = Run(w.name, seed, trace, setup_seconds, digests.pop(), ops, tracer)
    setup_s = startup_s + statistics.median(setup_seconds)
    if trace:
        computed = per_layer_metrics(run)
        names = declared["per_layer"]
    else:
        computed = end_to_end_metrics(run, setup_s)
        names = declared["end_to_end"]
    run.metrics = {name: float(computed.get(name, 0.0)) for name in names}
    run.extra = {k: v for k, v in computed.items() if k not in names}
    return run


def _first_per_scene(records: list[OpRecord]) -> list[OpRecord]:
    firsts: dict[int, OpRecord] = {}
    for r in records:
        if not r.problems:
            firsts.setdefault(r.scene, r)
    return [firsts[k] for k in sorted(firsts)]


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, and its value."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def end_to_end_metrics(run: Run, setup_s: float) -> dict[str, float]:
    good = [r for r in run.ops if not r.problems and not r.traced]
    times = [r.scaled for r in good]
    scenes = _first_per_scene(good)
    by_scene: dict[int, list[float]] = {}
    for r in good:
        by_scene.setdefault(r.scene, []).append(r.scaled)
    # median per scene, then over scenes: every scene weighs the same however
    # often the run repeated it
    sequence_s = _median(_median(v) for v in by_scene.values())
    out = {
        "sequence_s": sequence_s,
        "frames_per_s": _median(r.frames for r in good) / sequence_s if good else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": 1.0 - run.failed / run.attempted,
        "sequence_s.samples": len(times),
        "sequence_s.wall": _median(r.seconds for r in good),
        "tra": _median(r.tra for r in scenes),
        "seg": _median(r.seg for r in scenes),
        "division_f1": _median(r.division_f1 for r in scenes),
        "optimal_share": _optimal_share(scenes),
    }
    tail = tail_percentile(times)
    if tail:
        out["sequence_s.tail_pct"], out["sequence_s.tail"] = tail
    return out


def _optimal_share(scenes: list[OpRecord]) -> float:
    return sum(r.status == "optimal" for r in scenes) / len(scenes) if scenes else 0.0


def per_layer_metrics(run: Run) -> dict[str, float]:
    tracer = run.tracer
    traced = [r for r in run.ops if r.traced and not r.problems]
    by_scene: dict[int, list[dict[str, float]]] = {}
    for r in traced:
        # span times are scaled with their op's factor, like the op itself
        factor = r.scaled / r.seconds
        m = {k: v * factor for k, v in layer_times(tracer.op_spans(r.op)).items()}
        m.update(tracer.counts.get(r.op, {}))
        exact_s = m.get("solve.exact_s", 0.0)
        m["solve.nodes_per_s"] = m.get("solve.nodes", 0) / exact_s if exact_s > 0 else 0.0
        enumerated = m.get("graph.move_pairs", 0) + m.get("graph.mitosis_triples", 0)
        m["graph.kept_ratio"] = m.get("graph.kept", 0) / enumerated if enumerated else 0.0
        by_scene.setdefault(r.scene, []).append(m)
    per_scene = [
        {k: _median(m.get(k) for m in ms) for k in set().union(*ms)} for ms in by_scene.values()
    ]
    out = {k: _median(s.get(k, 0.0) for s in per_scene) for k in set().union(*per_scene)} if per_scene else {}

    scenes = _first_per_scene(traced)
    out.update(
        {
            "proposals.count": _median(r.proposals for r in scenes),
            "proposals.conflicts": _median(r.conflicts for r in scenes),
            "graph.move_recall": _median(r.move_recall for r in scenes),
            "graph.mitosis_recall": _median(r.mitosis_recall for r in scenes),
            "solve.objective": _median(r.objective for r in scenes),
            "solve.rel_gap": _median(
                (r.gap or 0.0) / max(1.0, abs(r.objective or 0.0)) for r in scenes
            ),
            "solve.bound_excess": sum(
                1 for r in scenes if r.status == "optimal" and r.bound is not None and r.bound > r.objective
            ),
            "solve.max_bound_excess": max(
                [r.bound - r.objective for r in scenes if r.status == "optimal" and r.bound is not None]
                + [0.0]
            ),
            "solve.optimal_share": _optimal_share(scenes),
            "evaluate.tra": _median(r.tra for r in scenes),
            "evaluate.seg": _median(r.seg for r in scenes),
            "evaluate.division_f1": _median(r.division_f1 for r in scenes),
            "io.bytes_written": _median(r.bytes_written for r in scenes),
        }
    )
    overheads = [
        (b.scaled - a.scaled) * (1 if b.traced else -1)
        for a, b in zip(run.ops[0::2], run.ops[1::2])
        if not a.problems and not b.problems
    ]
    out["trace.overhead_s"] = _median(overheads)
    setup = layer_times(tracer.op_spans(-1))
    setup.update(tracer.counts.get(-1, {}))
    out.update({f"setup.{k}": v for k, v in setup.items()})
    return out
