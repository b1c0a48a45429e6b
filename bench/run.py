"""lineage-ilp benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload truth-degraded --seed 0 --seconds 20 --trace 0

Prints one line per op, every metric with its unit and better direction, a
metadata line, and as the last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``).  The full record
(op records, spans, fingerprints) goes to ``.bench_run/`` in the checkout.
Run it from the root of a checkout; it imports the package from ``src/``.
"""
import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def git_sha(root: str) -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown'
    when the checkout is not a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines(src: str) -> int:
    total = 0
    for d, _, names in os.walk(src):
        for n in names:
            if n.endswith(".py"):
                with open(os.path.join(d, n), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "lineage_ilp")):
        print(f"no lineage_ilp package under {SRC}: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import numpy
    import scipy

    import lineage_ilp
    from harness import load_declared, measure, startup_seconds
    from workloads import WORKLOADS

    if os.path.dirname(os.path.abspath(lineage_ilp.__file__)) != os.path.join(SRC, "lineage_ilp"):
        print(f"imported lineage_ilp from {lineage_ilp.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    declared = load_declared(ROOT)

    out_root = os.path.join(ROOT, ".bench_run")
    work = os.path.join(out_root, f"work-{os.getpid()}")
    os.makedirs(work)
    try:
        run = measure(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work,
            startup_s=startup_seconds(SRC), declared=declared,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scenes": WORKLOADS[args.workload].scenes,
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "src_lines": src_lines(SRC),
    }
    record = {"meta": meta, **run.to_json()}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_root, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for r in run.ops:
        secs = "-" if r.seconds is None else f"{r.scaled:.3f}s scaled {r.seconds:.3f}s wall"
        state = "FAILED: " + "; ".join(r.problems) if r.problems else f"tra={r.tra:.4f} {r.status}"
        print(f"op {r.op:3d} scene {r.scene:2d} {'traced  ' if r.traced else 'untraced'} {secs} {state}")
    kind = "per_layer" if args.trace else "end_to_end"
    for metric, value in run.metrics.items():
        d = declared[kind][metric]
        print(f"{metric:32s} {value:14.6g} {d['unit']:10s} {d['better']} is better")
    for key, value in sorted(run.extra.items()):
        print(f"{key:32s} {value:14.6g}")
    print(f"fingerprint {run.fingerprint()}  setup {run.setup_fingerprint or '-'}")
    print("meta " + json.dumps(meta, sort_keys=True))
    metrics = {
        metric: {"value": value, "unit": declared[kind][metric]["unit"]}
        for metric, value in run.metrics.items()
    }
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
