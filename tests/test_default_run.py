"""The default configuration terminates: ``lineage-ilp e2e`` with the config
``{}`` (20 frames, multi_threshold proposals, the exact backend with no node
or time limit) ends with a proven optimum, in bounded time, at a tracking
quality floor.  This check sits beside the acceptance gate, not in it."""
from __future__ import annotations

import json
import time

import lineage_ilp.pipeline as pipeline_mod
from lineage_ilp.cli import EXIT_OK, main

DEFAULT_BUDGET_S = 30.0
# measured TRA 1.0 (optimal, 0 nodes, about 2 s on a 2-CPU x86 VM)
DEFAULT_TRA_FLOOR = 0.95


def test_default_config_ends_optimal(tmp_path, monkeypatch):
    results = []
    solve_graph = pipeline_mod.solve_graph

    def keep(cfg, graph):
        out = solve_graph(cfg, graph)
        results.append(out[0])
        return out

    monkeypatch.setattr(pipeline_mod, "solve_graph", keep)
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    t0 = time.monotonic()
    assert main(["e2e", "--config", str(cfg), "--out", str(tmp_path / "run")]) == EXIT_OK
    elapsed = time.monotonic() - t0

    report = json.loads((tmp_path / "run" / "report.json").read_text())
    tra = report["tra"]["score"]
    assert [r.status for r in results] == ["optimal"]
    assert elapsed < DEFAULT_BUDGET_S
    assert tra >= DEFAULT_TRA_FLOOR
    print(
        f"\n[default config] PASS: e2e with {{}} ended {results[0].status}"
        f" (objective {results[0].objective:.2f}, {results[0].nodes} nodes)"
        f" with TRA {tra:.4f} in {elapsed:.1f}s"
    )
