"""The demos run against the current library.  Only the fast one runs here;
``quickstart.py`` and ``exact_vs_greedy.py`` take seconds each and are run
by hand."""
from __future__ import annotations

import os
import subprocess
import sys

import lineage_ilp

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(lineage_ilp.__file__)))


def test_proposal_anatomy_runs(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", "proposal_anatomy.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "feature vector of proposal 0 (92 entries)" in done.stdout
