"""The suite's own pytest settings: a failing property test is reported as
a failure, never as an INTERNALERROR that aborts the whole run."""
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY_TEST = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 0
'''


def test_failing_property_test_is_reported(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING_PROPERTY_TEST)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT), "test_failing.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    out = done.stdout + done.stderr
    assert "INTERNALERROR" not in out
    assert done.returncode == 1, out
    assert "1 failed" in out
