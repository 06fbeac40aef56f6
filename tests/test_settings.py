"""The repository's pytest settings, applied to a throwaway test file."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_TESTS = """\
from hypothesis import given, settings, strategies as st


@given(st.integers())
@settings(max_examples=1, database=None)
def test_given_fails(x):
    assert False


def test_plain_fails():
    assert False
"""


def test_a_failing_given_test_is_reported_and_the_session_runs_on(tmp_path):
    # reporting a failing example imports libcst, whose import warns under
    # filterwarnings = error; unignored, that warning was an INTERNALERROR
    # that ended the session after the first failure
    path = tmp_path / "test_failing.py"
    path.write_text(FAILING_TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), str(path)],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "2 failed" in run.stdout, run.stdout
