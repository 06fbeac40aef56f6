import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402

run.pin_threads()

import workloads  # noqa: E402


@pytest.fixture(autouse=True)
def _one_setup_repeat(monkeypatch):
    """Set-up is timed once, not as a median of repeats, to keep the tests short."""
    monkeypatch.setattr(workloads, "IMPORT_REPEATS", 1)
    monkeypatch.setattr(workloads, "PREP_REPEATS", 1)
