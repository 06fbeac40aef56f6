"""Smoke runs of the scripts under scripts/."""

import math
import os
import subprocess
import sys
from pathlib import Path

import softirl
from softirl.metrics import METRIC_NAMES

ROOT = Path(__file__).resolve().parent.parent


def test_sweep_sample_size_writes_one_finite_row_per_metric(tmp_path):
    out = tmp_path / "sweep.csv"
    src = os.path.dirname(os.path.dirname(softirl.__file__))
    subprocess.run([sys.executable, str(ROOT / "scripts" / "sweep_sample_size.py"),
                    "--name", "easy", "--sizes", "2000", "--reruns", "2", "--out", str(out)],
                   capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
                   check=True, timeout=120)
    header, *rows = out.read_text().splitlines()
    assert header == "n,metric,mean,se"
    fields = [row.split(",") for row in rows]
    assert [metric for _, metric, _, _ in fields] == list(METRIC_NAMES)
    assert all(n == "2000" and math.isfinite(float(mean)) for n, _, mean, _ in fields)
