"""Smoke runs of the scripts under scripts/."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import softirl
from softirl.metrics import METRIC_NAMES

ROOT = Path(__file__).resolve().parent.parent
SRC = os.path.dirname(os.path.dirname(softirl.__file__))


def run_sweep(*args):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "sweep_sample_size.py"), *args],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
                          timeout=120)


def test_sweep_sample_size_writes_one_finite_row_per_metric(tmp_path):
    out = tmp_path / "sweep.csv"
    run_sweep("--name", "easy", "--sizes", "2000", "--reruns", "2",
              "--out", str(out)).check_returncode()
    header, *rows = out.read_text().splitlines()
    assert header == "n,metric,mean,se"
    fields = [row.split(",") for row in rows]
    assert [metric for _, metric, _, _ in fields] == list(METRIC_NAMES)
    assert all(n == "2000" and math.isfinite(float(mean)) for n, _, mean, _ in fields)


def test_sweep_sample_size_width_prints_the_stage_costs(tmp_path):
    # easy is 4x4 as packaged: --width 8 makes it 8x8, S = 64
    out = tmp_path / "sweep.csv"
    done = run_sweep("--name", "easy", "--width", "8", "--sizes", "2000", "--reruns", "1",
                     "--out", str(out))
    done.check_returncode()
    seconds = r"\d+\.\d{3}s"
    build, point, stages, wrote = done.stdout.splitlines()
    assert re.fullmatch(rf"S=64: build_env {seconds}", build)
    assert re.fullmatch(rf"n=2000: rmse=\S+ corr=\S+ kl=\S+ ours={seconds}", point)
    assert re.fullmatch(rf"maxent_epoch={seconds} peak_rss=\d+MB", stages)
    assert wrote == f"wrote {out}"
    assert len(out.read_text().splitlines()) == 1 + len(METRIC_NAMES)


# each would sample nothing (nan rows), or fail in numpy with a traceback
@pytest.mark.parametrize("flag, value, low", [
    ("--reruns", "0", 1), ("--sizes", "0", 1), ("--seed", "-1", 0), ("--width", "0", 1)])
def test_sweep_sample_size_rejects_a_value_it_cannot_use(tmp_path, flag, value, low):
    out = tmp_path / "sweep.csv"
    done = run_sweep("--name", "easy", "--sizes", "2000", "--reruns", "1", "--out", str(out),
                     flag, value)
    assert done.returncode == 2
    assert done.stderr.startswith("usage: ")
    assert done.stderr.endswith(f"argument {flag}: must be at least {low}, got {value}\n")
    assert not out.exists()
