#!/usr/bin/env python3
"""softirl benchmark driver.

Usage (from the repository root):

    python3 perfbench/run.py --workload reproduce-ident --seed 1 --seconds 30 --trace 0

Runs one workload (see workloads.py) single-process in a closed loop, checks
its outputs, and prints an environment line and then, as the last line of
standard output, one JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json; with --trace 1 the workload runs once untraced and once
traced, and the metrics are the per-layer ones. Exit code 0 means the run
completed (its outputs may still have failed their checks: see "correct");
any other code means it could not run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Pinned before numpy is imported. The tables here are small (S*A = 320), so
# BLAS threads buy nothing, add run-to-run noise on a shared box and would
# make the floating-point reduction order depend on the core count.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in _spec()["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else "unknown"


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        openblas = "unknown"
    return {"blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "openblas": openblas, "commit": _git_commit()}


def metric_specs(kind: str):
    """(name, unit) of each "end_to_end" or "per_layer" metric in BENCHMARK.json."""
    return [(m["name"], m["unit"]) for m in _spec()[kind]]


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def end_to_end_values(out) -> dict:
    """End-to-end metrics of an untraced run; times are in reference-box
    seconds (see workloads.PROBE_REF_S); quality is None if no op passed."""
    quality = {k: sum(v) / len(v) for k, v in out.quality.items()}
    return {"wall_s": out.wall.ref_s, "setup_s": out.setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_rate": 1.0 - len(out.failed) / out.attempted,
            "ours_rmse_qdiff": quality.get("ours_rmse_qdiff"),
            "ours_kl": quality.get("ours_kl"),
            "maxent_rmse_qdiff": quality.get("maxent_rmse_qdiff"),
            "maxent_kl": quality.get("maxent_kl")}


def result(outcomes, tracer=None) -> dict:
    """The final JSON object: outcomes[0] is the untraced run, outcomes[1]
    (present when `tracer` is given) the traced one."""
    import spans

    if tracer is None:
        values = end_to_end_values(outcomes[0])
        specs = metric_specs("end_to_end")
    else:
        traced = outcomes[1]
        values = spans.layer_metrics(tracer, traced.wall.window, outcomes[0].wall.raw_s,
                                     traced.failed_reruns, traced.nonzero_exits)
        specs = metric_specs("per_layer")
    missing = {name for name, _ in specs} - values.keys()
    if missing:
        raise RuntimeError(f"benchmark computed no value for {sorted(missing)}")
    failed = sum(len(o.failed) for o in outcomes)
    return {"correct": failed == 0, "attempted": sum(o.attempted for o in outcomes),
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in specs}}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "softirl" / "__init__.py").is_file():
        print(f"error: no softirl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(HERE))
    import spans
    import workloads

    sizes = workloads.full_sizes(args.workload, args.seconds)
    reference = json.loads((HERE / "reference.json").read_text()).get(args.workload)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    outcomes = [workloads.run(args.workload, args.seed, sizes, reference, work)]
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        outcomes.append(workloads.run(args.workload, args.seed, sizes, reference, work,
                                      tracer=tracer))
    with contextlib.suppress(OSError):
        work.parent.rmdir()  # kept while another run still uses it

    plain = outcomes[0]
    values = end_to_end_values(plain)
    detail = {"environment": environment(), "workload": args.workload, "seed": args.seed,
              "ops": sizes.ops, "n": sizes.n, "raw_wall_s": plain.wall.raw_s,
              "raw_setup_s": plain.raw_setup_s, "speed_factor": plain.wall.factor,
              "quality": {k: v for k, v in values.items() if k.endswith(("_qdiff", "_kl"))},
              "problems": [p for o in outcomes for p in o.problems][:20]}
    print(json.dumps(detail))
    print(json.dumps(result(outcomes, tracer)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
