#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

For every workload and metric it prints the median, the quartiles as
`statistics.quantiles(values, n=4)` gives them, and the quartile spread as
a share of the median next to the metric's bound. With --out it also writes
these figures, every run's result and the environment line to a JSON file.

    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --out runs.json
    python3 perfbench/spread.py --workloads cli-ident-split --seeds 1 --trace 1
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarize(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "spread": 0.0,
                "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else float("inf")}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None)
    args = p.parse_args()

    kind = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[kind]}
    report = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return done.returncode
            lines = done.stdout.strip().splitlines()
            result, detail = json.loads(lines[-1]), json.loads(lines[-2])
            ok &= result["correct"]
            runs.append({"seed": seed, "result": result, "detail": detail})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        figures = {}
        for name in bounds:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            figures[name] = summarize(values)
            bound = bounds[name]
            line = (f"  {name:34s} median {figures[name]['median']:<14.6g} "
                    f"q1 {figures[name]['q1']:<12.6g} q3 {figures[name]['q3']:<12.6g} "
                    f"spread {figures[name]['spread']:.4f}")
            if bound is not None:
                line += f"  bound {bound} (third {bound / 3:.4f})"
            print(line, flush=True)
        report["workloads"][workload] = {"figures": figures, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
