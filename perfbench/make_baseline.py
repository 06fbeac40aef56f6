#!/usr/bin/env python3
"""Write baseline.json from the outputs of spread.py.

    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --out runs.json
    python3 perfbench/spread.py --seeds 1 --trace 1 --out trace.json
    python3 perfbench/make_baseline.py runs.json trace.json

The baseline holds, per workload, the end-to-end medians and quartiles over
the untraced runs, the per-layer figures of the traced run, and, for
reproduce-ident, the per-rerun stage times of the traced run next to the
figures the ROADMAP recorded for the same stages.
"""

from __future__ import annotations

import argparse
import json
import statistics

from run import HERE

# Seconds per ident rerun recorded in the ROADMAP (aim 1) before the benchmark.
ROADMAP_STAGE_S = {"sample": 0.42, "ours": 0.30, "maxent": 8.5, "evaluate": 0.11,
                   "build_env": 1.2}


def stage_seconds(layers: dict, reruns: int) -> dict:
    """Per-rerun seconds of each ROADMAP stage in a traced reproduce-ident run."""
    return {"sample": layers["envs.sample_transitions_s"] / reruns,
            "ours": layers["solver.classify_then_regress_s"] / reruns,
            "maxent": layers["maxent.fit_s"] / reruns,
            "evaluate": layers["metrics.evaluate_s"] / layers["metrics.evaluate_calls"],
            "build_env": layers["envs.build_env_s"] / layers["envs.build_env_calls"]}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("runs", help="spread.py --out file of untraced runs")
    p.add_argument("trace", help="spread.py --out file of traced runs")
    args = p.parse_args()
    runs = json.loads(open(args.runs).read())
    trace = json.loads(open(args.trace).read())

    out = {"about": "Figures of the commit that added the benchmark: end-to-end medians and "
                    "quartiles over the untraced runs, per-layer figures of one traced run "
                    "(raw seconds).",
           "run_seconds": runs["run_seconds"], "workloads": {}}
    for name, figures in runs["workloads"].items():
        first = figures["runs"][0]["detail"]
        out.setdefault("environment", first["environment"])
        raw = [r["detail"]["raw_wall_s"] for r in figures["runs"]]
        q1, median, q3 = statistics.quantiles(raw, n=4)
        traced = trace["workloads"][name]["runs"][0]
        layers = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
        entry = {"ops": first["ops"], "n": first["n"],
                 "seeds": [r["seed"] for r in figures["runs"]],
                 "end_to_end": figures["figures"],
                 "raw_wall_s": {"median": median, "q1": q1, "q3": q3},
                 "speed_factor_median": statistics.median(
                     r["detail"]["speed_factor"] for r in figures["runs"]),
                 "per_layer_seed": traced["seed"], "per_layer": layers}
        if name == "reproduce-ident":
            stages = stage_seconds(layers, traced["detail"]["ops"])
            entry["stages_per_rerun_s"] = {
                stage: {"traced": seconds, "roadmap": ROADMAP_STAGE_S[stage],
                        "ratio": seconds / ROADMAP_STAGE_S[stage]}
                for stage, seconds in stages.items()}
            entry["maxent_and_evaluate_share_of_wall"] = (
                (layers["maxent.fit_s"] + layers["metrics.evaluate_s"]) / layers["trace.wall_s"])
        out["workloads"][name] = entry
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
