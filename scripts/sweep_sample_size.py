#!/usr/bin/env python3
"""Sweep the sample size on one packaged benchmark and record how the five
metrics scale with n.

The Q-difference error of the classify-then-regress estimate is driven by
per-state log-odds estimation, so its RMSE shrinks like 1/sqrt(n); this
sweep makes that visible and shows which n a given accuracy band needs.

Usage: python3 scripts/sweep_sample_size.py --name ident --reruns 5 \
           --sizes 50000 200000 800000 --out sweep.csv
"""

import argparse

import numpy as np

from softirl.envs import sample_transitions, truth
from softirl.harness import BUILTIN_NAMES, builtin_experiment
from softirl.metrics import METRIC_NAMES, evaluate
from softirl.solver import classify_then_regress


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--name", default="ident", choices=BUILTIN_NAMES)
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[12_500, 50_000, 200_000, 800_000])
    parser.add_argument("--reruns", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="sweep.csv")
    args = parser.parse_args()

    cfg = builtin_experiment(args.name)
    mdp, r_true, _, q_true, pi = truth(cfg.env)

    lines = ["n,metric,mean,se"]
    for n in args.sizes:
        per_metric = {m: [] for m in METRIC_NAMES}
        for rerun in range(args.reruns):
            ds = sample_transitions(mdp, pi, n, seed=args.seed + rerun,
                                    env_id=cfg.name)
            sol = classify_then_regress(ds, cfg.solver)
            report = evaluate(mdp, r_true, pi, sol.r, sol.v, q_true=q_true)
            for m in METRIC_NAMES:
                per_metric[m].append(getattr(report, m))
        for m in METRIC_NAMES:
            vals = np.asarray(per_metric[m])
            se = vals.std(ddof=1) / np.sqrt(len(vals)) if len(vals) > 1 else float("nan")
            lines.append(f"{n},{m},{vals.mean():.6g},{se:.6g}")
        print(f"n={n}: rmse={np.mean(per_metric['rmse_qdiff']):.4f} "
              f"corr={np.mean(per_metric['corr_qdiff']):.4f} "
              f"kl={np.mean(per_metric['kl']):.5f}")

    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
