#!/usr/bin/env python3
"""Sweep the sample size on one packaged benchmark and record how the five
metrics scale with n.

The Q-difference error of the classify-then-regress estimate is driven by
per-state log-odds estimation; `test_criterion_7_ours_rmse_rate` in
tests/test_acceptance.py measures its RMSE's log-log slope against n (-0.517
on ident, -0.487 on hard, over n = 12.5k-200k). This sweep shows which n a
given accuracy band needs. Each metric's mean and SE over the reruns come
from `harness.summarize`, which leaves out non-finite values.

Usage: python3 scripts/sweep_sample_size.py --name ident --reruns 5 \
           --sizes 50000 200000 800000 --out sweep.csv
"""

import argparse

from softirl.envs import sample_transitions, truth
from softirl.harness import BUILTIN_NAMES, builtin_experiment, summarize
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
        rows = []
        for rerun in range(args.reruns):
            ds = sample_transitions(mdp, pi, n, seed=args.seed + rerun,
                                    env_id=cfg.name)
            sol = classify_then_regress(ds, cfg.solver)
            report = evaluate(mdp, r_true, pi, sol.r, sol.v, q_true=q_true)
            rows += [(rerun, "Ours", m, v) for m, v in report.as_dict().items()]
        summary = summarize(rows)
        mean = {m: summary[("Ours", m)][0] for m in METRIC_NAMES}
        for m in METRIC_NAMES:
            lines.append(f"{n},{m},{mean[m]:.6g},{summary[('Ours', m)][1]:.6g}")
        print(f"n={n}: rmse={mean['rmse_qdiff']:.4f} corr={mean['corr_qdiff']:.4f} "
              f"kl={mean['kl']:.5f}")

    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
