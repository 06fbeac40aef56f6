#!/usr/bin/env python3
"""Sweep the sample size on one packaged benchmark and record how the five
metrics scale with n.

The Q-difference error of the classify-then-regress estimate is driven by
per-state log-odds estimation; `test_criterion_7_ours_rmse_rate` in
tests/test_acceptance.py measures its RMSE's log-log slope against n (-0.517
on ident, -0.487 on hard, over n = 12.5k-200k). This sweep shows which n a
given accuracy band needs. Each rerun is drawn and scored as a `reproduce`
rerun is, by `harness.draw` and `harness.score`, and each metric's mean and
SE over the reruns come from `harness.summarize`, which leaves out
non-finite values.

`--width W` sets width = height = W on the benchmark, so its cost can be
read against the state count S = W * W. The script prints the seconds of one
`build_env`, the mean seconds of Ours (`classify_then_regress`) per n, the
mean seconds of one MaxEnt epoch (a `max_epochs = 2` fit to the last rerun's
records, whose three epochs each take one soft value iteration and one
gradient), and the process's peak RSS.

Usage: python3 scripts/sweep_sample_size.py --name ident --reruns 5 \
           --sizes 50000 200000 800000 --out sweep.csv
       python3 scripts/sweep_sample_size.py --name ident --width 32 --reruns 1 \
           --sizes 800000
"""

import argparse
import resource
import time
from dataclasses import replace

from softirl.envs import build_env, truth
from softirl.harness import BUILTIN_NAMES, builtin_experiment, draw, score, summarize
from softirl.maxent import MaxEntConfig, maxent_fit
from softirl.metrics import METRIC_NAMES
from softirl.solver import classify_then_regress


def at_least(low):
    """An argparse type: an integer of at least `low`."""
    def integer(text):
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)
    return integer


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--name", default="ident", choices=BUILTIN_NAMES)
    parser.add_argument("--sizes", type=at_least(1), nargs="+",
                        default=[12_500, 50_000, 200_000, 800_000])
    parser.add_argument("--reruns", type=at_least(1), default=5)
    parser.add_argument("--seed", type=at_least(0), default=0)
    parser.add_argument("--width", type=at_least(1))
    parser.add_argument("--out", default="sweep.csv")
    args = parser.parse_args()

    cfg = builtin_experiment(args.name)
    if args.width is not None:
        cfg = replace(cfg, env=replace(cfg.env, width=args.width, height=args.width))
    start = time.perf_counter()
    build_env(cfg.env)
    print(f"S={cfg.env.n_states}: build_env {time.perf_counter() - start:.3f}s")

    lines = ["n,metric,mean,se"]
    for n in args.sizes:
        rows, seconds = [], 0.0
        for rerun in range(args.reruns):
            data = draw(replace(cfg, n=n), args.seed + rerun)
            start = time.perf_counter()
            sol = classify_then_regress(data, cfg.solver)
            seconds += time.perf_counter() - start
            report = score(cfg, sol.r, sol.v)
            rows += [(rerun, "Ours", m, v) for m, v in report.as_dict().items()]
        summary = summarize(rows)
        mean = {m: summary[("Ours", m)][0] for m in METRIC_NAMES}
        for m in METRIC_NAMES:
            lines.append(f"{n},{m},{mean[m]:.6g},{summary[('Ours', m)][1]:.6g}")
        print(f"n={n}: rmse={mean['rmse_qdiff']:.4f} corr={mean['corr_qdiff']:.4f} "
              f"kl={mean['kl']:.5f} ours={seconds / args.reruns:.3f}s")

    mdp, _, phi, _, _ = truth(cfg.env)
    start = time.perf_counter()
    fit = maxent_fit(mdp, phi, data, MaxEntConfig(max_epochs=2))
    epoch_s = (time.perf_counter() - start) / len(fit.loss_trace)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"maxent_epoch={epoch_s:.3f}s peak_rss={peak_mb:.0f}MB")

    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
