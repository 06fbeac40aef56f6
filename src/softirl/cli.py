"""Command-line entry point.

Subcommands: gen-data, solve, baseline, eval, reproduce, diagnose.
Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

# Names are looked up on their modules at call time, so a patched attribute is the one called.
from softirl import envs, harness, maxent, solver

SPLIT_NOT_TRACED = "diagnose traces the full-sample estimator; split = true is not traced"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{message}\n{self.format_usage()}")


@functools.cache  # built on the first call, not at import, and reused by every later one
def _build_parser() -> _Parser:
    parser = _Parser(prog="softirl",
                     description="Reward recovery from behavior data, plus benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config_required=True, seed=False):
        p.add_argument("--config", required=config_required, help="config file path")
        if seed:  # only the commands that sample a dataset read it
            p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--out", default=None, help="output file or directory")
        p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("gen-data", help="sample a transition dataset from an environment")
    add_common(p, seed=True)
    p = sub.add_parser("solve", help="recover reward/value tables from a dataset")
    p.add_argument("dataset", help="dataset file")
    add_common(p)
    p = sub.add_parser("baseline", help="fit the MaxEnt baseline on a dataset")
    p.add_argument("dataset", help="dataset file")
    add_common(p)
    p = sub.add_parser("eval", help="score a solution directory against its environment")
    p.add_argument("solution", help="solution directory")
    add_common(p)
    p = sub.add_parser("reproduce", help="run a packaged benchmark, or the experiment a "
                                         "--config file describes, end to end")
    p.add_argument("name", nargs="?", choices=harness.BUILTIN_NAMES)
    p.add_argument("--reruns", type=int, default=None)
    add_common(p, config_required=False, seed=True)
    p = sub.add_parser("diagnose", help="emit per-iteration solver diagnostics as CSV; "
                                        "traces the full-sample estimator, so split = true "
                                        "is not traced")
    add_common(p, seed=True)
    return parser


def _cmd_gen_data(args) -> int:
    cfg = harness.parse_config(args.config, base_seed=args.seed)
    dataset = harness.draw(cfg, cfg.base_seed)
    out = args.out or "dataset.txt"
    envs.write_dataset(dataset, out)
    if not args.quiet:
        print(f"wrote {dataset.n} records to {out}")
    return 0


def _cmd_solve(args) -> int:
    cfg = harness.parse_config(args.config)
    dataset = envs.read_dataset(args.dataset)
    dataset.check_shape(cfg.env.n_states, cfg.env.n_actions)
    solve = solver.split_classify_regress if cfg.split else solver.classify_then_regress
    solution = solve(dataset, cfg.solver)
    out = args.out or "solution"
    solver.save_solution(solution, out)
    if not args.quiet:
        print(f"solution written to {out} "
              f"(K={solution.diagnostics.iterations}, "
              f"nu_proxy={solution.diagnostics.nu_proxy:.5f})")
        for w in solution.diagnostics.warnings:
            print(f"warning: {w}")
    return 0


def _cmd_baseline(args) -> int:
    cfg = harness.parse_config(args.config)
    dataset = envs.read_dataset(args.dataset)
    mdp, _, phi = envs.build_env(cfg.env)
    fit = maxent.maxent_fit(mdp, phi, dataset, cfg.baseline)
    out = args.out or "baseline"
    maxent.save_maxent(fit, out)
    if not args.quiet:
        print(f"baseline written to {out} "
              f"(epochs={fit.diagnostics['epochs_run']}, "
              f"best loglik={fit.diagnostics['best_loglik']:.6f})")
    return 0


def _cmd_eval(args) -> int:
    cfg = harness.parse_config(args.config)
    solution = solver.load_solution(args.solution)
    if solution.gamma != cfg.env.gamma:  # JSON round-trips a float exactly
        raise ValueError(f"{args.solution} was solved with gamma = {solution.gamma}, "
                         f"but the config's [env] gamma is {cfg.env.gamma}")
    if solution.r.shape != (cfg.env.n_states, cfg.env.n_actions):
        raise ValueError(f"{args.solution} holds a solution of (S, A) = {solution.r.shape}, but "
                         f"the config's environment has ({cfg.env.n_states}, {cfg.env.n_actions})")
    report = harness.score(cfg, solution.r, solution.v)
    text = "metric,value\n" + "".join(f"{name},{harness.FLOAT_FMT % value}\n"
                                      for name, value in report.as_dict().items())
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    if not args.quiet:
        print(text, end="")
        if np.isnan(report.corr_qdiff):
            print("note: correlation undefined (zero-variance Q-differences)")
    return 0


def _cmd_reproduce(args) -> int:
    overrides = {"reruns": args.reruns, "base_seed": args.seed}
    cfg = (harness.builtin_experiment(args.name, **overrides) if args.config is None
           else harness.parse_config(args.config, **overrides))
    out = args.out or os.path.join("results", cfg.name)
    _, summary = harness.run_experiment(cfg, out_dir=out, quiet=args.quiet)
    table = harness.format_markdown_table(cfg.name, summary)
    if not args.quiet:
        print(table, end="")
        print(f"files written to {out}")
    return 0


def _cmd_diagnose(args) -> int:
    cfg = harness.parse_config(args.config, base_seed=args.seed)
    mdp, _, _, pi = harness.truth(cfg.env)
    if not np.all(pi > 0.0):  # the exact fixed point takes log(pi)
        raise ValueError("the exact fixed point needs every expert action probability "
                         "above 0; [env] min_action_prob above 0 ensures it")
    dataset = harness.draw(cfg, cfg.base_seed)
    solution = solver.classify_then_regress(dataset, cfg.solver, record_iterates=True)
    exact = solver.exact_population_solver(mdp, pi, cfg.solver)
    diag = solution.diagnostics
    # sup |v_k - v*| of every iterate, in place on the solve's one (K + 1, S, A) iterate table
    diag.iterates -= exact.v
    dists = np.abs(diag.iterates, out=diag.iterates).max(axis=(1, 2)).tolist()
    lines = ["k,eta,sup_dist_to_exact_v,gamma_pow_k"]
    row = ",".join(["%d"] + [harness.FLOAT_FMT] * 3)
    for k, dist in enumerate(dists):
        eta = diag.eta[k - 1] if k >= 1 else float("nan")
        lines.append(row % (k, eta, dist, cfg.solver.gamma ** k))
    text = "\n".join(lines) + "\n"
    out = args.out or "diagnostics.csv"
    with open(out, "w") as fh:
        fh.write(text)
    if not args.quiet:
        print(f"kappa_hat = {diag.kappa_hat:.6g}")
        print(f"nu_proxy (train KL) = {diag.nu_proxy:.6g}")
        warnings = list(diag.warnings)
        if cfg.split:
            warnings.append(SPLIT_NOT_TRACED)
        for w in warnings:
            print(f"warning: {w}")
        print(f"contraction trace written to {out}")
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "solve": _cmd_solve,
    "baseline": _cmd_baseline,
    "eval": _cmd_eval,
    "reproduce": _cmd_reproduce,
    "diagnose": _cmd_diagnose,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "reproduce" and (args.name is None) == (args.config is None):
            parser.error("reproduce takes exactly one of a benchmark name and --config")
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError, RuntimeError, KeyError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
