"""Command-line entry point.

Subcommands: gen-data, solve, baseline, eval, reproduce, diagnose.
Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

SPLIT_NOT_TRACED = "diagnose traces the full-sample estimator; split = true is not traced"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{message}\n{self.format_usage()}")


def _build_parser() -> _Parser:
    from softirl.harness import BUILTIN_NAMES

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
    p.add_argument("name", nargs="?", choices=BUILTIN_NAMES)
    p.add_argument("--reruns", type=int, default=None)
    add_common(p, config_required=False, seed=True)
    p = sub.add_parser("diagnose", help="emit per-iteration solver diagnostics as CSV; "
                                        "traces the full-sample estimator, so split = true "
                                        "is not traced")
    add_common(p, seed=True)
    return parser


def _cmd_gen_data(args) -> int:
    from softirl.envs import build_env, expert_policy, sample_transitions, write_dataset
    from softirl.harness import parse_config

    cfg = parse_config(args.config)
    seed = args.seed if args.seed is not None else cfg.base_seed
    mdp, r_true, _ = build_env(cfg.env)
    pi = expert_policy(mdp, r_true)
    dataset = sample_transitions(mdp, pi, cfg.n, regime=cfg.regime, seed=seed,
                                 env_id=cfg.name)
    out = args.out or "dataset.txt"
    write_dataset(dataset, out)
    if not args.quiet:
        print(f"wrote {dataset.n} records to {out}")
    return 0


def _cmd_solve(args) -> int:
    from softirl.envs import read_dataset
    from softirl.harness import parse_config
    from softirl.solver import classify_then_regress, save_solution, split_classify_regress

    cfg = parse_config(args.config)
    dataset = read_dataset(args.dataset)
    if cfg.solver.split:
        solution = split_classify_regress(dataset, cfg.solver)
    else:
        solution = classify_then_regress(dataset, cfg.solver)
    out = args.out or "solution"
    save_solution(solution, out)
    if not args.quiet:
        print(f"solution written to {out} "
              f"(K={solution.diagnostics.iterations}, "
              f"nu_proxy={solution.diagnostics.nu_proxy:.5f})")
        for w in solution.diagnostics.warnings:
            print(f"warning: {w}")
    return 0


def _cmd_baseline(args) -> int:
    from softirl.envs import build_env, read_dataset
    from softirl.harness import parse_config
    from softirl.maxent import maxent_fit, save_maxent

    cfg = parse_config(args.config)
    dataset = read_dataset(args.dataset)
    mdp, _, phi = build_env(cfg.env)
    fit = maxent_fit(mdp, phi, dataset, cfg.baseline)
    out = args.out or "baseline"
    save_maxent(fit, out)
    if not args.quiet:
        print(f"baseline written to {out} "
              f"(epochs={fit.diagnostics['epochs_run']}, "
              f"best loglik={fit.diagnostics['best_loglik']:.6f})")
    return 0


def _cmd_eval(args) -> int:
    from softirl.envs import build_env
    from softirl.harness import parse_config
    from softirl.mdp import soft_value_iteration
    from softirl.metrics import METRIC_NAMES, evaluate
    from softirl.solver import load_solution

    cfg = parse_config(args.config)
    mdp, r_true, _ = build_env(cfg.env)
    # one truth solve gives the expert policy and the Q the score compares to
    _, q_true, pi = soft_value_iteration(mdp, r_true)
    solution = load_solution(args.solution)
    report = evaluate(mdp, r_true, pi, solution.r, solution.v,
                      ref_action=cfg.ref_action, q_true=q_true)
    lines = ["metric,value"]
    for name in METRIC_NAMES:
        lines.append(f"{name},{getattr(report, name):.10g}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    if not args.quiet:
        print(text, end="")
        if not report.corr_defined:
            print("note: correlation undefined (zero-variance Q-differences)")
    return 0


def _cmd_reproduce(args) -> int:
    from softirl.harness import (
        builtin_experiment,
        format_markdown_table,
        parse_config,
        run_experiment,
    )

    if args.config is None:
        cfg = builtin_experiment(args.name, reruns=args.reruns, base_seed=args.seed)
    else:
        cfg = parse_config(args.config)
        if args.reruns is not None:
            cfg.reruns = args.reruns
        if args.seed is not None:
            cfg.base_seed = args.seed
    out = args.out or os.path.join("results", cfg.name)
    _, summary = run_experiment(cfg, out_dir=out, quiet=args.quiet)
    table = format_markdown_table(cfg.name, summary)
    if not args.quiet:
        print(table, end="")
        print(f"files written to {out}")
    return 0


def _cmd_diagnose(args) -> int:
    from softirl.envs import build_env, expert_policy, sample_transitions
    from softirl.harness import parse_config
    from softirl.solver import classify_then_regress, exact_population_solver

    cfg = parse_config(args.config)
    seed = args.seed if args.seed is not None else cfg.base_seed
    mdp, r_true, _ = build_env(cfg.env)
    pi = expert_policy(mdp, r_true)
    dataset = sample_transitions(mdp, pi, cfg.n, regime=cfg.regime, seed=seed,
                                 env_id=cfg.name)
    solution = classify_then_regress(dataset, cfg.solver, record_iterates=True)
    exact = exact_population_solver(mdp, pi, cfg.solver.mu)
    diag = solution.diagnostics
    iterates = diag.extras["iterates"]
    lines = ["k,eta,sup_dist_to_exact_v,gamma_pow_k"]
    for k, v_k in enumerate(iterates):
        eta = diag.eta[k - 1] if k >= 1 else float("nan")
        dist = float(np.max(np.abs(v_k - exact.v)))
        lines.append(f"{k},{eta:.10g},{dist:.10g},{cfg.solver.gamma ** k:.10g}")
    text = "\n".join(lines) + "\n"
    out = args.out or "diagnostics.csv"
    with open(out, "w") as fh:
        fh.write(text)
    if not args.quiet:
        print(f"kappa_hat = {diag.kappa_hat:.6g}")
        print(f"nu_proxy (train KL) = {diag.nu_proxy:.6g}")
        warnings = list(diag.warnings)
        if cfg.solver.split:
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
    except (OSError, ValueError, RuntimeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
