"""Experiment orchestration: seeded reruns, aggregation, and file outputs.

A run fixes the environment (the truth), redraws the dataset per rerun with
seed base_seed + rerun index, fits both methods, and aggregates the five
metrics into raw.csv / summary.csv / table.md. Reruns are executed
sequentially in index order so output files are byte-reproducible.
"""

from __future__ import annotations

import configparser
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from softirl.envs import GridworldSpec, expert_policy, build_env, sample_transitions
from softirl.maxent import MaxEntConfig, maxent_fit
from softirl.metrics import METRIC_NAMES, evaluate
from softirl.mdp import joint_frequency
from softirl.oracles import ClassifierSpec, RegressorSpec
from softirl.solver import (
    NormalizationMeasure,
    SolverConfig,
    classify_then_regress,
    split_classify_regress,
)

WEIGHTINGS = ("uniform", "empirical")
BUILTIN_NAMES = ("easy", "ident", "hard")
FLOAT_FMT = "%.10g"


@dataclass
class ExperimentConfig:
    env: GridworldSpec
    n: int = 50_000
    regime: str = "iid-restart"
    solver: SolverConfig = field(default_factory=SolverConfig)
    baseline: MaxEntConfig = field(default_factory=MaxEntConfig)
    reruns: int = 20
    base_seed: int = 0
    weighting: str = "uniform"
    ref_action: int = 0
    name: str = "experiment"


def builtin_experiment(name: str, reruns: int | None = None,
                       base_seed: int | None = None) -> ExperimentConfig:
    """The three packaged benchmark configurations."""
    if name not in BUILTIN_NAMES:
        raise ValueError(f"unknown builtin experiment {name!r}; choose from {BUILTIN_NAMES}")
    if name == "easy":
        env = GridworldSpec(4, 4, topology="torus", reward_kind="linear", seed=11,
                            min_action_prob=0.03)
        baseline = MaxEntConfig(step_size=0.05, optimizer="adam", max_epochs=300,
                                patience=40, schedule="constant")
    elif name == "ident":
        env = GridworldSpec(8, 8, topology="bounded", reward_kind="tabular-linear",
                            seed=23, min_action_prob=0.03)
        baseline = MaxEntConfig(step_size=0.05, optimizer="adam", max_epochs=150,
                                patience=40, schedule="constant")
    else:
        env = GridworldSpec(8, 8, topology="bounded", reward_kind="nonlinear", seed=37,
                            min_action_prob=0.03)
        baseline = MaxEntConfig(step_size=0.05, optimizer="adam", max_epochs=150,
                                patience=40, schedule="constant")
    solver = SolverConfig(gamma=env.gamma,
                          classifier=ClassifierSpec(smoothing_alpha=1.0))
    cfg = ExperimentConfig(env=env, solver=solver, baseline=baseline, name=name)
    if reruns is not None:
        cfg.reruns = reruns
    if base_seed is not None:
        cfg.base_seed = base_seed
    return cfg


def _metric_weights(cfg: ExperimentConfig, dataset, n_states: int):
    if cfg.weighting == "uniform":
        return None
    freq = joint_frequency(dataset.states, dataset.actions, n_states,
                           dataset.meta["n_actions"])
    return freq.sum(axis=1)


def run_rerun(cfg: ExperimentConfig, mdp, r_true, fmap, pi_exp, rerun: int):
    """One seeded rerun: sample, fit both methods, score both."""
    seed = cfg.base_seed + rerun
    dataset = sample_transitions(mdp, pi_exp, cfg.n, regime=cfg.regime,
                                 seed=seed, env_id=cfg.name)
    weights = _metric_weights(cfg, dataset, mdp.n_states)
    if cfg.solver.split:
        solution = split_classify_regress(dataset, cfg.solver)
    else:
        solution = classify_then_regress(dataset, cfg.solver)
    ours = evaluate(mdp, r_true, pi_exp, solution.r, solution.v,
                    weights=weights, ref_action=cfg.ref_action)
    fit = maxent_fit(mdp, fmap.phi, dataset, cfg.baseline)
    base = evaluate(mdp, r_true, pi_exp, fit.r_hat,
                    weights=weights, ref_action=cfg.ref_action)
    return {"MaxEnt": base, "Ours": ours}


def run_experiment(cfg: ExperimentConfig, out_dir=None, quiet: bool = False):
    """Run all reruns, aggregate mean +/- SE, and write the output files.

    Individual rerun failures are recorded and excluded; the run aborts if
    fewer than 80% succeed. Returns (rows, summary) where rows is the long
    table [(rerun, method, metric, value)] and summary maps
    (method, metric) -> (mean, se, count).
    """
    if cfg.reruns < 1:
        raise ValueError("reruns must be at least 1")
    if cfg.weighting not in WEIGHTINGS:
        raise ValueError(f"unknown weighting {cfg.weighting!r}")
    mdp, r_true, fmap = build_env(cfg.env)
    pi_exp = expert_policy(mdp, r_true)

    rows = []
    failures = []
    for rerun in range(cfg.reruns):
        try:
            reports = run_rerun(cfg, mdp, r_true, fmap, pi_exp, rerun)
        except Exception as exc:  # noqa: BLE001 - rerun isolation is the contract
            failures.append((rerun, repr(exc)))
            if not quiet:
                print(f"warning: rerun {rerun} failed: {exc!r}", file=sys.stderr)
            continue
        for method in ("MaxEnt", "Ours"):
            for metric, value in reports[method].as_dict().items():
                rows.append((rerun, method, metric, value))
        if not quiet:
            ours = reports["Ours"]
            print(f"rerun {rerun}: Ours corr={ours.corr_qdiff:.4f} kl={ours.kl:.5f}")

    n_ok = cfg.reruns - len(failures)
    if n_ok < math.ceil(0.8 * cfg.reruns):
        raise RuntimeError(
            f"only {n_ok}/{cfg.reruns} reruns succeeded (need 80%); failures: {failures}"
        )

    summary = summarize(rows)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_raw_csv(rows, os.path.join(out_dir, "raw.csv"))
        write_summary_csv(summary, os.path.join(out_dir, "summary.csv"))
        with open(os.path.join(out_dir, "table.md"), "w") as fh:
            fh.write(format_markdown_table(cfg.name, summary))
    return rows, summary


def summarize(rows):
    """Aggregate the long table to (method, metric) -> (mean, se, n_finite)."""
    summary = {}
    for method in ("MaxEnt", "Ours"):
        for metric in METRIC_NAMES:
            vals = np.array([v for (_, m, k, v) in rows
                             if m == method and k == metric and np.isfinite(v)])
            if vals.size == 0:
                summary[(method, metric)] = (float("nan"), float("nan"), 0)
            else:
                se = float(vals.std(ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else float("nan")
                summary[(method, metric)] = (float(vals.mean()), se, int(vals.size))
    return summary


def write_raw_csv(rows, path) -> None:
    with open(path, "w") as fh:
        fh.write("rerun,method,metric,value\n")
        for rerun, method, metric, value in rows:
            fh.write(f"{rerun},{method},{metric},{FLOAT_FMT % value}\n")


def write_summary_csv(summary, path) -> None:
    with open(path, "w") as fh:
        fh.write("method,metric,mean,se,n\n")
        for method in ("MaxEnt", "Ours"):
            for metric in METRIC_NAMES:
                mean, se, n = summary[(method, metric)]
                fh.write(f"{method},{metric},{FLOAT_FMT % mean},{FLOAT_FMT % se},{n}\n")


def format_markdown_table(name: str, summary) -> str:
    """Benchmark table: one row per method, columns RMSE, Corr, KL, TV, Top-1."""
    lines = [
        "| Exp. | Method | RMSE | Corr | KL | TV | Top-1 |",
        "|---|---|---|---|---|---|---|",
    ]
    for method in ("MaxEnt", "Ours"):
        cells = []
        for metric in METRIC_NAMES:
            mean, se, _ = summary[(method, metric)]
            cells.append(f"{mean:.4f} ± {se:.4f}" if np.isfinite(se) else f"{mean:.4f}")
        lines.append(f"| {name} | {method} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def _coerce(value: str, target):
    if target is bool:
        low = value.strip().lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ValueError(f"expected a boolean, got {value!r}")
    if target is int:
        return int(value)
    if target is float:
        return float(value)
    return value


_ENV_KEYS = {"width": int, "height": int, "topology": str, "reward_kind": str,
             "seed": int, "gamma": float, "reward_scale": float,
             "min_action_prob": float, "move_noise": float, "feature_dim": int}
_SOLVER_SIMPLE = {"gamma": float, "split": bool, "folds": int}
_CLASSIFIER_KEYS = {"classifier_kind": ("kind", str),
                    "smoothing_alpha": ("smoothing_alpha", float),
                    "prob_floor": ("prob_floor", float),
                    "classifier_epochs": ("epochs", int),
                    "classifier_learning_rate": ("learning_rate", float),
                    "classifier_l2": ("l2", float)}
_REGRESSOR_KEYS = {"regressor_kind": ("kind", str),
                   "ridge_lambda": ("ridge_lambda", float),
                   "fallback": ("fallback", float)}
_BASELINE_KEYS = {"step_size": float, "schedule": str, "grad_clip": float,
                  "max_epochs": int, "patience": int, "tol": float, "vi_tol": float,
                  "init": str, "init_seed": int, "init_scale": float, "optimizer": str}
_EVAL_KEYS = {"n": int, "regime": str, "reruns": int, "base_seed": int,
              "weighting": str, "ref_action": int, "name": str}


def parse_config(path) -> ExperimentConfig:
    """Read the sectioned key=value config format (sections env / solver /
    baseline / eval); unknown keys are an error."""
    if not os.path.exists(path):
        raise FileNotFoundError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.read(path)

    env_kwargs = {}
    for key, value in parser.items("env") if parser.has_section("env") else []:
        if key not in _ENV_KEYS:
            raise ValueError(f"unknown [env] key {key!r}")
        env_kwargs[key] = _coerce(value, _ENV_KEYS[key])
    if "width" not in env_kwargs or "height" not in env_kwargs:
        raise ValueError("config [env] section must set width and height")
    env = GridworldSpec(**env_kwargs)

    solver = SolverConfig(gamma=env.gamma)
    clf_kwargs, reg_kwargs = {}, {}
    mu_kind, mu_ref = "uniform", 0
    for key, value in parser.items("solver") if parser.has_section("solver") else []:
        if key == "k":
            solver.K = value if value == "auto" else int(value)
        elif key == "mu":
            mu_kind = value
        elif key == "mu_ref_action":
            mu_ref = int(value)
        elif key in _SOLVER_SIMPLE:
            setattr(solver, key, _coerce(value, _SOLVER_SIMPLE[key]))
        elif key in _CLASSIFIER_KEYS:
            name, typ = _CLASSIFIER_KEYS[key]
            clf_kwargs[name] = _coerce(value, typ)
        elif key in _REGRESSOR_KEYS:
            name, typ = _REGRESSOR_KEYS[key]
            reg_kwargs[name] = _coerce(value, typ)
        else:
            raise ValueError(f"unknown [solver] key {key!r}")
    solver.mu = NormalizationMeasure(kind=mu_kind, ref_action=mu_ref)
    solver.classifier = ClassifierSpec(**clf_kwargs)
    solver.regressor = RegressorSpec(**reg_kwargs)

    baseline_kwargs = {}
    for key, value in parser.items("baseline") if parser.has_section("baseline") else []:
        if key not in _BASELINE_KEYS:
            raise ValueError(f"unknown [baseline] key {key!r}")
        baseline_kwargs[key] = _coerce(value, _BASELINE_KEYS[key])
    baseline = MaxEntConfig(**baseline_kwargs)

    cfg = ExperimentConfig(env=env, solver=solver, baseline=baseline)
    for key, value in parser.items("eval") if parser.has_section("eval") else []:
        if key not in _EVAL_KEYS:
            raise ValueError(f"unknown [eval] key {key!r}")
        setattr(cfg, key, _coerce(value, _EVAL_KEYS[key]))
    return cfg
