"""Experiment orchestration: seeded reruns, aggregation, and file outputs.

`draw` samples a config's dataset and `score` scores an estimate against its
env's truth (reward, expert policy and Q), which `envs.truth` builds and
solves once per spec and process; the CLI and the sweep script use both. A
run draws the dataset per rerun with seed base_seed + rerun index, fits both
methods, and aggregates the five metrics into raw.csv / summary.csv /
table.md. Each rerun is one job, `_rerun`: it draws, solves and scores
Ours, then fits MaxEnt to the sample's joint frequency table and scores it;
`maxent.run_lockstep` runs the jobs of all reruns side by side. Every
rerun computes the bits it would alone, and rows, messages and failures are
reported in index order, so output files are byte-reproducible.
"""

from __future__ import annotations

import configparser
import math
import os
import sys
from collections import defaultdict
from dataclasses import dataclass, field, replace

import numpy as np

from softirl.envs import REGIMES, GridworldSpec, sample_transitions, truth
from softirl.envs import build_env  # noqa: F401 - perfbench/spans.py wraps it by name here
from softirl.envs import expert_policy  # noqa: F401 - perfbench/spans.py wraps it by name here
from softirl.maxent import MaxEntConfig, ascent, run_lockstep
from softirl.maxent import maxent_fit  # noqa: F401 - perfbench/spans.py wraps it by name here
from softirl.mdp import joint_frequency
from softirl.metrics import METRIC_NAMES, evaluate
from softirl.oracles import ClassifierSpec
from softirl.solver import (
    NormalizationMeasure,
    SolverConfig,
    classify_then_regress,
    split_classify_regress,
)

# name -> (width = height, topology, reward_kind, env seed, MaxEnt max_epochs)
_BUILTINS = {"easy": (4, "torus", "linear", 11, 300),
             "ident": (8, "bounded", "tabular-linear", 23, 150),
             "hard": (8, "bounded", "nonlinear", 37, 150)}
BUILTIN_NAMES = tuple(_BUILTINS)
FLOAT_FMT = "%.10g"


@dataclass
class ExperimentConfig:
    """One experiment; it also checks the solver values bounded by the
    env's action count or by n, naming each by its path from here."""

    env: GridworldSpec
    n: int = 50_000
    regime: str = "iid-restart"
    solver: SolverConfig = field(default_factory=SolverConfig)
    split: bool = False
    baseline: MaxEntConfig = field(default_factory=MaxEntConfig)
    reruns: int = 20
    base_seed: int = 0
    name: str = "experiment"

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ValueError(f"regime: must be one of {REGIMES}, got {self.regime!r}")
        for name in ("n", "reruns"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}: must be at least 1, got {getattr(self, name)}")
        if self.base_seed < 0:
            raise ValueError(f"base_seed: must be nonnegative, got {self.base_seed}")
        if any(ch.isspace() for ch in self.name):  # the name is a dataset header token
            raise ValueError(f"name: must not contain whitespace, got {self.name!r}")
        if self.split and (k := self.solver.steps(self.n)) > self.n // 2:
            raise ValueError(f"solver.K: split needs at most n // 2 = {self.n // 2} steps, "
                             f"one regression fold each, got {k}")
        action = self.solver.mu.ref_action
        if not 0 <= action < self.env.n_actions:
            raise ValueError(
                f"mu.ref_action: {action} is not an action index in [0, {self.env.n_actions})")


def builtin_experiment(name: str, reruns: int | None = None,
                       base_seed: int | None = None) -> ExperimentConfig:
    """The three packaged benchmark configurations, built from the keys a
    config file describing them would carry."""
    if name not in _BUILTINS:
        raise ValueError(f"unknown builtin experiment {name!r}; choose from {BUILTIN_NAMES}")
    width, topology, reward_kind, seed, max_epochs = _BUILTINS[name]
    run = {"name": name, "reruns": reruns, "base_seed": base_seed}
    return _experiment({
        "env": {"width": width, "height": width, "topology": topology,
                "reward_kind": reward_kind, "seed": seed, "min_action_prob": 0.03},
        "solver": {"smoothing_alpha": 1.0},
        "baseline": {"max_epochs": max_epochs},
        "eval": {key: value for key, value in run.items() if value is not None},
    })


def draw(cfg: ExperimentConfig, seed: int):
    """The config's n records, of its regime, from its env's expert, drawn with `seed`."""
    mdp, _, _, _, pi = truth(cfg.env)
    return sample_transitions(mdp, pi, cfg.n, regime=cfg.regime, seed=seed, env_id=cfg.name)


def score(cfg: ExperimentConfig, r_hat, v_hat=None):
    """`evaluate` of an estimate, with its soft value if it has one, against the env's truth."""
    mdp, r_true, _, q_true, pi = truth(cfg.env)
    return evaluate(mdp, r_true, pi, r_hat, v_hat=v_hat, q_true=q_true)


def _rerun(cfg: ExperimentConfig, mdp, phi, rerun: int):
    """One rerun as a `run_lockstep` job: draw, solve and score Ours, then
    fit MaxEnt to the sample's joint frequency table and score it. Returns
    {method: report}."""
    dataset = draw(cfg, cfg.base_seed + rerun)
    solve = split_classify_regress if cfg.split else classify_then_regress
    solution = solve(dataset, cfg.solver)
    ours = score(cfg, solution.r, solution.v)
    freq = joint_frequency(dataset.states, dataset.actions, mdp.n_states, mdp.n_actions)
    del dataset, solution  # while MaxEnt runs, a rerun holds only its table
    fit = yield from ascent(mdp, phi, freq, cfg.baseline)
    return {"MaxEnt": score(cfg, fit.r_hat), "Ours": ours}


def run_experiment(cfg: ExperimentConfig, out_dir=None, quiet: bool = False):
    """Run all reruns, aggregate mean +/- SE, and write the output files.

    Individual rerun failures are recorded and excluded; the run aborts if
    fewer than 80% succeed. Returns (rows, summary) where rows is the long
    table [(rerun, method, metric, value)] and summary maps
    (method, metric) -> (mean, se, count). The config is rebuilt first, so
    a value assigned after it was built is checked before anything runs.
    """
    cfg = replace(cfg, solver=replace(cfg.solver), baseline=replace(cfg.baseline))
    mdp, _, phi, _, _ = truth(cfg.env)
    reports = run_lockstep(mdp, [_rerun(cfg, mdp, phi, rerun) for rerun in range(cfg.reruns)])

    rows, failures = [], []
    for rerun, report in enumerate(reports):
        if isinstance(report, Exception):
            failures.append((rerun, repr(report)))
            if not quiet:
                print(f"warning: rerun {rerun} failed: {report!r}", file=sys.stderr)
            continue
        for method in ("MaxEnt", "Ours"):
            for metric, value in report[method].as_dict().items():
                rows.append((rerun, method, metric, value))
        if not quiet:
            ours = report["Ours"]
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


def _boolean(value):
    """[solver] split: a boolean word configparser accepts (true/false, yes/no, on/off, 1/0)."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[value.lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got {value!r}") from None


def _k(value):
    """[solver] k: an iteration count, or "auto"."""
    return value if value == "auto" else int(value)


# [section] key -> (target, field, parser): parser(value) sets the field of the target
# spec (eval fields are the ExperimentConfig's own, as is [solver] split's).
_KEYS = {
    "env": {key: ("env", key, typ) for key, typ in (
        ("width", int), ("height", int), ("topology", str), ("reward_kind", str),
        ("seed", int), ("gamma", float), ("reward_scale", float),
        ("min_action_prob", float), ("move_noise", float))},
    "solver": {
        "k": ("solver", "K", _k),
        "split": ("eval", "split", _boolean),
        "mu": ("mu", "kind", str),
        "mu_ref_action": ("mu", "ref_action", int),
        "classifier_kind": ("classifier", "kind", str),
        "smoothing_alpha": ("classifier", "smoothing_alpha", float),
    },
    "baseline": {key: ("baseline", key, typ) for key, typ in (("max_epochs", int), ("tol", float))},
    "eval": {key: ("eval", key, typ) for key, typ in (
        ("n", int), ("regime", str), ("reruns", int), ("base_seed", int), ("name", str))},
}


_KEY_OF = {(target, name): f"[{section}] {key}"
           for section, table in _KEYS.items() for key, (target, name, _) in table.items()}


def _build(target: str, cls, **kwargs):
    """cls(**kwargs), whose check messages start with a field's path from
    `target`, with that path renamed to the config key that sets it."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        path, _, reason = str(exc).partition(": ")
        owner, _, name = path.rpartition(".")
        raise ValueError(f"{_KEY_OF[owner or target, name]}: {reason}") from None


def _experiment(sections) -> ExperimentConfig:
    """Build an ExperimentConfig from {section: {key: value}} through `_KEYS`;
    unknown sections and keys are errors, and so is a value its spec
    rejects. The solver discounts with the env's gamma, the one every score
    uses."""
    kwargs = defaultdict(dict)
    for section, items in sections.items():
        if section not in _KEYS:
            raise ValueError(f"unknown config section [{section}]")
        for key, value in items.items():
            if key not in _KEYS[section]:
                raise ValueError(f"unknown [{section}] key {key!r}")
            target, name, parse = _KEYS[section][key]
            try:
                kwargs[target][name] = parse(value)
            except ValueError as exc:
                raise ValueError(f"[{section}] {key}: {exc}") from None
    if "width" not in kwargs["env"] or "height" not in kwargs["env"]:
        raise ValueError("config [env] section must set width and height")
    env = _build("env", GridworldSpec, **kwargs["env"])
    solver = _build("solver", SolverConfig, gamma=env.gamma,
                    mu=_build("mu", NormalizationMeasure, **kwargs["mu"]),
                    classifier=_build("classifier", ClassifierSpec, **kwargs["classifier"]),
                    **kwargs["solver"])
    baseline = _build("baseline", MaxEntConfig, **kwargs["baseline"])
    return _build("eval", ExperimentConfig, env=env, solver=solver, baseline=baseline,
                  **kwargs["eval"])


def parse_config(path, **overrides) -> ExperimentConfig:
    """Read the sectioned key = value config format (sections env / solver /
    baseline / eval); values are read raw, so `%` is plain text, and
    unknown sections and keys are errors. `overrides` that are not None set
    [eval] keys over the file's and are checked as those."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    with open(path) as fh:  # unlike parser.read, raises the OSError of a path it cannot open
        try:
            parser.read_file(fh)
        except configparser.ParsingError as exc:  # its message goes on with the raw lines
            line = exc.lineno if hasattr(exc, "lineno") else exc.errors[0][0]
            raise ValueError(f"{path}: malformed config: {str(exc).splitlines()[0]} "
                             f"(line {line})") from None
        except configparser.Error as exc:  # a duplicate, whose message names its line
            raise ValueError(f"{path}: malformed config: {exc}") from None
    if parser.defaults():  # configparser would merge its keys into every section
        raise ValueError("unknown config section [DEFAULT]")
    sections = {name: dict(parser.items(name)) for name in parser.sections()}
    sections.setdefault("eval", {}).update({k: v for k, v in overrides.items() if v is not None})
    return _experiment(sections)
