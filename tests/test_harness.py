import numpy as np
import pytest

from softirl.harness import (
    ExperimentConfig,
    builtin_experiment,
    format_markdown_table,
    parse_config,
    run_experiment,
)
from softirl.envs import GridworldSpec
from softirl.maxent import MaxEntConfig
from softirl.oracles import ClassifierSpec
from softirl.solver import SolverConfig

TINY_CONFIG = """\
[env]
width = 2
height = 2
topology = torus          ; inline comments are allowed
reward_kind = tabular-linear
seed = 3
gamma = 0.9
min_action_prob = 0.05

[solver]
k = auto
mu = uniform
smoothing_alpha = 1.0

[baseline]
step_size = 0.05
optimizer = adam
schedule = constant
max_epochs = 40
patience = 20

[eval]
n = 3000
reruns = 2
base_seed = 1
weighting = uniform
name = tiny
"""


def tiny_experiment(**kw):
    cfg = ExperimentConfig(
        env=GridworldSpec(2, 2, topology="torus", seed=3, gamma=0.9,
                          min_action_prob=0.05),
        n=3000,
        solver=SolverConfig(gamma=0.9, classifier=ClassifierSpec(smoothing_alpha=1.0)),
        baseline=MaxEntConfig(step_size=0.05, optimizer="adam", schedule="constant",
                              max_epochs=40, patience=20),
        reruns=2,
        base_seed=1,
        name="tiny",
    )
    for key, val in kw.items():
        setattr(cfg, key, val)
    return cfg


class TestParseConfig:
    def test_round_trip_of_golden_config(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(TINY_CONFIG)
        cfg = parse_config(path)
        assert cfg.env.width == 2 and cfg.env.gamma == 0.9
        assert cfg.solver.K == "auto"
        assert cfg.solver.classifier.smoothing_alpha == 1.0
        assert cfg.baseline.optimizer == "adam"
        assert cfg.n == 3000 and cfg.reruns == 2 and cfg.name == "tiny"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[env]\nwidth = 2\nheight = 2\nbogus = 1\n")
        with pytest.raises(ValueError, match="bogus"):
            parse_config(path)

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            parse_config("/nonexistent/cfg.ini")

    def test_readme_golden_config_parses(self, tmp_path):
        import re
        from pathlib import Path

        readme = Path(__file__).resolve().parent.parent / "README.md"
        block = re.search(r"```ini\n(.*?)```", readme.read_text(), re.S).group(1)
        path = tmp_path / "golden.ini"
        path.write_text(block)
        cfg = parse_config(path)
        assert cfg.env.topology == "bounded"
        assert cfg.solver.mu.kind == "uniform"
        assert cfg.baseline.optimizer == "adam"
        assert cfg.name == "ident"

    def test_every_key_parses_to_its_declared_type(self, tmp_path):
        from dataclasses import fields

        from softirl.harness import _BASELINE_KEYS, _ENV_KEYS, _EVAL_KEYS

        assert set(_ENV_KEYS) == {f.name for f in fields(GridworldSpec)}
        assert set(_BASELINE_KEYS) == {f.name for f in fields(MaxEntConfig)}
        # "1" is a valid int, float and str, so only the declared type decides
        sections = (("env", _ENV_KEYS, lambda cfg: cfg.env),
                    ("baseline", _BASELINE_KEYS, lambda cfg: cfg.baseline),
                    ("eval", _EVAL_KEYS, lambda cfg: cfg))
        text = "".join(f"[{name}]\n" + "".join(f"{key} = 1\n" for key in table)
                       for name, table, _ in sections)
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        cfg = parse_config(path)
        for _, table, owner in sections:
            for key, typ in table.items():
                assert type(getattr(owner(cfg), key)) is typ, key


class TestRunExperiment:
    def test_outputs_and_determinism(self, tmp_path):
        cfg = tiny_experiment()
        run_experiment(cfg, out_dir=tmp_path / "a", quiet=True)
        run_experiment(cfg, out_dir=tmp_path / "b", quiet=True)
        for name in ("raw.csv", "summary.csv", "table.md"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_raw_csv_layout_and_se_recomputable(self, tmp_path):
        cfg = tiny_experiment(reruns=3)
        rows, summary = run_experiment(cfg, out_dir=tmp_path, quiet=True)
        lines = (tmp_path / "raw.csv").read_text().strip().splitlines()
        assert lines[0] == "rerun,method,metric,value"
        # 3 reruns x 2 methods x 5 metrics
        assert len(lines) == 1 + 3 * 2 * 5
        vals = [float(line.split(",")[3]) for line in lines[1:]
                if line.split(",")[1] == "Ours" and line.split(",")[2] == "kl"]
        mean, se, n = summary[("Ours", "kl")]
        assert n == 3
        assert abs(np.mean(vals) - mean) <= 1e-9
        assert abs(np.std(vals, ddof=1) / np.sqrt(3) - se) <= 1e-9

    def test_markdown_table_shape(self):
        cfg = tiny_experiment()
        rows, summary = run_experiment(cfg, quiet=True)
        table = format_markdown_table("tiny", summary)
        lines = table.strip().splitlines()
        assert len(lines) == 4  # header, rule, two method rows
        assert lines[0].count("|") == 8  # Exp, Method, five metrics
        assert "MaxEnt" in lines[2] and "Ours" in lines[3]

    def test_empirical_weighting_runs(self):
        cfg = tiny_experiment(weighting="empirical", reruns=1)
        rows, summary = run_experiment(cfg, quiet=True)
        assert np.isfinite(summary[("Ours", "kl")][0])

    def test_failure_rate_guard(self):
        cfg = tiny_experiment(reruns=2)
        cfg.solver.K = -1  # force every rerun to fail
        with pytest.raises((RuntimeError, ValueError)):
            run_experiment(cfg, quiet=True)


class TestBuiltin:
    def test_names(self):
        for name in ("easy", "ident", "hard"):
            cfg = builtin_experiment(name, reruns=2, base_seed=5)
            assert cfg.reruns == 2 and cfg.base_seed == 5
        with pytest.raises(ValueError):
            builtin_experiment("medium")

    def test_env_shapes(self):
        assert builtin_experiment("easy").env.n_states == 16
        assert builtin_experiment("ident").env.n_states == 64
        assert builtin_experiment("hard").env.reward_kind == "nonlinear"
