import os
import subprocess
import sys
from pathlib import Path

import pytest

import softirl
from softirl.cli import main

TINY_CONFIG = """\
[env]
width = 2
height = 2
topology = torus
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
max_epochs = 30

[eval]
n = 2000
reruns = 2
base_seed = 1
name = tiny
"""


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text(TINY_CONFIG)
    return str(path)


class TestUsageErrors:
    def test_unknown_flag_exits_one(self, capsys):
        assert main(["reproduce", "easy", "--bogus"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_exits_one(self):
        assert main(["frobnicate"]) == 1

    def test_reproduce_takes_exactly_one_source(self, cfg_path, capsys):
        assert main(["reproduce"]) == 1
        assert main(["reproduce", "easy", "--config", cfg_path]) == 1
        assert "exactly one" in capsys.readouterr().err

    def test_no_arguments_exits_one(self):
        assert main([]) == 1

    # only gen-data, diagnose and reproduce sample a dataset, so only they take a seed
    @pytest.mark.parametrize("command", [["solve", "data.txt"], ["baseline", "data.txt"],
                                         ["eval", "sol"]], ids=lambda c: c[0])
    def test_seed_is_not_an_option_of_commands_that_ignore_it(self, cfg_path, capsys, command):
        assert main([*command, "--config", cfg_path, "--seed", "3"]) == 1
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


class TestRuntimeErrors:
    def test_solve_missing_dataset_exits_two(self, cfg_path, capsys):
        code = main(["solve", "/no/such/data.txt", "--config", cfg_path])
        assert code == 2
        assert "/no/such/data.txt" in capsys.readouterr().err

    def test_bad_config_exits_two(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[env]\nwidth = 2\nheight = 2\nbogus = 1\n")
        assert main(["gen-data", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("line, bad, where, command", [
        ("width = 2", "width = 8x", "[env] width", ["gen-data"]),
        ("mu = uniform", "mu = uniform\nsplit = maybe", "[solver] split", ["gen-data"]),
        # an action index out of [0, 5) is a config error, before any data or solution is read
        ("name = tiny", "name = tiny\nref_action = 7", "[eval] ref_action", ["eval", "sol"]),
        ("name = tiny", "name = tiny\nref_action = 7", "[eval] ref_action", ["reproduce"]),
        ("mu = uniform", "mu = point-mass\nmu_ref_action = -1", "[solver] mu_ref_action",
         ["gen-data"]),
        # MaxEnt's settings are checked at parse time, not by failing every rerun's fit
        ("step_size = 0.05", "step_size = 0", "[baseline] step_size", ["reproduce"]),
        ("max_epochs = 30", "max_epochs = -1", "[baseline] max_epochs", ["reproduce"]),
        # so are the solver's iteration and fold counts and the env's values
        ("k = auto", "k = -1", "[solver] k", ["reproduce"]),
        ("mu = uniform", "mu = uniform\nsplit = true\nfolds = 0", "[solver] folds", ["reproduce"]),
        ("topology = torus", "topology = cube", "[env] topology", ["reproduce"]),
        ("reward_kind = tabular-linear", "reward_kind = cubic", "[env] reward_kind",
         ["gen-data"]),
        ("seed = 3", "seed = 3\nmove_noise = 1.0", "[env] move_noise", ["gen-data"]),
        ("height = 2", "height = 0", "[env] height", ["gen-data"]),
        # and so are the sampler's, measure's and oracles' values, not only
        # inside every rerun once its data is drawn
        ("n = 2000", "n = 0", "[eval] n", ["reproduce"]),
        ("name = tiny", "name = tiny\nregime = chain", "[eval] regime", ["reproduce"]),
        ("mu = uniform", "mu = median", "[solver] mu", ["reproduce"]),
        ("mu = uniform", "mu = uniform\nclassifier_kind = forest", "[solver] classifier_kind",
         ["reproduce"]),
        ("smoothing_alpha = 1.0", "smoothing_alpha = -1", "[solver] smoothing_alpha",
         ["reproduce"]),
        ("mu = uniform", "mu = uniform\nprob_floor = 0", "[solver] prob_floor", ["reproduce"]),
        # a floor of 1/5 or more leaves no room for the gridworld's five actions
        ("mu = uniform", "mu = uniform\nprob_floor = 0.5", "[solver] prob_floor",
         ["reproduce"]),
        ("mu = uniform", "mu = uniform\nfallback = nan", "[solver] fallback", ["reproduce"]),
        ("name = tiny", "name = tiny\nweighting = states", "[eval] weighting", ["reproduce"]),
        ("reruns = 2", "reruns = 0", "[eval] reruns", ["reproduce"]),
        ("mu = uniform", "mu = point-mass\nmu_ref_action = 5", "[solver] mu_ref_action",
         ["gen-data"]),
    ], ids=["env-width", "solver-split", "eval-ref-action", "reproduce-ref-action",
            "solver-mu-ref-action", "baseline-step-size", "baseline-max-epochs",
            "solver-k", "solver-folds", "env-topology", "env-reward-kind", "env-move-noise",
            "env-height", "eval-n", "eval-regime", "solver-mu", "solver-classifier-kind",
            "solver-smoothing-alpha", "solver-prob-floor", "solver-prob-floor-above-uniform",
            "solver-fallback", "eval-weighting", "eval-reruns", "solver-mu-ref-action-above"])
    def test_malformed_value_names_its_key(self, tmp_path, capsys, line, bad, where, command):
        path = tmp_path / "malformed.ini"
        path.write_text(TINY_CONFIG.replace(line, bad))
        assert main([*command, "--config", str(path), "--quiet"]) == 2
        assert f"{where}: " in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("baseline", "init", "zeros"),
        ("baseline", "init_seed", "0"),
        ("baseline", "init_scale", "0.01"),
        ("baseline", "grad_clip", "10.0"),
        ("baseline", "vi_tol", "1e-8"),
        ("env", "feature_dim", "20"),
        ("solver", "regressor_kind", "ridge"),
        ("solver", "ridge_lambda", "0.1"),
        ("solver", "gamma", "0.9"),
        ("solver", "classifier_learning_rate", "0.1"),
        ("solver", "classifier_l2", "0.01"),
    ])
    def test_retired_key_is_unknown(self, tmp_path, capsys, section, key, value):
        from softirl.harness import parse_config

        path = tmp_path / "retired.ini"
        path.write_text(TINY_CONFIG.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n"))
        message = f"unknown [{section}] key {key!r}"
        with pytest.raises(ValueError) as err:
            parse_config(path)
        assert str(err.value) == message
        assert main(["solve", str(tmp_path / "data.txt"), "--config", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_reruns_override_is_checked(self, cfg_path, tmp_path, capsys):
        out = str(tmp_path / "res")
        assert main(["reproduce", "--config", cfg_path, "--out", out, "--reruns", "0"]) == 2
        assert "reruns: must be at least 1, got 0" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_misspelled_section_is_unknown(self, tmp_path, capsys):
        from softirl.harness import parse_config

        path = tmp_path / "misspelled.ini"
        path.write_text(TINY_CONFIG + "\n[solvr]\nsplit = true\n")
        message = "unknown config section [solvr]"
        with pytest.raises(ValueError) as err:
            parse_config(path)
        assert str(err.value) == message
        assert main(["solve", str(tmp_path / "data.txt"), "--config", str(path)]) == 2
        assert message in capsys.readouterr().err


def test_runtime_imports_leave_scipy_out():
    src = os.path.dirname(os.path.dirname(softirl.__file__))
    code = "import sys, softirl.harness, softirl.cli; print('scipy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout.strip() == "False"


class TestPipeline:
    def test_gen_solve_eval_round_trip(self, cfg_path, tmp_path, capsys):
        data = str(tmp_path / "data.txt")
        soldir = str(tmp_path / "sol")
        metrics = str(tmp_path / "metrics.csv")
        assert main(["gen-data", "--config", cfg_path, "--out", data,
                     "--seed", "4", "--quiet"]) == 0
        assert main(["solve", data, "--config", cfg_path, "--out", soldir,
                     "--quiet"]) == 0
        assert os.path.exists(os.path.join(soldir, "r.csv"))
        assert os.path.exists(os.path.join(soldir, "diagnostics.json"))
        assert main(["eval", soldir, "--config", cfg_path, "--out", metrics]) == 0
        out = capsys.readouterr().out
        assert "kl," in out
        body = dict(line.split(",") for line in
                    Path(metrics).read_text().strip().splitlines()[1:])
        assert float(body["kl"]) >= 0.0

    def test_commands_call_the_module_attributes(self, tmp_path, monkeypatch):
        """A tracer patches attributes of `softirl.envs`, `softirl.solver` and
        `softirl.metrics`; the commands must call the patched names, not
        copies bound when the CLI was imported."""
        from softirl import envs, metrics, solver

        calls = {}

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return counted

        for module, name in ((envs, "build_env"), (solver, "split_classify_regress"),
                             (metrics, "evaluate")):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        split_cfg = tmp_path / "split.ini"
        split_cfg.write_text(TINY_CONFIG.replace("[solver]\n", "[solver]\nsplit = true\n"))
        common = ["--config", str(split_cfg), "--quiet"]
        data, soldir = str(tmp_path / "data.txt"), str(tmp_path / "sol")
        assert main(["gen-data", *common, "--out", data]) == 0
        assert main(["solve", data, *common, "--out", soldir]) == 0
        assert main(["eval", soldir, *common, "--out", str(tmp_path / "m.csv")]) == 0
        # gen-data and eval build the environment, solve fits, eval scores
        assert calls == {"build_env": 2, "split_classify_regress": 1, "evaluate": 1}

    def test_eval_on_exact_solution_gives_zero_kl(self, cfg_path, tmp_path):
        from softirl.envs import build_env, expert_policy
        from softirl.harness import parse_config
        from softirl.solver import NormalizationMeasure, exact_population_solver, save_solution

        cfg = parse_config(cfg_path)
        mdp, r_true, _ = build_env(cfg.env)
        pi = expert_policy(mdp, r_true)
        sol = exact_population_solver(mdp, pi, NormalizationMeasure("uniform"))
        soldir = tmp_path / "exact"
        save_solution(sol, soldir)
        metrics = tmp_path / "m.csv"
        assert main(["eval", str(soldir), "--config", cfg_path,
                     "--out", str(metrics), "--quiet"]) == 0
        body = dict(line.split(",") for line in
                    metrics.read_text().strip().splitlines()[1:])
        assert float(body["kl"]) <= 1e-8
        assert float(body["top1"]) == 1.0

    def test_baseline_outputs(self, cfg_path, tmp_path):
        data = str(tmp_path / "data.txt")
        bdir = str(tmp_path / "base")
        assert main(["gen-data", "--config", cfg_path, "--out", data, "--quiet"]) == 0
        assert main(["baseline", data, "--config", cfg_path, "--out", bdir,
                     "--quiet"]) == 0
        for name in ("theta.csv", "r.csv", "loss.csv"):
            assert os.path.exists(os.path.join(bdir, name))

    def test_diagnose_writes_contraction_csv(self, cfg_path, tmp_path, capsys):
        out = str(tmp_path / "diag.csv")
        assert main(["diagnose", "--config", cfg_path, "--out", out]) == 0
        lines = Path(out).read_text().strip().splitlines()
        assert lines[0] == "k,eta,sup_dist_to_exact_v,gamma_pow_k"
        assert len(lines) >= 3
        # distance to the exact fixed point shrinks over iterations
        first = float(lines[1].split(",")[2])
        last = float(lines[-1].split(",")[2])
        assert last <= first
        assert "kappa_hat" in capsys.readouterr().out

    def test_diagnose_warns_that_split_is_not_traced(self, cfg_path, tmp_path, capsys):
        from softirl.cli import SPLIT_NOT_TRACED

        split_cfg = tmp_path / "split.ini"
        split_cfg.write_text(TINY_CONFIG.replace("[solver]\n", "[solver]\nsplit = true\n"))
        out = tmp_path / "diag.csv"
        assert main(["diagnose", "--config", str(split_cfg), "--out", str(out)]) == 0
        assert f"warning: {SPLIT_NOT_TRACED}" in capsys.readouterr().out
        full = tmp_path / "full.csv"
        assert main(["diagnose", "--config", cfg_path, "--out", str(full)]) == 0
        assert SPLIT_NOT_TRACED not in capsys.readouterr().out
        assert out.read_bytes() == full.read_bytes()

    def test_reproduce_tiny_writes_table(self, tmp_path, capsys, monkeypatch):
        # patch the builtin registry to a tiny config so this stays fast
        import softirl.harness as harness
        from test_harness import tiny_experiment

        monkeypatch.setattr(harness, "builtin_experiment",
                            lambda name, reruns=None, base_seed=None: tiny_experiment())
        out = str(tmp_path / "res")
        assert main(["reproduce", "easy", "--out", out, "--reruns", "2"]) == 0
        table = Path(out, "table.md").read_text()
        assert table.splitlines()[0].count("|") == 8
        assert os.path.exists(os.path.join(out, "raw.csv"))
        assert os.path.exists(os.path.join(out, "summary.csv"))

    def test_reproduce_config_writes_run_experiment_raw_csv(self, cfg_path, tmp_path):
        from softirl.harness import parse_config, run_experiment

        out = tmp_path / "cli"
        assert main(["reproduce", "--config", cfg_path, "--out", str(out), "--reruns", "3",
                     "--seed", "4", "--quiet"]) == 0
        cfg = parse_config(cfg_path)
        cfg.reruns, cfg.base_seed = 3, 4
        run_experiment(cfg, out_dir=tmp_path / "lib", quiet=True)
        for name in ("raw.csv", "summary.csv", "table.md"):
            assert (out / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()
