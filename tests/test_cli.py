import os
import subprocess
import sys
from pathlib import Path

import pytest

import softirl
from softirl import envs, harness
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
max_epochs = 30

[eval]
n = 2000
reruns = 2
base_seed = 1
name = tiny
"""


# (line, replacement, the key its error names, command): each replacement is a
# malformed value that parsing rejects before any environment is built
MALFORMED_VALUES = [
    pytest.param("width = 2", "width = 8x", "[env] width", ["gen-data"], id="env-width"),
    pytest.param("mu = uniform", "mu = uniform\nsplit = maybe", "[solver] split",
                 ["gen-data"], id="solver-split"),
    # an action index out of [0, 5) is a config error, before any data is read
    pytest.param("mu = uniform", "mu = point-mass\nmu_ref_action = -1", "[solver] mu_ref_action",
                 ["gen-data"], id="solver-mu-ref-action"),
    # MaxEnt's settings are checked at parse time, not by failing every rerun's fit
    pytest.param("max_epochs = 30", "max_epochs = -1", "[baseline] max_epochs",
                 ["reproduce"], id="baseline-max-epochs"),
    # so are the solver's iteration count, which is a split solve's fold count,
    # and the env's values
    pytest.param("k = auto", "k = -1", "[solver] k", ["reproduce"], id="solver-k"),
    pytest.param("k = auto", "k = -1\nsplit = true", "[solver] k", ["reproduce"],
                 id="solver-k-split"),
    pytest.param("topology = torus", "topology = cube", "[env] topology",
                 ["reproduce"], id="env-topology"),
    pytest.param("reward_kind = tabular-linear", "reward_kind = cubic", "[env] reward_kind",
                 ["gen-data"], id="env-reward-kind"),
    pytest.param("seed = 3", "seed = 3\nmove_noise = 1.0", "[env] move_noise",
                 ["gen-data"], id="env-move-noise"),
    pytest.param("height = 2", "height = 0", "[env] height", ["gen-data"], id="env-height"),
    # and so are the sampler's, measure's and oracles' values, not only
    # inside every rerun once its data is drawn
    pytest.param("n = 2000", "n = 0", "[eval] n", ["reproduce"], id="eval-n"),
    pytest.param("name = tiny", "name = tiny\nregime = chain", "[eval] regime",
                 ["reproduce"], id="eval-regime"),
    pytest.param("mu = uniform", "mu = median", "[solver] mu", ["reproduce"], id="solver-mu"),
    pytest.param("smoothing_alpha = 1.0", "smoothing_alpha = -1", "[solver] smoothing_alpha",
                 ["reproduce"], id="solver-smoothing-alpha"),
    # a NaN count fails every state's `denom > 0` test, which would make each row uniform,
    # and an infinite one makes every row NaN
    pytest.param("smoothing_alpha = 1.0", "smoothing_alpha = nan", "[solver] smoothing_alpha",
                 ["gen-data"], id="solver-smoothing-alpha-nan"),
    pytest.param("smoothing_alpha = 1.0", "smoothing_alpha = inf", "[solver] smoothing_alpha",
                 ["solve", "data.txt"], id="solver-smoothing-alpha-inf"),
    pytest.param("reruns = 2", "reruns = 0", "[eval] reruns", ["reproduce"], id="eval-reruns"),
    pytest.param("mu = uniform", "mu = point-mass\nmu_ref_action = 5", "[solver] mu_ref_action",
                 ["gen-data"], id="solver-mu-ref-action-above"),
    # each value below passed parsing before and failed late or silently
    pytest.param("seed = 3", "seed = -1", "[env] seed", ["gen-data"], id="env-seed"),
    pytest.param("gamma = 0.9", "gamma = 1.0", "[env] gamma", ["reproduce"], id="env-gamma"),
    # no reward meets a floor of 1/5 on all five actions
    pytest.param("min_action_prob = 0.05", "min_action_prob = 0.25", "[env] min_action_prob",
                 ["reproduce"], id="env-min-action-prob"),
    pytest.param("base_seed = 1", "base_seed = -1", "[eval] base_seed",
                 ["reproduce"], id="eval-base-seed"),
    # a split solve regresses each step on its own fold, so it needs at most
    # n // 2 = 1000 steps
    pytest.param("k = auto", "k = 1001\nsplit = true", "[solver] k",
                 ["gen-data"], id="solver-k-above-half-gen-data"),
    pytest.param("k = auto", "k = 1001\nsplit = true", "[solver] k",
                 ["reproduce"], id="solver-k-above-half"),
    # the name is the dataset header's env token: whitespace is refused before
    # gen-data builds and samples, and by reproduce, which writes no dataset
    pytest.param("name = tiny", "name = tiny run", "[eval] name", ["gen-data"], id="eval-name"),
    pytest.param("name = tiny", "name = tiny run", "[eval] name", ["reproduce"],
                 id="reproduce-name"),
]


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

    def test_reused_parser_parses_after_a_usage_error(self, cfg_path, tmp_path, capsys):
        from softirl.cli import _build_parser

        assert _build_parser() is _build_parser()
        assert main(["gen-data", "--config", cfg_path, "--bogus"]) == 1
        assert main(["solve", "data.txt"]) == 1
        capsys.readouterr()
        out = tmp_path / "data.txt"
        assert main(["gen-data", "--config", cfg_path, "--seed", "4", "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote 2000 records to {out}\n"
        assert main(["reproduce", "easy", "--config", cfg_path]) == 1
        assert "exactly one" in capsys.readouterr().err

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

    @pytest.mark.parametrize("text, expected", [
        ("width = 2\n",
         "{path}: malformed config: File contains no section headers. (line 1)"),
        ("[env]\nwidth = 2\nwidth = 3\n", "{path}: malformed config: While reading from "
         "'{path}' [line  3]: option 'width' in section 'env' already exists"),
        ("[env]\nwidth = 2\nheight\n",
         "{path}: malformed config: Source contains parsing errors: '{path}' (line 3)"),
        # values are read raw: the % is part of the value, which the key's check rejects
        ("[env]\ngamma = 90%\n", "[env] gamma: "),
        # a path that exists but cannot be read as a file is an OS error, not an empty config
        (None, "Is a directory: '{path}'"),
    ], ids=["no-section-header", "duplicate-key", "key-without-value", "percent-in-value",
            "directory"])
    def test_malformed_file_exits_two(self, tmp_path, capsys, text, expected):
        path = tmp_path / "bad.ini"
        if text is None:
            path.mkdir()
        else:
            path.write_text(text)
        assert main(["gen-data", "--config", str(path), "--out", str(tmp_path / "d.txt")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and expected.format(path=path) in err
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("line, bad, where, command", MALFORMED_VALUES)
    def test_malformed_value_names_its_key(self, tmp_path, capsys, monkeypatch,
                                           line, bad, where, command):
        def unreachable(*args, **kwargs):
            raise AssertionError("a malformed config reached the environment")

        for module in (envs, harness):
            for name in ("build_env", "sample_transitions"):
                monkeypatch.setattr(module, name, unreachable)
        path = tmp_path / "malformed.ini"
        assert TINY_CONFIG.count(line) == 1
        path.write_text(TINY_CONFIG.replace(line, bad))
        assert main([*command, "--config", str(path), "--quiet"]) == 2
        assert f"{where}: " in capsys.readouterr().err

    def test_every_key_has_a_malformed_value_case(self):
        keys = {f"[{section}] {key}" for section, table in harness._KEYS.items() for key in table}
        covered = {case.values[2] for case in MALFORMED_VALUES}
        assert covered == keys

    def test_negative_base_seed_fails_before_any_rerun(self, tmp_path, capsys):
        path = tmp_path / "seed.ini"
        path.write_text(TINY_CONFIG.replace("reruns = 2", "reruns = 10")
                        .replace("base_seed = 1", "base_seed = -1"))
        out = tmp_path / "res"
        assert main(["reproduce", "--config", str(path), "--out", str(out), "--quiet"]) == 2
        assert "[eval] base_seed: must be nonnegative, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section, key, value", [
        ("baseline", "init", "zeros"),
        ("baseline", "init_seed", "0"),
        ("baseline", "init_scale", "0.01"),
        ("baseline", "grad_clip", "10.0"),
        ("baseline", "vi_tol", "1e-8"),
        ("baseline", "step_size", "0.05"),
        ("baseline", "patience", "40"),
        ("baseline", "tol", "1e-8"),
        ("env", "reward_scale", "2.5"),
        ("env", "feature_dim", "20"),
        ("solver", "regressor_kind", "ridge"),
        ("solver", "ridge_lambda", "0.1"),
        ("solver", "gamma", "0.9"),
        ("solver", "classifier_learning_rate", "0.1"),
        ("solver", "classifier_l2", "0.01"),
        ("solver", "fallback", "0.0"),
        ("solver", "prob_floor", "1e-6"),
        ("solver", "prob_floor", "0.5"),
        ("solver", "classifier_epochs", "500"),
        ("solver", "folds", "2"),
        ("solver", "classifier_kind", "tabular-count"),
        ("eval", "weighting", "empirical"),
        ("eval", "ref_action", "0"),
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

    def test_split_solve_checks_its_folds_before_classifying(self, tmp_path, capsys,
                                                             monkeypatch):
        from softirl import solver

        # 40 records pass gen-data; split at n = 2000 they leave no record per fold
        small, split = tmp_path / "small.ini", tmp_path / "split.ini"
        small.write_text(TINY_CONFIG.replace("n = 2000", "n = 40"))
        split.write_text(TINY_CONFIG.replace("mu = uniform", "mu = uniform\nsplit = true"))
        data = str(tmp_path / "data.txt")
        assert main(["gen-data", "--config", str(small), "--out", data, "--quiet"]) == 0

        def unreachable(*args, **kwargs):
            raise AssertionError("the classifier ran before the fold check")

        monkeypatch.setattr(solver, "fit_classifier", unreachable)
        assert main(["solve", data, "--config", str(split), "--out", str(tmp_path / "sol"),
                     "--quiet"]) == 2
        assert "fold size is 0: half=20, folds=36" in capsys.readouterr().err

    # each override is checked as its [eval] key before anything is built
    @pytest.mark.parametrize("command, override, message", [
        pytest.param(["gen-data"], "--seed=-1", "base_seed: must be nonnegative, got -1",
                     id="gen-data-seed"),
        pytest.param(["diagnose"], "--seed=-3", "base_seed: must be nonnegative, got -3",
                     id="diagnose-seed"),
        pytest.param(["reproduce"], "--seed=-1", "base_seed: must be nonnegative, got -1",
                     id="reproduce-config-seed"),
        pytest.param(["reproduce"], "--reruns=0", "reruns: must be at least 1, got 0",
                     id="reproduce-config-reruns"),
        pytest.param(["reproduce", "ident"], "--seed=-1", "base_seed: must be nonnegative, got -1",
                     id="reproduce-name-seed"),
        pytest.param(["reproduce", "ident"], "--reruns=0", "reruns: must be at least 1, got 0",
                     id="reproduce-name-reruns"),
    ])
    def test_reruns_override_is_checked(self, cfg_path, tmp_path, capsys, monkeypatch,
                                        command, override, message):
        def unreachable(*args, **kwargs):
            raise AssertionError("an override reached the environment before its check")

        for module, name in ((envs, "build_env"), (harness, "build_env"), (harness, "truth")):
            monkeypatch.setattr(module, name, unreachable)
        out = str(tmp_path / "res")
        source = [] if len(command) > 1 else ["--config", cfg_path]
        assert main([*command, *source, "--out", out, override, "--quiet"]) == 2
        assert capsys.readouterr().err == f"error: [eval] {message}\n"
        assert not os.path.exists(out)

    # numpy's allocation error has a message; Python's own, as from bytearray(1 << 60), has none
    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 954. GiB for an array with shape (160000, 5, 160000)",
         "Unable to allocate 954. GiB for an array with shape (160000, 5, 160000)"),
        ("", "MemoryError")], ids=["numpy", "bare"])
    def test_an_allocation_failure_exits_two_on_one_line(self, cfg_path, tmp_path, capsys,
                                                         monkeypatch, message, line):
        def too_large(spec):
            raise MemoryError(message) if message else MemoryError()

        monkeypatch.setattr(harness, "truth", too_large)
        out = tmp_path / "d.txt"
        assert main(["gen-data", "--config", cfg_path, "--out", str(out), "--quiet"]) == 2
        assert capsys.readouterr().err == f"error: {line}\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("extra", ["", "\n[eval]\nn = 10\n"], ids=["env", "env-and-eval"])
    def test_default_section_is_unknown(self, tmp_path, capsys, extra):
        from softirl.harness import parse_config

        # configparser would merge [DEFAULT]'s keys into every section
        path = tmp_path / "default.ini"
        path.write_text("[DEFAULT]\nwidth = 3\nheight = 3\n\n[env]\nseed = 5\n" + extra)
        message = "unknown config section [DEFAULT]"
        with pytest.raises(ValueError) as err:
            parse_config(path)
        assert str(err.value) == message
        assert main(["gen-data", "--config", str(path), "--out", str(tmp_path / "d.txt")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


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

    def test_a_cli_chain_scores_the_reproduce_rerun_of_its_seed(self, cfg_path, tmp_path):
        # rerun 1 of base seed 4 draws at seed 5, and both score Ours the same way
        data, soldir, scores = (str(tmp_path / name) for name in ("data.txt", "sol", "m.csv"))
        assert main(["gen-data", "--config", cfg_path, "--out", data, "--seed", "5",
                     "--quiet"]) == 0
        assert main(["solve", data, "--config", cfg_path, "--out", soldir, "--quiet"]) == 0
        assert main(["eval", soldir, "--config", cfg_path, "--out", scores, "--quiet"]) == 0
        res = tmp_path / "res"
        assert main(["reproduce", "--config", cfg_path, "--out", str(res), "--reruns", "2",
                     "--seed", "4", "--quiet"]) == 0
        rerun_1 = [line.removeprefix("1,Ours,") for line in
                   (res / "raw.csv").read_text().splitlines() if line.startswith("1,Ours,")]
        assert Path(scores).read_text().splitlines()[1:] == rerun_1

    def test_commands_call_the_module_attributes(self, tmp_path, monkeypatch):
        """A tracer patches attributes of `softirl.envs`, `softirl.solver` and
        `softirl.harness`; the commands must call the patched names, not
        copies bound when the CLI was imported."""
        from softirl import solver

        harness.truth.cache_clear()
        calls = {}

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return counted

        for module, name in ((harness, "build_env"), (solver, "split_classify_regress"),
                             (harness, "evaluate")):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        split_cfg = tmp_path / "split.ini"
        split_cfg.write_text(TINY_CONFIG.replace("[solver]\n", "[solver]\nsplit = true\n"))
        common = ["--config", str(split_cfg), "--quiet"]
        data, soldir = str(tmp_path / "data.txt"), str(tmp_path / "sol")
        assert main(["gen-data", *common, "--out", data]) == 0
        assert main(["solve", data, *common, "--out", soldir]) == 0
        assert main(["eval", soldir, *common, "--out", str(tmp_path / "m.csv")]) == 0
        # gen-data builds the environment, eval reuses it, solve fits, eval scores
        assert calls == {"build_env": 1, "split_classify_regress": 1, "evaluate": 1}

        # harness.draw and harness.score look up harness's truth; diagnose checks
        # the truth's expert policy before it draws
        monkeypatch.setattr(harness, "truth", counting("truth", harness.truth))
        assert main(["gen-data", *common, "--out", data]) == 0
        assert main(["eval", soldir, *common, "--out", str(tmp_path / "m.csv")]) == 0
        assert main(["diagnose", *common, "--out", str(tmp_path / "d.csv")]) == 0
        assert calls["truth"] == 4 and calls["build_env"] == 1

    def test_eval_on_exact_solution_gives_zero_kl(self, cfg_path, tmp_path):
        from softirl.envs import build_env, expert_policy
        from softirl.harness import parse_config
        from softirl.solver import SolverConfig, exact_population_solver, save_solution

        cfg = parse_config(cfg_path)
        mdp, r_true, _ = build_env(cfg.env)
        pi = expert_policy(mdp, r_true)
        sol = exact_population_solver(mdp, pi, SolverConfig(mu="uniform"))
        soldir = tmp_path / "exact"
        save_solution(sol, soldir)
        metrics = tmp_path / "m.csv"
        assert main(["eval", str(soldir), "--config", cfg_path,
                     "--out", str(metrics), "--quiet"]) == 0
        body = dict(line.split(",") for line in
                    metrics.read_text().strip().splitlines()[1:])
        assert float(body["kl"]) <= 1e-8
        assert float(body["top1"]) == 1.0

    def test_eval_rejects_a_solution_of_another_discount(self, cfg_path, tmp_path, capsys):
        data, soldir = str(tmp_path / "data.txt"), str(tmp_path / "sol")
        assert main(["gen-data", "--config", cfg_path, "--out", data, "--quiet"]) == 0
        assert main(["solve", data, "--config", cfg_path, "--out", soldir, "--quiet"]) == 0
        other = tmp_path / "other.ini"
        other.write_text(TINY_CONFIG.replace("gamma = 0.9", "gamma = 0.5"))
        metrics = tmp_path / "m.csv"
        assert main(["eval", soldir, "--config", str(other), "--out", str(metrics)]) == 2
        assert capsys.readouterr().err == (f"error: {soldir} was solved with gamma = 0.9, "
                                           "but the config's [env] gamma is 0.5\n")
        assert not metrics.exists()

    def test_eval_rejects_a_solution_of_another_shape_before_building(
            self, cfg_path, tmp_path, capsys, monkeypatch):
        data, soldir = str(tmp_path / "data.txt"), str(tmp_path / "sol")
        assert main(["gen-data", "--config", cfg_path, "--out", data, "--quiet"]) == 0
        assert main(["solve", data, "--config", cfg_path, "--out", soldir, "--quiet"]) == 0
        other = tmp_path / "other.ini"
        other.write_text(TINY_CONFIG.replace("width = 2", "width = 3"))

        def built(*args):
            raise AssertionError("eval built the environment")

        monkeypatch.setattr(harness, "truth", built)
        assert main(["eval", soldir, "--config", str(other), "--quiet"]) == 2
        assert capsys.readouterr().err == (f"error: {soldir} holds a solution of (S, A) = (4, 5), "
                                           "but the config's environment has (6, 5)\n")

    @pytest.mark.parametrize("payload, message", [
        ('{"eta": [0.5]}', "missing key 'gamma'"),
        ("5", "expected a JSON object, got int"),
        ('"gamma"', "expected a JSON object, got str"),
        ('{"gamma": "0.9"}', "gamma must be a number, got '0.9'"),
        ('{"gamma": true}', "gamma must be a number, got True"),
        ('{"gamma": null}', "gamma must be a number, got None"),
    ], ids=["missing", "number", "string", "string-gamma", "bool-gamma", "null-gamma"])
    def test_eval_names_a_missing_gamma(self, cfg_path, tmp_path, capsys, payload, message):
        data, soldir = str(tmp_path / "data.txt"), tmp_path / "sol"
        assert main(["gen-data", "--config", cfg_path, "--out", data, "--quiet"]) == 0
        assert main(["solve", data, "--config", cfg_path, "--out", str(soldir), "--quiet"]) == 0
        (soldir / "diagnostics.json").write_text(payload + "\n")
        assert main(["eval", str(soldir), "--config", cfg_path, "--quiet"]) == 2
        assert capsys.readouterr().err == f"error: {soldir / 'diagnostics.json'}: {message}\n"

    def test_eval_notes_an_undefined_correlation(self, cfg_path, tmp_path, capsys):
        import numpy as np

        from softirl.solver import IrlSolution, save_solution

        # a zero reward and value: every estimated Q-difference is 0
        zeros = np.zeros((4, 5))
        save_solution(IrlSolution(zeros, zeros, zeros, np.zeros(4), zeros + 0.2, 0.9),
                      tmp_path / "zero")
        assert main(["eval", str(tmp_path / "zero"), "--config", cfg_path]) == 0
        out = capsys.readouterr().out
        assert "corr_qdiff,nan\n" in out
        assert out.endswith("note: correlation undefined (zero-variance Q-differences)\n")

    def test_baseline_outputs(self, cfg_path, tmp_path):
        data = str(tmp_path / "data.txt")
        bdir = str(tmp_path / "base")
        assert main(["gen-data", "--config", cfg_path, "--out", data, "--quiet"]) == 0
        assert main(["baseline", data, "--config", cfg_path, "--out", bdir,
                     "--quiet"]) == 0
        for name in ("theta.csv", "r.csv", "loss.csv"):
            assert os.path.exists(os.path.join(bdir, name))

    def test_baseline_one_hot_features_write_the_identity_bytes(self, cfg_path, tmp_path,
                                                                monkeypatch):
        # tabular-linear's phi is None; the explicit identity it stands for
        # gives the same files byte for byte
        import numpy as np

        data = str(tmp_path / "data.txt")
        assert main(["gen-data", "--config", cfg_path, "--out", data, "--quiet"]) == 0
        assert main(["baseline", data, "--config", cfg_path, "--out",
                     str(tmp_path / "none"), "--quiet"]) == 0
        build_env = envs.build_env

        def identity_features(spec):
            mdp, r_true, phi = build_env(spec)
            assert phi is None
            cells = mdp.n_states * mdp.n_actions
            return mdp, r_true, np.eye(cells).reshape(mdp.n_states, mdp.n_actions, cells)

        monkeypatch.setattr(envs, "build_env", identity_features)
        assert main(["baseline", data, "--config", cfg_path, "--out",
                     str(tmp_path / "eye"), "--quiet"]) == 0
        for name in ("theta.csv", "r.csv", "loss.csv"):
            assert ((tmp_path / "none" / name).read_bytes()
                    == (tmp_path / "eye" / name).read_bytes()), name

    # a dataset of the 2x2 config (4 states) against a 4x4 config, and the reverse,
    # given to baseline and to solve
    @pytest.mark.parametrize("command, data_shape, config_shape", [
        ("baseline", 2, 4), ("baseline", 4, 2), ("solve", 2, 4), ("solve", 4, 2)],
        ids=["smaller-dataset", "larger-dataset", "solve-smaller-dataset",
             "solve-larger-dataset"])
    def test_baseline_rejects_a_dataset_of_another_environment(self, tmp_path, capsys, command,
                                                                data_shape, config_shape):
        configs = {}
        for side in (data_shape, config_shape):
            configs[side] = tmp_path / f"{side}x{side}.ini"
            configs[side].write_text(TINY_CONFIG.replace("width = 2\nheight = 2",
                                                         f"width = {side}\nheight = {side}"))
        data, bdir = str(tmp_path / "data.txt"), tmp_path / "base"
        assert main(["gen-data", "--config", str(configs[data_shape]), "--out", data,
                     "--quiet"]) == 0
        assert main([command, data, "--config", str(configs[config_shape]),
                     "--out", str(bdir), "--quiet"]) == 2
        assert capsys.readouterr().err == (
            f"error: dataset has n_states={data_shape ** 2} n_actions=5, but the MDP "
            f"has n_states={config_shape ** 2} n_actions=5\n")
        assert not bdir.exists()

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

    def test_diagnose_trace_matches_a_per_iterate_loop(self, cfg_path, tmp_path):
        import numpy as np

        from softirl import solver

        out = tmp_path / "diag.csv"
        assert main(["diagnose", "--config", cfg_path, "--out", str(out), "--quiet"]) == 0
        cfg = harness.parse_config(cfg_path)
        mdp, _, _, pi = harness.truth(cfg.env)
        diag = solver.classify_then_regress(harness.draw(cfg, cfg.base_seed), cfg.solver,
                                            record_iterates=True).diagnostics
        exact = solver.exact_population_solver(mdp, pi, cfg.solver)
        lines = ["k,eta,sup_dist_to_exact_v,gamma_pow_k"]
        for k, v_k in enumerate(diag.iterates):
            eta = diag.eta[k - 1] if k >= 1 else float("nan")
            dist = float(np.max(np.abs(v_k - exact.v)))
            lines.append(f"{k},{eta:.10g},{dist:.10g},{cfg.solver.gamma ** k:.10g}")
        assert out.read_text() == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("command", ["eval", "diagnose"])
    def test_floats_are_written_in_the_harness_format(self, cfg_path, tmp_path, monkeypatch,
                                                      command):
        import re

        # harness.FLOAT_FMT is read at write time, so no command keeps its own format
        common = ["--config", cfg_path, "--quiet"]
        if command == "eval":
            data, soldir = str(tmp_path / "data.txt"), str(tmp_path / "sol")
            assert main(["gen-data", *common, "--out", data]) == 0
            assert main(["solve", data, *common, "--out", soldir]) == 0
            argv, n_floats = ["eval", soldir], 1
        else:
            argv, n_floats = ["diagnose"], 3
        monkeypatch.setattr(harness, "FLOAT_FMT", "%.2e")
        out = tmp_path / f"{command}.csv"
        assert main([*argv, *common, "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        floats = [field for row in rows for field in row[-n_floats:]]
        assert rows and len(floats) == n_floats * len(rows)
        assert all(re.fullmatch(r"-?\d\.\d\de[+-]\d\d|nan", field) for field in floats), floats

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

    def test_diagnose_rejects_an_expert_with_a_zero_action_probability(self, tmp_path, capsys,
                                                                        monkeypatch, request):
        # at this scale some expert probabilities underflow to 0, so log(pi) is undefined;
        # the truth built at it must not outlive the test
        monkeypatch.setattr(envs, "REWARD_SCALE", 1000.0)
        harness.truth.cache_clear()
        request.addfinalizer(harness.truth.cache_clear)
        path = tmp_path / "sharp.ini"
        path.write_text("[env]\nwidth = 3\nheight = 3\n[eval]\nn = 3000\n")

        def unreachable(*args, **kwargs):
            raise AssertionError("diagnose drew a dataset before checking the expert")

        monkeypatch.setattr(harness, "draw", unreachable)
        out = tmp_path / "diag.csv"
        assert main(["diagnose", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: the exact fixed point needs every expert action probability above 0; "
            "[env] min_action_prob above 0 ensures it\n")
        assert not out.exists()

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
