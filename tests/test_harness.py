import os
import subprocess
import sys

import numpy as np
import pytest

import softirl
from softirl.harness import (
    ExperimentConfig,
    builtin_experiment,
    format_markdown_table,
    parse_config,
    run_experiment,
    summarize,
)
from softirl.envs import GridworldSpec
from softirl.maxent import MaxEntConfig
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
max_epochs = 40

[eval]
n = 3000
reruns = 2
base_seed = 1
name = tiny
"""


def tiny_experiment(**kw):
    cfg = ExperimentConfig(
        env=GridworldSpec(2, 2, topology="torus", seed=3, gamma=0.9,
                          min_action_prob=0.05),
        n=3000,
        solver=SolverConfig(gamma=0.9, smoothing_alpha=1.0),
        baseline=MaxEntConfig(max_epochs=40),
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
        assert cfg.solver.smoothing_alpha == 1.0
        assert cfg.baseline.max_epochs == 40
        assert cfg.n == 3000 and cfg.reruns == 2 and cfg.name == "tiny"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[env]\nwidth = 2\nheight = 2\nbogus = 1\n")
        with pytest.raises(ValueError, match="bogus"):
            parse_config(path)

    def test_values_are_read_raw(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[env]\nwidth = 2\nheight = 2\n[eval]\nname = 50%(run)s\n")
        assert parse_config(path).name == "50%(run)s"

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
        assert cfg.solver.mu == "uniform"
        assert cfg.baseline.max_epochs == 150
        assert cfg.name == "ident"
        assert cfg == builtin_experiment("ident")

    @pytest.mark.parametrize("env", ["width = 2", "height = 2"], ids=["no-height", "no-width"])
    def test_env_must_set_width_and_height(self, tmp_path, env):
        path = tmp_path / "cfg.ini"
        path.write_text(f"[env]\n{env}\n")
        with pytest.raises(ValueError, match=r"^config \[env\] section must set width and height$"):
            parse_config(path)

    def test_readme_key_list_matches_the_key_table(self):
        import re
        from pathlib import Path

        from softirl.harness import _KEYS

        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("Every accepted key, by section", 1)[1].split("\n\n")[1]
        listed = {}
        for bullet in re.split(r"^- ", block, flags=re.M)[1:]:
            section = re.match(r"`\[(\w+)\]`", bullet).group(1)
            # keys are lower-case; the (`GridworldSpec`)-style owner names are not
            listed[section] = set(re.findall(r"`([a-z][a-z0-9_]*)`", bullet))
        assert listed == {section: set(table) for section, table in _KEYS.items()}

    def test_every_key_parses_to_its_declared_type(self, tmp_path):
        from dataclasses import fields

        from softirl.harness import _KEYS, _boolean, _k

        def targets(section):
            return {field for _, field, _ in _KEYS[section].values()}

        assert targets("env") == {f.name for f in fields(GridworldSpec)}
        assert targets("solver") - {"split"} == {f.name for f in fields(SolverConfig)} - {"gamma"}
        assert targets("baseline") == {f.name for f in fields(MaxEntConfig)}
        assert sum(len(table) for table in _KEYS.values()) == 19
        # "1" is a valid int, float, str and boolean, so only the declared type
        # decides; the keys whose values are checked at parse time take valid ones
        valid = {"topology": "torus", "reward_kind": "linear", "move_noise": "0",
                 "gamma": "0.5", "min_action_prob": "0", "mu": "uniform",
                 "regime": "iid-restart", "n": "2"}
        text = "".join(f"[{name}]\n" + "".join(f"{key} = {valid.get(key, 1)}\n" for key in table)
                       for name, table in _KEYS.items())
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        cfg = parse_config(path)
        owners = {"env": cfg.env, "solver": cfg.solver, "baseline": cfg.baseline, "eval": cfg}
        types = {_k: int, _boolean: bool}
        for table in _KEYS.values():
            for key, (target, field, parse) in table.items():
                assert type(getattr(owners[target], field)) is types.get(parse, parse), key

    @pytest.mark.parametrize("word, value", [("on", True), ("off", False), ("Yes", True),
                                             ("0", False), ("TRUE", True)])
    def test_split_takes_configparser_boolean_words(self, tmp_path, word, value):
        path = tmp_path / "cfg.ini"
        path.write_text(f"[env]\nwidth = 2\nheight = 2\n[solver]\nsplit = {word}\n")
        assert parse_config(path).split is value

    def test_split_fold_count_is_checked_against_n(self):
        # K = 'auto' resolves to 188 steps at n = 300 and 197 at n = 400 (gamma 0.97),
        # one fold each, and a split solve regresses on n // 2 records
        env = GridworldSpec(4, 4)
        solver = SolverConfig(gamma=env.gamma)
        with pytest.raises(ValueError, match=r"^solver\.K: .* n // 2 = 150 .* got 188$"):
            ExperimentConfig(env, n=300, solver=solver, split=True)
        assert ExperimentConfig(env, n=400, solver=solver, split=True).solver.steps(400) == 197

    def test_solver_discounts_with_the_env_gamma(self):
        with pytest.raises(ValueError, match=r"^solver\.gamma: must be the env's gamma 0\.5, "
                                             r"got 0\.97$"):
            ExperimentConfig(GridworldSpec(3, 3, gamma=0.5), solver=SolverConfig(gamma=0.97))


class TestReadmeExamples:
    def test_file_format_examples_are_lines_of_the_stated_commands(self, tmp_path,
                                                                  monkeypatch):
        import re
        from pathlib import Path

        from softirl.cli import main

        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        config = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        assert config.count("n = 50000") == 1
        (tmp_path / "ident.ini").write_text(config.replace("n = 50000", "n = 3"))
        monkeypatch.chdir(tmp_path)
        assert main(["gen-data", "--config", "ident.ini", "--out", "data.txt", "--seed", "3",
                     "--quiet"]) == 0
        assert main(["reproduce", "ident", "--reruns", "2", "--seed", "0", "--quiet"]) == 0
        section = readme.split("## File formats\n", 1)[1].split("\n## ", 1)[0]
        blocks = re.findall(r"```\n(.*?)```", section, re.S)
        outputs = ["data.txt", "results/ident/raw.csv", "results/ident/summary.csv",
                   "results/ident/table.md"]
        assert len(blocks) == len(outputs)
        for block, name in zip(blocks, outputs):
            written = (tmp_path / name).read_text().splitlines()
            for line in block.splitlines():
                assert line == "..." or line in written, (name, line)


class TestRunExperiment:
    def test_a_run_leaves_numpy_ma_unimported(self):
        # importing numpy.ma, as np.unique does, raises a fresh interpreter's
        # peak RSS, which perfbench's peak_rss_mb reads
        code = ("import sys\n"
                "from softirl.harness import builtin_experiment, run_experiment\n"
                "cfg = builtin_experiment('ident', reruns=2)\n"
                "cfg.n, cfg.baseline.max_epochs = 5000, 5\n"
                "run_experiment(cfg, quiet=True)\n"
                "print('numpy.ma' in sys.modules)")
        src = os.path.dirname(os.path.dirname(softirl.__file__))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, check=True)
        assert done.stdout.strip() == "False"

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

    def test_a_metric_without_finite_values_summarizes_to_nan(self):
        rows = [(0, "Ours", "corr_qdiff", float("nan")), (1, "Ours", "corr_qdiff", float("nan")),
                (0, "Ours", "kl", 0.5)]
        summary = summarize(rows)
        mean, se, n = summary[("Ours", "corr_qdiff")]
        assert np.isnan(mean) and np.isnan(se) and n == 0
        assert summary[("MaxEnt", "kl")][2] == 0
        mean, se, n = summary[("Ours", "kl")]
        assert mean == 0.5 and np.isnan(se) and n == 1

    def test_markdown_table_shape(self):
        cfg = tiny_experiment()
        rows, summary = run_experiment(cfg, quiet=True)
        table = format_markdown_table("tiny", summary)
        lines = table.strip().splitlines()
        assert len(lines) == 4  # header, rule, two method rows
        assert lines[0].count("|") == 8  # Exp, Method, five metrics
        assert "MaxEnt" in lines[2] and "Ours" in lines[3]

    def test_failure_rate_guard(self, monkeypatch):
        import softirl.harness as harness

        def no_solution(data, config):
            raise ValueError("no solution")

        monkeypatch.setattr(harness, "classify_then_regress", no_solution)  # every rerun fails
        with pytest.raises(RuntimeError, match="0/2 reruns succeeded"):
            run_experiment(tiny_experiment(reruns=2), quiet=True)

    # each value, assigned after the config was built, once ran unchecked:
    # reruns = 0 wrote an all-nan table and a negative max_epochs left
    # MaxEnt's ascent no iterate to return
    @pytest.mark.parametrize("owner, name, value", [
        ("eval", "reruns", 0), ("baseline", "max_epochs", -1)])
    def test_a_value_set_after_building_is_checked(self, tmp_path, owner, name, value):
        cfg = tiny_experiment()
        setattr(cfg.baseline if owner == "baseline" else cfg, name, value)
        with pytest.raises(ValueError, match=f"^{name}: "):
            run_experiment(cfg, out_dir=tmp_path, quiet=True)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("split", [False, True], ids=["full-sample", "split"])
    def test_each_rerun_has_the_bits_of_its_run_alone(self, split):
        # MaxEnt fits the whole sample's table also when the classifier saw half
        from softirl.envs import build_env, expert_policy, sample_transitions
        from softirl.maxent import maxent_fit
        from softirl.metrics import evaluate
        from softirl.solver import classify_then_regress, split_classify_regress

        cfg = tiny_experiment(reruns=3, split=split)
        solve = split_classify_regress if split else classify_then_regress
        rows, _ = run_experiment(cfg, quiet=True)
        mdp, r_true, phi = build_env(cfg.env)
        pi = expert_policy(mdp, r_true)
        alone = []
        for rerun in range(cfg.reruns):
            dataset = sample_transitions(mdp, pi, cfg.n, regime=cfg.regime,
                                         seed=cfg.base_seed + rerun, env_id=cfg.name)
            solution = solve(dataset, cfg.solver)
            fit = maxent_fit(mdp, phi, dataset, cfg.baseline)
            reports = {"MaxEnt": evaluate(mdp, r_true, pi, fit.r_hat),
                       "Ours": evaluate(mdp, r_true, pi, solution.r, solution.v)}
            alone += [(rerun, method, metric, value) for method in ("MaxEnt", "Ours")
                      for metric, value in reports[method].as_dict().items()]
        assert rows == alone

    def test_a_run_solves_its_truth_once(self, monkeypatch):
        """One loop run for the truth's expert policy and one per re-planned
        MaxEnt estimate: the scores read the truth from the expert's log-odds."""
        from softirl import harness

        from conftest import count_solves

        harness.truth.cache_clear()  # so that the run builds and solves its truth
        calls = count_solves(monkeypatch)
        run_experiment(builtin_experiment("ident", reruns=5), quiet=True)
        assert [args[2] for args in calls] == [1e-10] * 6

    def test_a_failed_batched_solve_fails_only_its_rerun(self, tmp_path, monkeypatch, capsys):
        import softirl.maxent as maxent

        cfg = tiny_experiment(reruns=5)  # 4 of 5 meet the 80% guard
        run_experiment(cfg, out_dir=tmp_path / "clean", quiet=True)
        real, rounds = maxent._soft_value_iteration, []
        error = RuntimeError("soft value iteration did not converge")

        def rerun_2_fails_in_round_3(mdp, r, tol, v0=None):
            results = real(mdp, r, tol, v0)
            rounds.append(len(results))
            if len(rounds) == 3:
                assert len(results) == cfg.reruns  # no ascent has stopped yet
                results[2] = error
            return results

        monkeypatch.setattr(maxent, "_soft_value_iteration", rerun_2_fails_in_round_3)
        run_experiment(cfg, out_dir=tmp_path / "failed")
        assert capsys.readouterr().err == f"warning: rerun 2 failed: {error!r}\n"
        assert rounds[3] == cfg.reruns - 1
        raw = (tmp_path / "clean" / "raw.csv").read_text().splitlines(True)
        assert (tmp_path / "failed" / "raw.csv").read_text() == "".join(
            line for line in raw if not line.startswith("2,"))

    def test_a_failing_maxent_score_drops_both_methods_of_its_rerun(self, tmp_path,
                                                                    monkeypatch, capsys):
        import softirl.harness as harness
        from softirl.envs import build_env, expert_policy, sample_transitions
        from softirl.maxent import maxent_fit

        cfg = tiny_experiment(reruns=5)
        run_experiment(cfg, out_dir=tmp_path / "clean")
        clean = capsys.readouterr()
        mdp, r_true, phi = build_env(cfg.env)
        dataset = sample_transitions(mdp, expert_policy(mdp, r_true), cfg.n,
                                     regime=cfg.regime, seed=cfg.base_seed + 3, env_id=cfg.name)
        target = maxent_fit(mdp, phi, dataset, cfg.baseline).r_hat
        real = harness.evaluate

        def rerun_3_maxent_fails(mdp, r_true, pi, r_hat, *args, **kwargs):
            if not args and np.array_equal(r_hat, target):  # MaxEnt passes no v_hat
                raise ValueError("no score")
            return real(mdp, r_true, pi, r_hat, *args, **kwargs)

        monkeypatch.setattr(harness, "evaluate", rerun_3_maxent_fails)
        run_experiment(cfg, out_dir=tmp_path / "failed")
        failed = capsys.readouterr()
        assert failed.err == "warning: rerun 3 failed: ValueError('no score')\n"
        gone = ("rerun 3:", "3,")
        assert failed.out == "".join(line for line in clean.out.splitlines(True)
                                     if not line.startswith(gone))
        raw = (tmp_path / "clean" / "raw.csv").read_text().splitlines(True)
        assert (tmp_path / "failed" / "raw.csv").read_text() == "".join(
            line for line in raw if not line.startswith(gone))

    def test_failing_reruns_are_dropped_alone(self, tmp_path, monkeypatch, capsys):
        import softirl.harness as harness
        import softirl.maxent as maxent
        from softirl.envs import build_env, expert_policy, sample_transitions
        from softirl.mdp import joint_frequency

        cfg = tiny_experiment(reruns=10)  # 8 of 10 meet the 80% guard
        run_experiment(cfg, out_dir=tmp_path / "clean")
        clean = capsys.readouterr()
        # rerun 1's ascent raises at its third gradient, inside the lockstep
        # fit; rerun 3 fails earlier, in its Ours solve
        mdp, r_true, phi = build_env(cfg.env)
        pi = expert_policy(mdp, r_true)
        dataset = sample_transitions(mdp, pi, cfg.n, regime=cfg.regime,
                                     seed=cfg.base_seed + 1, env_id=cfg.name)
        target = joint_frequency(dataset.states, dataset.actions, mdp.n_states, mdp.n_actions)
        real_grad, real_solve, calls = maxent._loglik_and_grad, harness.classify_then_regress, []

        def singular_at_third_epoch(mdp, phi_flat, weights, pi):
            if np.array_equal(weights, target):
                calls.append(None)
                if len(calls) == 3:
                    raise np.linalg.LinAlgError("Singular matrix")
            return real_grad(mdp, phi_flat, weights, pi)

        def solve_fails_on_rerun_3(data, config):
            if data.meta["seed"] == cfg.base_seed + 3:
                raise ValueError("no solution")
            return real_solve(data, config)

        monkeypatch.setattr(maxent, "_loglik_and_grad", singular_at_third_epoch)
        monkeypatch.setattr(harness, "classify_then_regress", solve_fails_on_rerun_3)
        run_experiment(cfg, out_dir=tmp_path / "two")
        failed = capsys.readouterr()
        # rerun 1 warns as a sequential maxent_fit of its data would, and the
        # warnings keep rerun order although rerun 3 failed first
        calls.clear()
        with pytest.raises(np.linalg.LinAlgError) as sequential:
            maxent.maxent_fit(mdp, phi, dataset, cfg.baseline)
        assert failed.err == (f"warning: rerun 1 failed: {sequential.value!r}\n"
                              "warning: rerun 3 failed: ValueError('no solution')\n")
        gone = ("rerun 1:", "rerun 3:", "1,", "3,")
        keep = [line for line in clean.out.splitlines(True) if not line.startswith(gone)]
        assert failed.out == "".join(keep)
        raw = (tmp_path / "clean" / "raw.csv").read_text().splitlines(True)
        assert (tmp_path / "two" / "raw.csv").read_text() == "".join(
            line for line in raw if not line.startswith(gone))


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


def test_every_bench_record_the_readme_cites_exists_and_is_json():
    import json
    import re
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    cited = set(re.findall(r"BENCH_\d+\.json", (root / "README.md").read_text()))
    assert cited
    for name in sorted(cited):
        assert isinstance(json.loads((root / name).read_text()), dict), name
