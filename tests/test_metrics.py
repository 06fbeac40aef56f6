import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from softirl.metrics import evaluate, qdiff
from softirl.solver import SolverConfig, exact_population_solver
from softirl.mdp import soft_value_iteration

from conftest import count_solves, random_mdp, random_policy
from reference import shape, weighted_evaluate


class TestQdiff:
    def test_constant_table_is_zero(self):
        assert_allclose(qdiff(np.full((3, 4), 2.5)), 0.0)

    def test_frozen_example(self):
        assert_allclose(qdiff(np.array([[1.0, 3.0, 2.0]])), [[0.0, 2.0, 1.0]])

    def test_a_table_that_is_not_2d_is_rejected(self):
        with pytest.raises(ValueError, match=r"^Q table must be 2-d, got shape \(3,\)$"):
            qdiff(np.zeros(3))

    def test_reference_column_is_zero(self):
        rng = np.random.default_rng(0)
        d = qdiff(rng.normal(size=(5, 4)))
        assert np.all(d[:, 0] == 0.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_invariant_under_shaping(self, seed):
        rng = np.random.default_rng(seed)
        mdp = random_mdp(rng, 4, 3, 0.9)
        r, v = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        r2, v2 = shape(r, v, rng.normal(size=4), mdp)
        d1 = qdiff(r + mdp.gamma * v)
        d2 = qdiff(r2 + mdp.gamma * v2)
        assert np.max(np.abs(d1 - d2)) <= 1e-12


class TestEvaluate:
    def test_exact_recovery_scores_perfectly(self):
        rng = np.random.default_rng(1)
        mdp = random_mdp(rng, 5, 3, 0.9)
        pi = random_policy(rng, 5, 3)
        # truth whose expert policy is exactly pi
        r_true = np.log(pi)
        sol = exact_population_solver(mdp, pi, SolverConfig(mu="uniform"))
        report = evaluate(mdp, r_true, pi, sol.r, sol.v)
        assert report.kl <= 1e-9
        assert report.tv <= 1e-6
        assert report.top1 == 1.0
        assert report.corr_qdiff >= 1.0 - 1e-9
        assert report.rmse_qdiff <= 1e-7

    def test_state_potential_shift_gives_zero_rmse(self):
        rng = np.random.default_rng(2)
        mdp = random_mdp(rng, 4, 3, 0.9)
        pi = random_policy(rng, 4, 3)
        r_true = np.log(pi)
        _, q_true, _ = soft_value_iteration(mdp, r_true, tol=1e-12)
        q_shifted = q_true + rng.normal(size=4)[:, None]
        report = evaluate(mdp, r_true, pi, r_hat=q_shifted, v_hat=np.zeros((4, 3)))
        assert report.rmse_qdiff <= 1e-9
        assert report.kl <= 1e-9

    def test_all_metrics_invariant_under_estimate_shaping(self):
        rng = np.random.default_rng(3)
        mdp = random_mdp(rng, 5, 3, 0.9)
        pi = random_policy(rng, 5, 3)
        r_true = np.log(pi)
        r_hat = rng.normal(size=(5, 3))
        v_hat = rng.normal(size=(5, 3))
        r2, v2 = shape(r_hat, v_hat, rng.normal(size=5), mdp)
        m1 = evaluate(mdp, r_true, pi, r_hat, v_hat)
        m2 = evaluate(mdp, r_true, pi, r2, v2)
        for name in ("rmse_qdiff", "corr_qdiff", "kl", "tv", "top1"):
            assert abs(getattr(m1, name) - getattr(m2, name)) <= 1e-9

    def test_zero_variance_sets_missing_flag(self):
        rng = np.random.default_rng(4)
        mdp = random_mdp(rng, 4, 3, 0.9)
        pi = random_policy(rng, 4, 3)
        report = evaluate(mdp, np.log(pi), pi, np.zeros((4, 3)), np.zeros((4, 3)))
        assert np.isnan(report.corr_qdiff)

    @pytest.mark.parametrize("seed", range(15))
    def test_metric_ranges(self, seed):
        rng = np.random.default_rng(seed)
        mdp = random_mdp(rng, 4, 3, 0.9)
        pi = random_policy(rng, 4, 3)
        report = evaluate(mdp, np.log(pi), pi, rng.normal(size=(4, 3)),
                          rng.normal(size=(4, 3)))
        assert 0.0 <= report.tv <= 1.0
        assert 0.0 <= report.top1 <= 1.0
        assert report.kl >= 0.0
        assert -1.0 - 1e-12 <= report.corr_qdiff <= 1.0 + 1e-12

    @pytest.mark.parametrize("shape, given, message", [
        ((3, 2), {"r_true": np.zeros((3, 3))}, "r_true has shape (3, 3), expected (3, 2)"),
        ((3, 2), {"r_hat": np.zeros((4, 2)), "v_hat": 0}, "r_hat has shape (4, 2), expected (3, 2)"),
        ((3, 2), {"r_true": None}, "r_true has shape (), expected (3, 2)"),
        ((3, 2), {"r_hat": None}, "r_hat has shape (), expected (3, 2)"),
        ((3, 2), {"pi_expert": np.full((1, 2), 0.5)},
         "pi_expert has shape (1, 2), expected (3, 2)"),
        ((3, 2), {"pi_expert": np.ones((3, 2))}, "pi_expert must sum to 1 within 1e-12 over its "
                                                 "last axis; worst deviation 1.000e+00"),
        # its log is the truth, so an action of probability 0 has no true Q-difference
        ((3, 2), {"pi_expert": np.array([[0.5, 0.5], [1.0, 0.0], [0.5, 0.5]])},
         "pi_expert entries must be above 0: the true Q-differences are its log-odds"),
        ((3, 2), {"v_hat": np.zeros((3, 1))}, "v_hat has shape (3, 1), expected (3, 2)"),
        # S = A: a state vector would broadcast along the rows of the (S, A) tables
        ((5, 5), {"v_hat": np.zeros(5)}, "v_hat has shape (5,), expected (5, 5)"),
    ], ids=["r_true-columns", "r_hat-rows", "r_true-none", "r_hat-none", "pi-rows",
            "pi-row-sum-2", "pi-zero-entry", "v_hat-column", "v_hat-state-vector"])
    def test_shape_mismatch_rejected(self, shape, given, message):
        rng = np.random.default_rng(6)
        mdp = random_mdp(rng, *shape, 0.9)
        pi = random_policy(rng, *shape)
        tables = {"r_true": np.log(pi), "pi_expert": pi, "r_hat": np.zeros(shape),
                  "v_hat": np.zeros(shape), **given}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            evaluate(mdp, **tables)

    def test_an_mdp_keeping_another_reward_scores_as_a_fresh_one(self):
        from softirl.envs import GridworldSpec, build_env, expert_policy
        from softirl.mdp import TabularMdp

        mdp, r_true, _ = build_env(GridworldSpec(4, 4, topology="bounded", seed=5))
        fresh = TabularMdp(mdp.transition, mdp.gamma)
        pi = expert_policy(fresh, r_true)
        rng = np.random.default_rng(7)
        r_hat = r_true + rng.normal(scale=0.2, size=r_true.shape)
        soft_value_iteration(mdp, 2.0 * r_hat)  # another reward solved on `mdp` first
        # Ours passes v_hat, MaxEnt only r_hat
        for v_hat in (rng.normal(size=r_true.shape), None):
            assert _bits(evaluate(mdp, r_true, pi, r_hat, v_hat)) \
                == _bits(evaluate(fresh, r_true, pi, r_hat, v_hat))


def _bits(report) -> bytes:
    return np.array(list(report.as_dict().values())).tobytes()


def test_the_library_tour_solves_the_truth_once(monkeypatch):
    """build_env -> expert_policy -> evaluate(..., v_hat) runs the soft
    value-iteration loop once, in `expert_policy`: `evaluate` reads the true
    Q-differences from log pi and solves nothing, and scores as on a new MDP
    of the same kernel."""
    from softirl.envs import build_env, expert_policy
    from softirl.harness import builtin_experiment
    from softirl.mdp import TabularMdp

    calls = count_solves(monkeypatch)
    mdp, r_true, _ = build_env(builtin_experiment("ident").env)
    pi = expert_policy(mdp, r_true)
    rng = np.random.default_rng(9)
    r_hat = r_true + rng.normal(scale=0.1, size=r_true.shape)
    v_hat = rng.normal(size=r_true.shape)
    report = evaluate(mdp, r_true, pi, r_hat, v_hat)
    assert len(calls) == 1
    assert _bits(report) == _bits(evaluate(TabularMdp(mdp.transition, mdp.gamma), r_true, pi,
                                           r_hat, v_hat))


def test_re_planned_scores_solve_only_the_estimate(monkeypatch):
    """After expert_policy, each `evaluate` without v_hat runs the loop once,
    for r_hat, and none for the truth."""
    from softirl.envs import build_env, expert_policy
    from softirl.harness import builtin_experiment

    calls = count_solves(monkeypatch)
    mdp, r_true, _ = build_env(builtin_experiment("ident").env)
    pi = expert_policy(mdp, r_true)
    r_hat = r_true + np.random.default_rng(10).normal(scale=0.1, size=r_true.shape)
    first = evaluate(mdp, r_true, pi, r_hat)
    assert _bits(evaluate(mdp, r_true, pi, r_hat)) == _bits(first)
    assert len(calls) == 3


# 280 estimates scored with v_hat and 20 re-planned per benchmark
@pytest.mark.parametrize("name", ["easy", "ident", "hard"])
def test_packaged_benchmarks_score_like_the_weighted_sums(name):
    """Every packaged benchmark has S in {16, 64} states and A - 1 = 4 scored
    actions, so 1/S and 1/(S (A - 1)) are powers of two: a plain mean over
    states rounds exactly as the sum weighted by 1/S did."""
    from softirl.harness import builtin_experiment, truth

    mdp, r_true, _, pi = truth(builtin_experiment(name).env)
    _, q_true, _ = soft_value_iteration(mdp, r_true)
    v_true = (q_true - r_true) / mdp.gamma
    rng = np.random.default_rng(32)
    for i in range(300):
        scale = 10.0 ** rng.uniform(-3, 1)
        r_hat = r_true + scale * rng.normal(size=r_true.shape)
        v_hat = None if i % 15 == 0 else v_true + scale * rng.normal(size=r_true.shape)
        got = evaluate(mdp, r_true, pi, r_hat, v_hat).as_dict()
        assert got == weighted_evaluate(mdp, r_true, pi, r_hat, v_hat)


@pytest.mark.parametrize("name", ["easy", "ident", "hard", "ident-move-noise-0.2"])
def test_the_expert_log_odds_are_the_true_q_differences(name):
    """Under softmax behavior Q*(s, a) - Q*(s, 0) = log pi*(a|s) - log pi*(0|s):
    the truth `evaluate` reads from the expert's log-odds is soft value
    iteration's to rounding, on the packaged truths and on a stochastic kernel."""
    from dataclasses import replace

    from softirl.harness import builtin_experiment, truth

    spec = builtin_experiment(name.split("-")[0]).env
    if name.endswith("-0.2"):
        spec = replace(spec, move_noise=0.2)
    mdp, r_true, _, pi = truth(spec)
    _, q_true, _ = soft_value_iteration(mdp, r_true)
    assert np.max(np.abs(qdiff(np.log(pi)) - qdiff(q_true))) <= 1e-15
