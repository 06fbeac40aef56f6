import numpy as np
import pytest
from numpy.testing import assert_allclose

from softirl.metrics import evaluate, qdiff
from softirl.solver import NormalizationMeasure, exact_population_solver
from softirl.mdp import soft_value_iteration

from conftest import random_mdp, random_policy
from reference import shape


class TestQdiff:
    def test_constant_table_is_zero(self):
        assert_allclose(qdiff(np.full((3, 4), 2.5)), 0.0)

    def test_frozen_example(self):
        assert_allclose(qdiff(np.array([[1.0, 3.0, 2.0]])), [[0.0, 2.0, 1.0]])

    def test_reference_column_is_zero(self):
        rng = np.random.default_rng(0)
        d = qdiff(rng.normal(size=(5, 4)), ref_action=2)
        assert_allclose(d[:, 2], 0.0)

    def test_bad_reference_rejected(self):
        with pytest.raises(IndexError):
            qdiff(np.zeros((2, 3)), ref_action=3)

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
        sol = exact_population_solver(mdp, pi, NormalizationMeasure("uniform"))
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
        report = evaluate(mdp, r_true, pi, r_hat=q_shifted, v_hat=0)
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
        assert not report.corr_defined
        assert np.isnan(report.corr_qdiff)

    def test_weighting_changes_state_emphasis(self):
        rng = np.random.default_rng(5)
        mdp = random_mdp(rng, 3, 2, 0.9)
        pi = random_policy(rng, 3, 2)
        r_true = np.log(pi)
        # estimate wrong only in state 0
        q_hat = np.log(pi).copy()
        q_hat[0, 1] += 1.0
        point = np.array([0.0, 1.0, 0.0])
        m_bad = evaluate(mdp, r_true, pi, r_hat=q_hat, v_hat=0)
        m_masked = evaluate(mdp, r_true, pi, r_hat=q_hat, v_hat=0, weights=point)
        assert m_bad.rmse_qdiff > 0.1
        assert m_masked.rmse_qdiff <= 1e-9

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

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(6)
        mdp = random_mdp(rng, 3, 2, 0.9)
        pi = random_policy(rng, 3, 2)
        with pytest.raises(ValueError):
            evaluate(mdp, np.log(pi), pi, r_hat=np.zeros((4, 2)), v_hat=0)

    def test_given_q_true_scores_like_the_solved_truth(self):
        from dataclasses import fields

        from softirl.envs import GridworldSpec, build_env

        mdp, r_true, _ = build_env(GridworldSpec(4, 4, topology="bounded", seed=5))
        _, q_true, pi = soft_value_iteration(mdp, r_true, tol=1e-10)
        rng = np.random.default_rng(7)
        r_hat = r_true + rng.normal(scale=0.2, size=r_true.shape)
        weights = rng.dirichlet(np.ones(mdp.n_states))
        # Ours passes v_hat, MaxEnt only r_hat; both with each weighting
        for v_hat in (rng.normal(size=r_true.shape), None):
            for w in (None, weights):
                solved = evaluate(mdp, r_true, pi, r_hat, v_hat, weights=w, ref_action=2)
                given_q = evaluate(mdp, r_true, pi, r_hat, v_hat, weights=w, ref_action=2,
                                   q_true=q_true)
                for field in fields(solved):
                    assert getattr(given_q, field.name) == getattr(solved, field.name)
