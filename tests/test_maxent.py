import numpy as np
import pytest
from numpy.testing import assert_allclose

import softirl.maxent as maxent
from softirl.envs import GridworldSpec, build_env, expert_policy, sample_transitions
from softirl.harness import builtin_experiment
from softirl.maxent import MaxEntConfig, MaxEntFit, ascent, maxent_fit, run_lockstep
from softirl.metrics import evaluate
from softirl.mdp import TabularMdp, joint_frequency, soft_value_iteration

from conftest import random_mdp, random_policy
from reference import maxent_loglik_and_grad, savetxt_table


def one_hot_features(ns, na):
    return np.eye(ns * na).reshape(ns, na, ns * na)


class TestLoglikAndGrad:
    def test_gradient_vanishes_at_realizable_optimum(self):
        # theta reproducing the empirical log-conditional is stationary:
        # soft value iteration then yields v = 0 and pi_theta = empirical pi
        rng = np.random.default_rng(0)
        mdp = random_mdp(rng, 4, 3, 0.9)
        s = rng.integers(0, 4, size=4000)
        a = rng.integers(0, 3, size=4000)
        w = joint_frequency(s, a, 4, 3)
        pi_bar = w / w.sum(axis=1, keepdims=True)
        theta = np.log(pi_bar).reshape(-1)
        ll, grad = maxent_loglik_and_grad(mdp, one_hot_features(4, 3), theta, w)
        assert np.linalg.norm(grad) <= 1e-6
        mean_ll = float(np.sum(w * np.log(pi_bar)))
        assert_allclose(ll, mean_ll, atol=1e-8)

    def test_gamma_zero_gradient_is_feature_gap(self):
        # at theta = 0 the policy is uniform and, with no lookahead, the
        # gradient is the empirical minus uniform expected feature
        rng = np.random.default_rng(1)
        t = rng.dirichlet(np.ones(4), size=(4, 3))
        mdp = TabularMdp(t, 0.0)
        phi = rng.normal(size=(4, 3, 6))
        s = rng.integers(0, 4, size=500)
        a = rng.integers(0, 3, size=500)
        w = joint_frequency(s, a, 4, 3)
        _, grad = maxent_loglik_and_grad(mdp, phi, np.zeros(6), w)
        state_w = w.sum(axis=1)
        expected = np.einsum("sa,sad->d", w, phi) - np.einsum(
            "s,sad->d", state_w / 3.0, phi)
        assert_allclose(grad, expected, atol=1e-10)

    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(2)
        mdp = random_mdp(rng, 4, 3, 0.9)
        phi = rng.normal(size=(4, 3, 5))
        theta = rng.normal(size=5)
        w = random_policy(rng, 4, 3) * rng.dirichlet(np.ones(4))[:, None]
        ll, grad = maxent_loglik_and_grad(mdp, phi, theta, w)
        h = 1e-5
        for j in range(5):
            e = np.zeros(5)
            e[j] = h
            lp, _ = maxent_loglik_and_grad(mdp, phi, theta + e, w)
            lm, _ = maxent_loglik_and_grad(mdp, phi, theta - e, w)
            fd = (lp - lm) / (2 * h)
            assert abs(grad[j] - fd) <= 1e-4 * max(1.0, abs(fd))


def block_features(rng, ns, na, k):
    """Action-block features: a state feature vector in the block of the action."""
    phi = np.zeros((ns, na, na * k))
    state_feat = rng.normal(size=(ns, k))
    for a in range(na):
        phi[:, a, a * k:(a + 1) * k] = state_feat
    return phi


def forward_sensitivity_gradient(mdp, phi, theta, w):
    """Gradient through dQ = (I - gamma M)^-1 phi, one right-hand side per feature."""
    ns, na, d = phi.shape
    sa = ns * na
    phi_flat = phi.reshape(sa, d)
    _, _, pi = soft_value_iteration(mdp, (phi_flat @ theta).reshape(ns, na), tol=1e-12)
    m = (mdp.transition[:, :, :, None] * pi[None, None, :, :]).reshape(sa, sa)
    dq = np.linalg.solve(np.eye(sa) - mdp.gamma * m, phi_flat)
    expected = (w.sum(axis=1)[:, None] * pi).reshape(sa)
    return dq.T @ (w.reshape(sa) - expected)


class TestAdjointGradient:
    # move_noise None draws a dense Dirichlet kernel; a float builds a 3x2
    # gridworld's kernel, one-hot at 0 (a sparse K_pi) and slipping at 0.2.
    @pytest.mark.parametrize("seed, move_noise", [
        *(pytest.param(seed, None, id=str(seed)) for seed in range(6)),
        pytest.param(6, 0.0, id="grid-one-hot"), pytest.param(7, 0.2, id="grid-slip")])
    def test_matches_forward_sensitivity(self, seed, move_noise):
        rng = np.random.default_rng(100 + seed)
        if move_noise is None:
            ns, na = int(rng.integers(3, 9)), int(rng.integers(2, 6))
            mdp = random_mdp(rng, ns, na, float(rng.uniform(0.5, 0.97)))
        else:
            mdp, _, _ = build_env(GridworldSpec(3, 2, topology="bounded", seed=seed,
                                                move_noise=move_noise))
            ns, na = mdp.n_states, mdp.n_actions
        w = random_policy(rng, ns, na) * rng.dirichlet(np.ones(ns))[:, None]
        for phi in (one_hot_features(ns, na), block_features(rng, ns, na, 3)):
            theta = rng.normal(size=phi.shape[2])
            _, grad = maxent_loglik_and_grad(mdp, phi, theta, w)
            want = forward_sensitivity_gradient(mdp, phi, theta, w)
            assert np.max(np.abs(grad - want)) <= 1e-12 * np.max(np.abs(want))


class TestMaxentFit:
    def test_zero_epochs_returns_init(self):
        rng = np.random.default_rng(3)
        mdp = random_mdp(rng, 3, 2, 0.8)
        phi = rng.normal(size=(3, 2, 4))
        w = random_policy(rng, 3, 2) * rng.dirichlet(np.ones(3))[:, None]
        (fit,) = fit_lockstep(mdp, phi, [w], MaxEntConfig(max_epochs=0))
        assert_allclose(fit.theta, 0.0)
        assert len(fit.loss_trace) == 1

    def test_best_likelihood_is_monotone_over_trace(self, monkeypatch):
        monkeypatch.setattr(maxent, "PATIENCE", 50)
        rng = np.random.default_rng(5)
        mdp = random_mdp(rng, 4, 3, 0.9)
        phi = one_hot_features(4, 3)
        w = random_policy(rng, 4, 3) * rng.dirichlet(np.ones(4))[:, None]
        (fit,) = fit_lockstep(mdp, phi, [w], MaxEntConfig(max_epochs=60))
        best = np.minimum.accumulate(fit.loss_trace)
        assert np.all(np.diff(best) <= 0)
        assert fit.diagnostics["best_loglik"] == -min(fit.loss_trace)

    def test_realizable_recovery_on_tiny_grid(self, monkeypatch):
        monkeypatch.setattr(maxent, "PATIENCE", 50)
        spec = GridworldSpec(2, 2, topology="torus", seed=8, gamma=0.9,
                             min_action_prob=0.05)
        mdp, r_true, _ = build_env(spec)
        pi = expert_policy(mdp, r_true)
        ds = sample_transitions(mdp, pi, 20_000, seed=0, env_id="tiny")
        phi = one_hot_features(mdp.n_states, mdp.n_actions)
        fit = maxent_fit(mdp, phi, ds, MaxEntConfig(max_epochs=250))
        report = evaluate(mdp, r_true, pi, fit.r_hat)
        assert report.corr_qdiff >= 0.97

    def test_misspecified_features_underfit(self, monkeypatch):
        monkeypatch.setattr(maxent, "PATIENCE", 50)
        spec = GridworldSpec(4, 4, topology="bounded", reward_kind="nonlinear",
                             seed=2, gamma=0.9, min_action_prob=0.03)
        mdp, r_true, phi = build_env(spec)
        pi = expert_policy(mdp, r_true)
        ds = sample_transitions(mdp, pi, 20_000, seed=0, env_id="tiny")
        fit = maxent_fit(mdp, phi, ds, MaxEntConfig(max_epochs=150))
        base = evaluate(mdp, r_true, pi, fit.r_hat)
        from softirl.solver import SolverConfig, classify_then_regress
        from softirl.oracles import ClassifierSpec

        sol = classify_then_regress(ds, SolverConfig(
            gamma=0.9, classifier=ClassifierSpec(smoothing_alpha=1.0)))
        ours = evaluate(mdp, r_true, pi, sol.r, sol.v)
        assert base.corr_qdiff < ours.corr_qdiff

    def test_a_non_finite_likelihood_stops_the_ascent(self):
        # driven by hand: epoch 1 is sent a policy with a zero where the data has mass
        rng = np.random.default_rng(7)
        mdp = random_mdp(rng, 3, 2, 0.8)
        w = random_policy(rng, 3, 2) * rng.dirichlet(np.ones(3))[:, None]
        job = ascent(mdp, rng.normal(size=(3, 2, 4)), w, MaxEntConfig(max_epochs=5))
        job.send(None)
        job.send(soft_value_iteration(mdp, np.zeros((3, 2))))
        v, q, pi = soft_value_iteration(mdp, np.zeros((3, 2)))
        pi[0] = [1.0, 0.0]
        with pytest.raises(RuntimeError, match="^likelihood became non-finite at epoch 1; "):
            job.send((v, q, pi))

    def test_saved_tables_match_savetxt_byte_for_byte(self, tmp_path):
        special = np.array([np.nan, np.inf, -np.inf, -0.0, 1e-300, 0.1, -2.5e17])
        fit = MaxEntFit(special, special[:6].reshape(2, 3), [1.0, 0.5, -0.0])
        maxent.save_maxent(fit, tmp_path / "base")
        for stem, table, header in (("theta", fit.theta, "theta"), ("r", fit.r_hat, "0,1,2"),
                                    ("loss", np.asarray(fit.loss_trace), "neg_loglik")):
            savetxt_table(tmp_path / f"{stem}.csv", table, header)
            assert ((tmp_path / "base" / f"{stem}.csv").read_bytes()
                    == (tmp_path / f"{stem}.csv").read_bytes()), stem

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError, match="max_epochs"):
            MaxEntConfig(max_epochs=-1)


class TestOneHotFeatures:
    """`phi` None against the explicit identity it stands for: every reward
    an ascent yields, and its fit, are the same bits."""

    @staticmethod
    def _drive(mdp, phi, weights, cfg):
        """The rewards one ascent yields, each solved alone, and its fit."""
        job, rewards = ascent(mdp, phi, weights, cfg), []
        try:
            reward = next(job)
            while True:
                rewards.append(reward)
                reward = job.send(soft_value_iteration(mdp, reward, tol=maxent.VI_TOL))
        except StopIteration as stop:
            return rewards, stop.value

    @pytest.mark.parametrize("name, max_epochs", [("ident", 12), ("tabular-3x3", 150)])
    def test_same_bits_as_the_identity(self, name, max_epochs):
        spec = (builtin_experiment("ident").env if name == "ident"
                else GridworldSpec(3, 3, topology="bounded", seed=4, min_action_prob=0.03))
        mdp, r_true, phi = build_env(spec)
        assert phi is None
        data = sample_transitions(mdp, expert_policy(mdp, r_true), 5_000, seed=2)
        weights = joint_frequency(data.states, data.actions, mdp.n_states, mdp.n_actions)
        cfg = MaxEntConfig(max_epochs=max_epochs)
        got_rewards, got = self._drive(mdp, None, weights, cfg)
        want_rewards, want = self._drive(
            mdp, one_hot_features(mdp.n_states, mdp.n_actions), weights, cfg)
        assert len(got_rewards) == len(want_rewards) == len(got.loss_trace) > 1
        for g, w in [*zip(got_rewards, want_rewards), (got.theta, want.theta),
                     (got.r_hat, want.r_hat)]:
            assert g.shape == w.shape and g.tobytes() == w.tobytes()
        assert np.array(got.loss_trace).tobytes() == np.array(want.loss_trace).tobytes()
        assert (got.best_epoch, got.diagnostics) == (want.best_epoch, want.diagnostics)


def fit_lockstep(mdp, phi, weights, cfg):
    """One `ascent` per frequency table, run side by side by `run_lockstep`."""
    return run_lockstep(mdp, [ascent(mdp, phi, w, cfg) for w in weights])


class TestLockstepFit:
    """`run_lockstep` runs the ascents of several datasets on one batched
    soft value iteration per epoch; each must equal its own `maxent_fit`."""

    @staticmethod
    def _problem(move_noise=0.0):
        spec = GridworldSpec(4, 4, topology="bounded", reward_kind="nonlinear",
                             seed=2, gamma=0.9, min_action_prob=0.03, move_noise=move_noise)
        mdp, r_true, phi = build_env(spec)
        pi = expert_policy(mdp, r_true)
        datasets = [sample_transitions(mdp, pi, n, seed=seed, env_id="tiny")
                    for seed, n in ((0, 300), (1, 3000), (2, 30_000), (3, 100))]
        return mdp, phi, datasets

    # move_noise 0.1 makes the kernel stochastic, so each sweep applies P
    # problem by problem instead of gathering one-hot next states
    @pytest.mark.parametrize("step, patience, cfg, move_noise", [
        pytest.param(0.05, 5, MaxEntConfig(max_epochs=80), 0.0, id="cfg0"),
        pytest.param(0.2, 3, MaxEntConfig(max_epochs=80, tol=1e-4), 0.0, id="cfg1"),
        pytest.param(0.05, 5, MaxEntConfig(max_epochs=80), 0.1, id="cfg0-stochastic"),
    ])
    def test_matches_sequential_fits(self, monkeypatch, step, patience, cfg, move_noise):
        monkeypatch.setattr(maxent, "STEP_SIZE", step)
        monkeypatch.setattr(maxent, "PATIENCE", patience)
        mdp, phi, datasets = self._problem(move_noise)
        assert (mdp._targets is None) == (move_noise > 0)
        weights = [joint_frequency(ds.states, ds.actions, mdp.n_states, mdp.n_actions)
                   for ds in datasets]
        fits = fit_lockstep(mdp, phi, weights, cfg)
        for ds, fit in zip(datasets, fits):
            want = maxent_fit(mdp, phi, ds, cfg)
            assert np.array_equal(fit.theta, want.theta)
            assert np.array_equal(fit.r_hat, want.r_hat)
            assert fit.loss_trace == want.loss_trace
            assert fit.best_epoch == want.best_epoch
            assert fit.diagnostics == want.diagnostics
        # patience stops the ascents at different epochs
        assert len({fit.diagnostics["epochs_run"] for fit in fits}) >= 3

    # epoch 0 fails at the ascent's first sent solve; its last epoch is the
    # one where, unpatched, it returns its fit
    @pytest.mark.parametrize("when", ["first", "middle", "last"])
    def test_a_failing_ascent_stops_alone(self, monkeypatch, when):
        monkeypatch.setattr(maxent, "PATIENCE", 5)
        mdp, phi, datasets = self._problem()
        weights = [joint_frequency(ds.states, ds.actions, mdp.n_states, mdp.n_actions)
                   for ds in datasets]
        cfg = MaxEntConfig(max_epochs=30)
        clean = fit_lockstep(mdp, phi, weights, cfg)
        last = clean[1].diagnostics["epochs_run"]
        fail_epoch = {"first": 0, "middle": 2, "last": last}[when]
        assert 2 < last
        real, calls = maxent._loglik_and_grad, []

        def singular_at_fail_epoch(mdp, phi_flat, w, pi):
            if np.array_equal(w, weights[1]):
                calls.append(None)
                if len(calls) == fail_epoch + 1:
                    raise np.linalg.LinAlgError("Singular matrix")
            return real(mdp, phi_flat, w, pi)

        monkeypatch.setattr(maxent, "_loglik_and_grad", singular_at_fail_epoch)
        fits = fit_lockstep(mdp, phi, weights, cfg)
        assert isinstance(fits[1], np.linalg.LinAlgError)
        assert len(calls) == fail_epoch + 1
        for b in (0, 2, 3):
            assert np.array_equal(fits[b].theta, clean[b].theta)
            assert fits[b].loss_trace == clean[b].loss_trace
        calls.clear()
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            maxent_fit(mdp, phi, datasets[1], cfg)
