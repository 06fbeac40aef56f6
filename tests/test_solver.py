import dataclasses
import json
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from softirl import solver as solver_module
from softirl.envs import (
    GridworldSpec,
    TransitionDataset,
    build_env,
    expert_policy,
    sample_transitions,
)
from softirl.harness import builtin_experiment
from softirl.mdp import TabularMdp, apply_P, joint_frequency
from softirl.oracles import ClassifierSpec, RegressorSpec
from softirl.solver import (
    NormalizationMeasure,
    SolverConfig,
    check_normalization,
    classify_then_regress,
    exact_population_solver,
    load_solution,
    save_solution,
    split_classify_regress,
)

from conftest import random_mdp, random_policy, toggle_mdp
from reference import (
    dense_fit_regressor,
    dense_fit_regressor_folds,
    dense_fitted_fixed_point,
    expect_mu,
    lambda_mu_weights,
    logsumexp_actions,
    plugin_fixed_point,
    policy_value,
    population_fixed_point,
    shape,
    soft_bellman_residual,
    sup_norm,
    weighted_l2,
)

UNIFORM = NormalizationMeasure("uniform")


def T_u_apply(mdp, mu, u, v):
    """One exact fixed-point step: P mu (gamma v - u)."""
    return apply_P(mdp, expect_mu(mu, mdp.gamma * v - u))


class TestTuApply:
    def test_fixed_point_of_exact_solution(self):
        rng = np.random.default_rng(0)
        mdp = random_mdp(rng, 5, 3, 0.9)
        pi = random_policy(rng, 5, 3)
        sol = exact_population_solver(mdp, pi, UNIFORM)
        out = T_u_apply(mdp, sol.mu_table, sol.u, sol.v)
        assert sup_norm(out - sol.v) <= 1e-9

    def test_gamma_zero_ignores_v(self):
        rng = np.random.default_rng(1)
        t = rng.dirichlet(np.ones(4), size=(4, 2))
        mdp = TabularMdp(t, 0.0)
        u = rng.normal(size=(4, 2))
        mu = random_policy(rng, 4, 2)
        out1 = T_u_apply(mdp, mu, u, rng.normal(size=(4, 2)))
        out2 = T_u_apply(mdp, mu, u, rng.normal(size=(4, 2)))
        assert_allclose(out1, out2, atol=1e-14)
        assert_allclose(out1, apply_P(mdp, expect_mu(mu, -u)), atol=1e-14)

    @pytest.mark.parametrize("seed", range(25))
    def test_gamma_contraction(self, seed):
        rng = np.random.default_rng(seed)
        mdp = random_mdp(rng, 4, 3, float(rng.uniform(0.3, 0.97)))
        mu = random_policy(rng, 4, 3)
        u = rng.normal(size=(4, 3))
        v1, v2 = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        lhs = sup_norm(T_u_apply(mdp, mu, u, v1) - T_u_apply(mdp, mu, u, v2))
        assert lhs <= mdp.gamma * sup_norm(v1 - v2) + 1e-12


class TestExactPopulationSolver:
    def test_uniform_policy_constant_solution(self):
        rng = np.random.default_rng(2)
        mdp = random_mdp(rng, 6, 4, 0.9)
        pi = np.full((6, 4), 0.25)
        sol = exact_population_solver(mdp, pi, UNIFORM)
        assert_allclose(sol.r, 0.0, atol=1e-10)
        assert_allclose(sol.c, np.log(4.0) / 0.1, atol=1e-9)
        assert_allclose(sol.v, np.log(4.0) / 0.1, atol=1e-9)

    def test_toggle_frozen_potential(self):
        # dense 2x2 solve oracle: 0.75 c0 - 0.25 c1 = 0.9163,
        # 0.75 c1 - 0.25 c0 = 0.6931
        mdp = toggle_mdp(gamma=0.5)
        pi = np.array([[0.8, 0.2], [0.5, 0.5]])
        sol = exact_population_solver(mdp, pi, UNIFORM)
        assert_allclose(sol.c, [1.7210096880582019, 1.4978661367769954], atol=1e-9)

    def test_satisfies_both_constraints(self):
        rng = np.random.default_rng(3)
        mdp = random_mdp(rng, 5, 3, 0.95)
        pi = random_policy(rng, 5, 3)
        sol = exact_population_solver(mdp, pi, UNIFORM)
        assert sup_norm(soft_bellman_residual(mdp, sol.r, sol.v)) <= 1e-9
        assert check_normalization(sol.r, sol.mu_table) <= 1e-9

    def test_zero_probability_policy_rejected(self):
        mdp = toggle_mdp()
        pi = np.array([[1.0, 0.0], [0.5, 0.5]])
        with pytest.raises(ValueError, match="floor"):
            exact_population_solver(mdp, pi, UNIFORM)

    @pytest.mark.parametrize("kind", ["uniform", "point-mass", "behavior-policy"])
    def test_every_measure_kind(self, kind):
        rng = np.random.default_rng(4)
        mdp = random_mdp(rng, 4, 3, 0.8)
        pi = random_policy(rng, 4, 3)
        sol = exact_population_solver(mdp, pi, NormalizationMeasure(kind))
        assert sup_norm(soft_bellman_residual(mdp, sol.r, sol.v)) <= 1e-9
        assert check_normalization(sol.r, sol.mu_table) <= 1e-10


class TestClassifyThenRegress:
    def test_exact_oracles_match_exact_solver(self):
        rng = np.random.default_rng(5)
        mdp = random_mdp(rng, 5, 3, 0.8)
        pi = random_policy(rng, 5, 3)
        exact = exact_population_solver(mdp, pi, UNIFORM)
        cfg = SolverConfig(gamma=0.8, K=200)
        sol = population_fixed_point(mdp, pi, cfg)
        assert sup_norm(sol.r - exact.r) <= 1e-8

    @pytest.mark.parametrize("solve", [classify_then_regress, split_classify_regress],
                             ids=lambda f: f.__name__)
    def test_k_zero_is_pure_normalization(self, monkeypatch, solve):
        def unreachable(*args):
            raise AssertionError("a regression map was fitted at K = 0")

        def unreachable_folds(*args):  # a generator, as the real one: it fits when a fold is taken
            yield unreachable()

        monkeypatch.setattr(solver_module, "fit_regressor", unreachable)
        monkeypatch.setattr(solver_module, "fit_regressor_folds", unreachable_folds)
        rng = np.random.default_rng(6)
        ds = _tiny_dataset(rng)
        cfg = SolverConfig(gamma=0.9, K=0)
        sol = solve(ds, cfg)
        assert_allclose(sol.v, 0.0)
        mu_u = np.sum(sol.mu_table * sol.u, axis=1)
        assert_allclose(sol.r, sol.u - mu_u[:, None], atol=1e-14)

    def test_point_mass_reference_action_is_exactly_zero(self):
        rng = np.random.default_rng(7)
        ds = _tiny_dataset(rng)
        cfg = SolverConfig(gamma=0.9, K=5, mu=NormalizationMeasure("point-mass", ref_action=1))
        sol = classify_then_regress(ds, cfg)
        assert np.all(sol.r[:, 1] == 0.0)

    @pytest.mark.parametrize("seed", range(15))
    def test_normalization_holds_by_construction(self, seed):
        rng = np.random.default_rng(seed)
        ds = _tiny_dataset(rng, n=300)
        kind = ["uniform", "point-mass", "behavior-policy"][seed % 3]
        cfg = SolverConfig(gamma=0.9, K=3, mu=NormalizationMeasure(kind))
        sol = classify_then_regress(ds, cfg)
        assert check_normalization(sol.r, sol.mu_table) <= 1e-12

    def test_contraction_of_exact_iterates(self):
        rng = np.random.default_rng(8)
        mdp = random_mdp(rng, 4, 3, 0.9)
        pi = random_policy(rng, 4, 3)
        exact = exact_population_solver(mdp, pi, UNIFORM)
        cfg = SolverConfig(gamma=0.9, K=40)
        sol = population_fixed_point(mdp, pi, cfg, record_iterates=True)
        iterates = sol.diagnostics.iterates
        v_star_norm = sup_norm(exact.v)
        for k, v_k in enumerate(iterates):
            assert sup_norm(v_k - exact.v) <= mdp.gamma ** k * v_star_norm + 1e-12

    def test_behavior_mu_keeps_likelihood_optimal(self):
        # r + gamma v - logsumexp(r + gamma v) returns the log-policy
        rng = np.random.default_rng(9)
        mdp = random_mdp(rng, 5, 3, 0.9)
        pi = random_policy(rng, 5, 3)
        cfg = SolverConfig(gamma=0.9, K=300, mu=NormalizationMeasure("behavior-policy"))
        sol = population_fixed_point(mdp, pi, cfg)
        q = sol.r + 0.9 * sol.v
        assert sup_norm(q - logsumexp_actions(q)[:, None] - np.log(pi)) <= 1e-8

    def test_sample_mode_converges_to_exact_solution(self):
        # large-n sanity on a tiny gridworld
        spec = GridworldSpec(2, 2, topology="torus", seed=3, gamma=0.9,
                             min_action_prob=0.05)
        mdp, r_true, _ = build_env(spec)
        pi = expert_policy(mdp, r_true)
        ds = sample_transitions(mdp, pi, 150_000, seed=0, env_id="tiny")
        cfg = SolverConfig(gamma=0.9, classifier=ClassifierSpec(smoothing_alpha=0.0))
        sol = classify_then_regress(ds, cfg)
        exact = exact_population_solver(mdp, pi, UNIFORM)
        assert sup_norm(sol.r - exact.r) <= 0.15
        assert len(sol.diagnostics.eta) == cfg.steps(ds.n)
        assert sol.diagnostics.kappa_hat is not None

    def test_oracle_failure_names_the_iteration(self):
        rng = np.random.default_rng(22)
        ds = _tiny_dataset(rng)
        cfg = SolverConfig(gamma=0.9, K=2,
                           regressor=RegressorSpec(kind="ridge"))  # no features
        with pytest.raises(RuntimeError, match="iteration 1"):
            classify_then_regress(ds, cfg)

    def test_behavior_measure_needs_a_policy(self):
        with pytest.raises(ValueError, match="policy"):
            NormalizationMeasure("behavior-policy").materialize(2, 2)

    def test_auto_k_rule(self):
        assert SolverConfig(gamma=0.97).steps(50_000) == \
            int(np.ceil(np.log(50_000) / np.log(1 / 0.97)))
        assert SolverConfig(gamma=0.5).steps(10) == 4
        assert SolverConfig(gamma=0.0).steps(2) == 1
        assert SolverConfig(gamma=0.999).steps(10 ** 9) == 500  # capped


class TestSplitClassifyRegress:
    def test_agrees_with_full_variant_at_large_n(self):
        spec = GridworldSpec(2, 2, topology="torus", seed=3, gamma=0.9,
                             min_action_prob=0.05)
        mdp, r_true, _ = build_env(spec)
        pi = expert_policy(mdp, r_true)
        ds = sample_transitions(mdp, pi, 100_000, seed=1, env_id="tiny")
        exact = exact_population_solver(mdp, pi, UNIFORM)
        cfg = SolverConfig(gamma=0.9, K=8)
        gap_full = sup_norm(classify_then_regress(ds, cfg).r - exact.r)
        gap_split = sup_norm(split_classify_regress(ds, cfg).r - exact.r)
        assert gap_split <= 3 * max(gap_full, 0.02)

    def test_mu_r_zero_by_construction(self):
        rng = np.random.default_rng(10)
        ds = _tiny_dataset(rng, n=400)
        cfg = SolverConfig(gamma=0.9, K=4)
        sol = split_classify_regress(ds, cfg)
        assert check_normalization(sol.r, sol.mu_table) <= 1e-12

    def test_minimal_input_runs_with_fold_size_one(self):
        rng = np.random.default_rng(11)
        k = 3
        ds = _tiny_dataset(rng, n=2 * k + 2)
        cfg = SolverConfig(gamma=0.9, K=k)
        sol = split_classify_regress(ds, cfg)
        assert any("fold size" in w for w in sol.diagnostics.warnings)

    def test_zero_fold_size_rejected(self):
        rng = np.random.default_rng(12)
        ds = _tiny_dataset(rng, n=6)
        cfg = SolverConfig(gamma=0.9, K=10)
        with pytest.raises(ValueError, match="fold"):
            split_classify_regress(ds, cfg)

    def test_a_failing_fold_names_its_first_iteration(self):
        # at K = 2 the regression half is two folds of four records; the second
        # fold covers one of the four cells, so its one-hot ridge fit without a
        # penalty is rank-deficient, and it is used at iteration 2
        ds = TransitionDataset(np.array([0, 0, 1, 1] * 3 + [0] * 4),
                               np.array([0, 1, 0, 1] * 3 + [0] * 4), np.zeros(16, dtype=int),
                               {"n_states": 2, "n_actions": 2})
        cfg = SolverConfig(gamma=0.9, K=2, regressor=RegressorSpec(
            kind="ridge", features=np.eye(4).reshape(2, 2, 4)))
        with pytest.raises(RuntimeError, match="failed at iteration 2: .*ridge_lambda"):
            split_classify_regress(ds, cfg)

    def test_frees_each_fold_map_once_its_step_is_done(self, monkeypatch):
        # one fold per step: when the generator gives a step's ridge map, no map
        # before the one just in use may still be alive
        rng = np.random.default_rng(13)
        ds = _tiny_dataset(rng, n=480)
        cfg = SolverConfig(gamma=0.9, K=6, regressor=RegressorSpec(
            kind="ridge", ridge_lambda=0.1, features=rng.normal(size=(4, 5, 3))))
        real, maps, older_alive = solver_module.fit_regressor_folds, [], []

        def tracked(*args):
            for fold_map in real(*args):
                older_alive.append(sum(ref() is not None for ref in maps[:-1]))
                maps.append(weakref.ref(fold_map.kernel[2]))
                yield fold_map

        monkeypatch.setattr(solver_module, "fit_regressor_folds", tracked)
        split_classify_regress(ds, cfg)
        assert len(maps) == 6
        assert older_alive == [0] * 6

    def test_warns_about_states_the_classifier_half_missed(self):
        # state 3 only appears in the second half, which the classifier skips
        ds = TransitionDataset(np.array([0, 1, 2, 0, 3, 3, 1, 2]), np.zeros(8, dtype=int),
                               np.array([1, 2, 0, 3, 3, 1, 2, 0]),
                               {"n_states": 4, "n_actions": 2})
        sol = split_classify_regress(ds, SolverConfig(gamma=0.9, K=2))
        assert "1 states never visited; classifier rows default to uniform there" \
            in sol.diagnostics.warnings


@pytest.mark.parametrize("solve", [classify_then_regress, split_classify_regress],
                         ids=lambda f: f.__name__)
def test_diagnostics_carry_the_full_sample_frequency_table(solve):
    """MaxEnt fits to this table and empirical weighting reads it, so it must
    be the whole sample's joint frequency, also when the classifier saw half."""
    ds = _tiny_dataset(np.random.default_rng(23), n=301)
    freq = solve(ds, SolverConfig(gamma=0.9, K=3)).diagnostics.freq
    want = joint_frequency(ds.states, ds.actions, ds.meta["n_states"], ds.meta["n_actions"])
    assert freq.dtype == want.dtype and freq.shape == want.shape
    assert freq.tobytes() == want.tobytes()


def _refit_reference(data, cfg, u, mu_t, split):
    """The per-iteration refit loop the solver replaced: every step regresses
    the targets record by record with bincount on that step's fold, and
    eta is the RMS misfit over those records. Returns (v, eta)."""
    ns, na = u.shape
    spec = cfg.regressor
    s, a, s2 = (np.asarray(x) for x in (data.states, data.actions, data.next_states))
    k_steps = cfg.steps(data.n)
    half = data.n // 2
    size = half // max(k_steps, 1)
    v, eta = np.zeros((ns, na)), []
    for k in range(k_steps):
        sl = slice(half + k * size, half + (k + 1) * size) if split else slice(None)
        y = np.sum(mu_t * (cfg.gamma * v - u), axis=1)[s2[sl]]
        cells = s[sl] * na + a[sl]
        cnt = np.bincount(cells, minlength=ns * na).astype(float)
        sums = np.bincount(cells, weights=y, minlength=ns * na)
        if spec.kind == "tabular-mean":
            flat = np.where(cnt > 0, sums / np.maximum(cnt, 1.0), 0.0)
        else:
            phi = spec.features.reshape(ns * na, -1)
            gram = (phi * cnt[:, None]).T @ phi + spec.ridge_lambda * np.eye(phi.shape[1])
            flat = phi @ np.linalg.solve(gram, phi.T @ sums)
        eta.append(float(np.sqrt(np.mean((flat[cells] - y) ** 2))))
        v = flat.reshape(ns, na)
    return v, eta


REFERENCE_TOL = 1e-10


class TestMatchesRefitReference:
    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize("case", ["covered", "empty-cells", "ridge"])
    def test_fitted_maps_match_per_iteration_refits(self, split, case):
        spec = GridworldSpec(2, 2, topology="torus", seed=5, gamma=0.9,
                             min_action_prob=0.05, move_noise=0.3)
        mdp, r_true, _ = build_env(spec)
        pi = expert_policy(mdp, r_true)
        regressor = RegressorSpec()
        n = 20_000
        if case == "empty-cells":
            n = 120 if split else 30
        elif case == "ridge":
            features = np.random.default_rng(6).normal(size=(4, 5, 3))
            regressor = RegressorSpec(kind="ridge", ridge_lambda=0.1, features=features)
        ds = sample_transitions(mdp, pi, n, seed=7, env_id="tiny")
        # split, K = 6 steps cut the regression half into 6 folds, one per step
        cfg = SolverConfig(gamma=0.9, K=6 if split else 40, regressor=regressor,
                           mu=NormalizationMeasure("behavior-policy"))
        sol = (split_classify_regress if split else classify_then_regress)(ds, cfg)
        unvisited = any("unvisited per regression" in w for w in sol.diagnostics.warnings)
        assert unvisited == (case == "empty-cells")

        v, eta = _refit_reference(ds, cfg, sol.u, sol.mu_table, split)
        w = sol.u - cfg.gamma * v
        r = w - np.sum(sol.mu_table * w, axis=1)[:, None]
        assert sup_norm(sol.v - v) <= REFERENCE_TOL
        assert sup_norm(sol.r - r) <= REFERENCE_TOL
        assert sup_norm(np.array(sol.diagnostics.eta) - eta) <= REFERENCE_TOL
        assert max(eta) > 0.01


def _dense_solve(monkeypatch, method, data, cfg):
    """`method` with every fold fitted and applied densely (tests/reference.py)."""
    with monkeypatch.context() as m:
        m.setattr(solver_module, "fit_regressor", dense_fit_regressor)
        m.setattr(solver_module, "fit_regressor_folds", dense_fit_regressor_folds)
        m.setattr(solver_module, "_fitted_fixed_point", dense_fitted_fixed_point)
        return method(data, cfg)


@pytest.fixture(scope="module")
def ident_50k():
    experiment = builtin_experiment("ident")
    mdp, r_true, _ = build_env(experiment.env)
    data = sample_transitions(mdp, expert_policy(mdp, r_true), 50_000, seed=1, env_id="ident")
    return data, experiment.solver


class TestSparseFoldMapsMatchDense:
    """The (row, col, value) fold maps against dense (S*A, S) kernels: bit
    for bit where each visited cell has one next state, as on ident, and to
    rounding where a row sums several terms."""

    @pytest.mark.parametrize("method", [classify_then_regress, split_classify_regress])
    def test_ident_bit_for_bit(self, monkeypatch, ident_50k, method):
        data, cfg = ident_50k
        sol = method(data, cfg)
        ref = _dense_solve(monkeypatch, method, data, cfg)
        assert np.array_equal(sol.v, ref.v)
        assert np.array_equal(sol.r, ref.r)
        assert np.array_equal(sol.diagnostics.eta, ref.diagnostics.eta)
        assert sol.diagnostics.warnings == ref.diagnostics.warnings

    @pytest.mark.parametrize("method", [classify_then_regress, split_classify_regress])
    @pytest.mark.parametrize("case", ["move-noise", "ridge"])
    def test_to_rounding(self, monkeypatch, method, case):
        spec = GridworldSpec(4, 4, topology="torus", seed=3, min_action_prob=0.05,
                             move_noise=0.3)
        mdp, r_true, _ = build_env(spec)
        data = sample_transitions(mdp, expert_policy(mdp, r_true), 20_000, seed=2, env_id="noisy")
        regressor = RegressorSpec()
        if case == "ridge":
            features = np.random.default_rng(8).normal(size=(16, 5, 6))
            regressor = RegressorSpec(kind="ridge", ridge_lambda=0.1, features=features)
        cfg = SolverConfig(gamma=spec.gamma, regressor=regressor)
        sol = method(data, cfg)
        ref = _dense_solve(monkeypatch, method, data, cfg)
        for ours, dense in ((sol.v, ref.v), (sol.r, ref.r),
                            (sol.diagnostics.eta, ref.diagnostics.eta)):
            ours, dense = np.asarray(ours), np.asarray(dense)
            assert sup_norm(ours - dense) <= 1e-12 * sup_norm(dense)


class TestPluginFixedPoint:
    """`classify_then_regress` against its K = infinity limit, one linear
    solve over the same fitted map (ROADMAP item 5). The K-th iterate's v
    error is (gamma M mu)^K applied to -v_plug, so it is at most rho^K times
    |v_plug|, rho = gamma * |M|_inf; r = w - mu w with w = u - gamma v moves by
    at most 2 gamma times that."""

    @pytest.mark.parametrize("case", ["covered", "empty-cells", "ridge"])
    def test_full_sample_solve_lies_within_the_rate_bound(self, ident_50k, case):
        data, cfg = ident_50k
        if case != "covered":
            name = "ident" if case == "empty-cells" else "easy"
            experiment = builtin_experiment(name)
            mdp, r_true, phi = build_env(experiment.env)
            cfg = experiment.solver
            if case == "ridge":
                cfg = dataclasses.replace(cfg, regressor=RegressorSpec(
                    kind="ridge", ridge_lambda=1e-3, features=phi))
            n = 2_000 if case == "empty-cells" else 50_000
            data = sample_transitions(mdp, expert_policy(mdp, r_true), n, seed=1, env_id=name)
        sol = classify_then_regress(data, cfg)
        plug, kernel = plugin_fixed_point(data, cfg)
        unvisited = any("unvisited per regression" in w for w in sol.diagnostics.warnings)
        assert unvisited == (case == "empty-cells")
        if case == "ridge":
            # ridge's M has rows of absolute sum above 1 (gamma |M|_inf is 2.69
            # here), so its rate is the spectral radius of gamma mu M, which
            # shares the nonzero eigenvalues of gamma M mu
            ns, na = data.meta["n_states"], data.meta["n_actions"]
            mu_kernel = np.einsum("sa,san->sn", plug.mu_table, kernel.reshape(ns, na, ns))
            rho = np.max(np.abs(np.linalg.eigvals(cfg.gamma * mu_kernel)))
        else:
            rho = cfg.gamma * np.max(np.abs(kernel).sum(axis=1))
        bound = rho ** cfg.steps(data.n) * sup_norm(plug.v) + 1e-9
        assert sup_norm(sol.v - plug.v) <= bound
        assert sup_norm(sol.r - plug.r) <= 2 * cfg.gamma * bound


class TestRidgeAtLowN:
    def test_ridge_recovers_the_normalized_reward_better_than_tabular_on_hard(self):
        # At n = 2k some of hard's (s, a) cells go unvisited, and the tabular
        # mean predicts 0 there; ridge on the env's features
        # predicts them from the visited cells. The score is the RMSE of r
        # against the exact normalized truth, which sees the regression stage.
        experiment = builtin_experiment("hard")
        mdp, r_true, phi = build_env(experiment.env)
        pi = expert_policy(mdp, r_true)
        truth = exact_population_solver(mdp, pi, experiment.solver.mu).r
        ridge = dataclasses.replace(experiment.solver, regressor=RegressorSpec(
            kind="ridge", ridge_lambda=1e-3, features=phi))
        rmse = {"tabular": [], "ridge": []}
        for seed in range(5):
            data = sample_transitions(mdp, pi, 2_000, seed=seed, env_id="hard")
            for name, cfg in (("tabular", experiment.solver), ("ridge", ridge)):
                r_hat = classify_then_regress(data, cfg).r
                rmse[name].append(np.sqrt(np.mean((r_hat - truth) ** 2)))
        assert np.mean(rmse["ridge"]) < np.mean(rmse["tabular"])


class TestShaping:
    def test_zero_potential_is_identity(self):
        rng = np.random.default_rng(13)
        mdp = random_mdp(rng, 4, 3, 0.9)
        r, v = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        r2, v2 = shape(r, v, np.zeros(4), mdp)
        assert_allclose(r2, r)
        assert_allclose(v2, v)

    def test_preserves_feasibility(self):
        rng = np.random.default_rng(14)
        mdp = random_mdp(rng, 5, 3, 0.9)
        pi = random_policy(rng, 5, 3)
        r, v = np.log(pi), np.zeros((5, 3))
        r2, v2 = shape(r, v, rng.normal(size=5), mdp)
        assert sup_norm(soft_bellman_residual(mdp, r2, v2)) <= 1e-10

    def test_qdiff_invariance(self):
        rng = np.random.default_rng(15)
        mdp = random_mdp(rng, 5, 3, 0.9)
        r, v = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        r2, v2 = shape(r, v, rng.normal(size=5), mdp)
        q1 = r + mdp.gamma * v
        q2 = r2 + mdp.gamma * v2
        d1 = q1 - q1[:, [0]]
        d2 = q2 - q2[:, [0]]
        assert sup_norm(d1 - d2) <= 1e-12

    def test_value_differences_match_exact_solution(self):
        rng = np.random.default_rng(23)
        mdp = random_mdp(rng, 5, 3, 0.85)
        pi = random_policy(rng, 5, 3)
        sol = exact_population_solver(mdp, pi, UNIFORM)
        u = np.log(pi)
        pi1, pi2 = random_policy(rng, 5, 3), random_policy(rng, 5, 3)
        d_trivial = policy_value(mdp, u, pi1) - policy_value(mdp, u, pi2)
        d_exact = policy_value(mdp, sol.r, pi1) - policy_value(mdp, sol.r, pi2)
        assert sup_norm(d_trivial - d_exact) <= 1e-8

    def test_policy_value_differences_identified(self):
        # value differences agree between (log pi, 0) and any shaped optimum
        rng = np.random.default_rng(16)
        mdp = random_mdp(rng, 5, 3, 0.85)
        pi = random_policy(rng, 5, 3)
        u = np.log(pi)
        r2, _ = shape(u, np.zeros((5, 3)), rng.normal(size=5), mdp)
        pi1, pi2 = random_policy(rng, 5, 3), random_policy(rng, 5, 3)
        d_trivial = policy_value(mdp, u, pi1) - policy_value(mdp, u, pi2)
        d_shaped = policy_value(mdp, r2, pi1) - policy_value(mdp, r2, pi2)
        assert sup_norm(d_trivial - d_shaped) <= 1e-8


class TestCheckNormalization:
    def test_exact_solution_is_normalized(self):
        rng = np.random.default_rng(17)
        mdp = random_mdp(rng, 4, 3, 0.9)
        sol = exact_population_solver(mdp, random_policy(rng, 4, 3), UNIFORM)
        assert check_normalization(sol.r, sol.mu_table) <= 1e-10

    def test_unnormalized_log_policy_is_positive(self):
        rng = np.random.default_rng(18)
        pi = random_policy(rng, 4, 3)
        mu = np.full((4, 3), 1 / 3)
        assert check_normalization(np.log(pi), mu) > 1e-3

    def test_recentring_reaches_zero(self):
        rng = np.random.default_rng(19)
        r = rng.normal(size=(4, 3))
        mu = random_policy(rng, 4, 3)
        r0 = r - np.sum(mu * r, axis=1)[:, None]
        assert check_normalization(r0, mu) <= 1e-14


class TestStability:
    def test_fixed_point_is_lipschitz_in_u(self):
        # moving u by delta moves the fixed point by at most delta / (1 - gamma)
        rng = np.random.default_rng(20)
        for _ in range(5):
            mdp = random_mdp(rng, 4, 3, float(rng.uniform(0.5, 0.95)))
            mu = random_policy(rng, 4, 3)
            pi = random_policy(rng, 4, 3)
            u1 = np.log(pi)
            u2 = u1 + 0.1 * rng.uniform(-1, 1, size=(4, 3))
            w = lambda_mu_weights(mdp, mu)
            v1 = _fixed_point(mdp, mu, u1)
            v2 = _fixed_point(mdp, mu, u2)
            lhs = weighted_l2(v1 - v2, w)
            rhs = weighted_l2(u1 - u2, w) / (1.0 - mdp.gamma)
            assert lhs <= rhs + 1e-10


class TestSolutionIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(21)
        mdp = random_mdp(rng, 4, 3, 0.9)
        sol = exact_population_solver(mdp, random_policy(rng, 4, 3), UNIFORM)
        save_solution(sol, tmp_path / "sol")
        back = load_solution(tmp_path / "sol")
        assert_allclose(back.r, sol.r, atol=0)
        assert_allclose(back.v, sol.v, atol=0)
        assert_allclose(back.u, sol.u, atol=0)
        assert_allclose(back.c, sol.c, atol=0)
        assert back.gamma == sol.gamma

    def test_the_iteration_count_is_the_eta_count(self, tmp_path):
        sol = classify_then_regress(_tiny_dataset(np.random.default_rng(3)),
                                    SolverConfig(gamma=0.9, K=7))
        save_solution(sol, tmp_path / "sol")
        payload = json.loads((tmp_path / "sol" / "diagnostics.json").read_text())
        assert payload["iterations"] == len(payload["eta"]) == 7
        assert load_solution(tmp_path / "sol").diagnostics.iterations == 7
        with pytest.raises(AttributeError):
            sol.diagnostics.iterations = 3


def _fixed_point(mdp, mu, u, iters=4000):
    v = np.zeros_like(u)
    for _ in range(iters):
        v = T_u_apply(mdp, mu, u, v)
    return v


def _tiny_dataset(rng, n=200):
    spec = GridworldSpec(2, 2, topology="torus", seed=int(rng.integers(1000)),
                         gamma=0.9, min_action_prob=0.05)
    mdp, r_true, _ = build_env(spec)
    pi = expert_policy(mdp, r_true)
    return sample_transitions(mdp, pi, n, seed=int(rng.integers(1000)), env_id="tiny")
