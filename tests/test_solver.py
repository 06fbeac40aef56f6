import json
import re
import warnings
from dataclasses import FrozenInstanceError, replace

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
from softirl.mdp import TabularMdp, apply_P, cell_counts
from softirl.oracles import FittedRegressor, fit_regressor
from softirl.solver import (
    IrlSolution,
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
    dense_misfit,
    expect_mu,
    lambda_mu_weights,
    logsumexp_actions,
    plugin_fixed_point,
    policy_value,
    population_fixed_point,
    savetxt_table,
    shape,
    soft_bellman_residual,
    sup_norm,
    weighted_l2,
)

UNIFORM = SolverConfig(mu="uniform")


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
        sol = exact_population_solver(mdp, pi, SolverConfig(mu=kind))
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

    @pytest.mark.parametrize("kind", ["uniform", "behavior-policy"])
    def test_a_column_major_policy_gives_the_same_bits(self, kind):
        """The loop's (S, A) work table is a view of its flat buffer whatever the
        memory order of u = log(pi) and mu, so a Fortran-ordered pi solves alike."""
        rng = np.random.default_rng(5)
        mdp = random_mdp(rng, 5, 3, 0.8)
        pi = random_policy(rng, 5, 3)
        cfg = SolverConfig(gamma=0.8, K=20, mu=kind)
        ours, ref = (population_fixed_point(mdp, p, cfg) for p in (np.asfortranarray(pi), pi))
        assert not np.log(np.asfortranarray(pi)).flags.c_contiguous
        for name in ("r", "v", "c", "u", "mu_table"):
            assert np.array_equal(getattr(ours, name), getattr(ref, name))

    @pytest.mark.parametrize("solve", [classify_then_regress, split_classify_regress],
                             ids=lambda f: f.__name__)
    def test_k_zero_is_pure_normalization(self, monkeypatch, solve):
        # the full-sample solve fits its map for the counts, but no map is applied
        def unreachable(*args):
            raise AssertionError("a regression map was fitted or applied at K = 0")

        monkeypatch.setattr(FittedRegressor, "step", unreachable)
        monkeypatch.setattr(solver_module, "fit_regressor_folds", unreachable)
        rng = np.random.default_rng(6)
        ds = _tiny_dataset(rng)
        cfg = SolverConfig(gamma=0.9, K=0)
        sol = solve(ds, cfg)
        assert_allclose(sol.v, 0.0)
        mu_u = np.sum(sol.mu_table * sol.u, axis=1)
        assert_allclose(sol.r, sol.u - mu_u[:, None], atol=1e-14)

    def test_k_zero_is_the_classifier_alone_bit_for_bit(self):
        # no map is applied: v = 0, and u, mu and the diagnostics come from pi
        # fitted on the records' cell counts, as when K = 0 fitted no map
        ds = _tiny_dataset(np.random.default_rng(24))
        cfg = SolverConfig(gamma=0.9, K=0, mu="behavior-policy", smoothing_alpha=0.5)
        sol = classify_then_regress(ds, cfg)
        counts = cell_counts(ds.states, ds.actions, ds.meta["n_states"], ds.meta["n_actions"])
        u, mu_t, diag = solver_module._fit_policy(cfg, counts, counts)
        want = solver_module._fitted_fixed_point(cfg, u, mu_t, [], diag, False)
        for name in ("r", "v", "u", "c", "mu_table"):
            assert getattr(sol, name).tobytes() == getattr(want, name).tobytes(), name
        assert not sol.v.any() and sol.diagnostics == want.diagnostics
        assert sol.diagnostics.eta == [] and sol.diagnostics.nu_proxy is not None

    def test_the_full_sample_solve_checks_its_records_once(self, monkeypatch):
        # its classifier reads the cell counts of its regression map, not the records
        from softirl import mdp as mdp_module
        from softirl import oracles

        ds = _tiny_dataset(np.random.default_rng(25))
        lengths = []
        for module in (mdp_module, oracles):
            def spy(*args, check=module.check_records):
                lengths.append(len(args[2]))
                return check(*args)

            monkeypatch.setattr(module, "check_records", spy)
        classify_then_regress(ds, SolverConfig(gamma=0.9, K=3))
        assert lengths.count(ds.n) == 1

    def test_the_split_solve_checks_each_record_once_beside_its_fit(self, monkeypatch):
        # the classifier half and the rest are counted once each, and the
        # whole sample's table is their sum; the regression fit checks its own
        # K folds. A recount of the whole sample would check 1.5 n beside the fit
        from softirl import mdp as mdp_module
        from softirl import oracles

        ds = _tiny_dataset(np.random.default_rng(26), n=201)
        cfg = SolverConfig(gamma=0.9, K=7)
        seen = {mdp_module: [], oracles: []}
        for module in seen:
            def spy(*args, check=module.check_records, lengths=seen[module]):
                lengths.append(len(args[2]))
                return check(*args)

            monkeypatch.setattr(module, "check_records", spy)
        split_classify_regress(ds, cfg)
        assert seen[oracles] == [7 * (100 // 7)]  # the fit's own check
        assert seen[mdp_module] == [100, 101] and sum(seen[mdp_module]) <= ds.n

    @pytest.mark.parametrize("solve", [classify_then_regress, split_classify_regress],
                             ids=lambda f: f.__name__)
    def test_the_whole_sample_counts_are_handed_on(self, solve):
        # the whole sample's (S, A) counts ride on the diagnostics, as
        # `cell_counts` counts them, so their frequency has its bits
        ds = _tiny_dataset(np.random.default_rng(27))
        sol = solve(ds, SolverConfig(gamma=0.9, K=4))
        counts = sol.diagnostics.sample_counts
        want = cell_counts(ds.states, ds.actions, ds.meta["n_states"], ds.meta["n_actions"])
        assert counts.dtype == want.dtype and np.array_equal(counts, want)
        assert (counts / counts.sum()).tobytes() == (want / want.sum()).tobytes()

    def test_point_mass_reference_action_is_exactly_zero(self):
        rng = np.random.default_rng(7)
        ds = _tiny_dataset(rng)
        cfg = SolverConfig(gamma=0.9, K=5, mu="point-mass", mu_ref_action=1)
        sol = classify_then_regress(ds, cfg)
        assert np.all(sol.r[:, 1] == 0.0)

    @pytest.mark.parametrize("seed", range(15))
    def test_normalization_holds_by_construction(self, seed):
        rng = np.random.default_rng(seed)
        ds = _tiny_dataset(rng, n=300)
        kind = ["uniform", "point-mass", "behavior-policy"][seed % 3]
        cfg = SolverConfig(gamma=0.9, K=3, mu=kind)
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
        cfg = SolverConfig(gamma=0.9, K=300, mu="behavior-policy")
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
        cfg = SolverConfig(gamma=0.9, smoothing_alpha=0.0)
        sol = classify_then_regress(ds, cfg)
        exact = exact_population_solver(mdp, pi, UNIFORM)
        assert sup_norm(sol.r - exact.r) <= 0.15
        assert len(sol.diagnostics.eta) == cfg.steps(ds.n)
        assert sol.diagnostics.kappa_hat is not None

    def test_nu_proxy_is_not_negative_when_the_fit_equals_the_empirical_rows(self):
        # every action is seen, so each KL term is renormalization rounding:
        # the unclamped sum is -6.2e-18 on this sample
        spec = GridworldSpec(3, 3, topology="bounded", reward_kind="tabular-linear", seed=5,
                             min_action_prob=0.03)
        mdp, r_true, _ = build_env(spec)
        ds = sample_transitions(mdp, expert_policy(mdp, r_true), 2000, seed=12, env_id="g")
        assert classify_then_regress(ds, SolverConfig(gamma=spec.gamma, K=0)) \
            .diagnostics.nu_proxy == 0.0

    def test_a_bad_next_state_fails_when_the_map_is_fitted(self):
        ds = _tiny_dataset(np.random.default_rng(22))
        ds.next_states[-1] = 4  # out of the 4 states' range; only the regressor reads it
        with pytest.raises(ValueError, match=r"^next state index out of range \[0, 4\)$"):
            classify_then_regress(ds, SolverConfig(gamma=0.9, K=2))

    def test_point_mass_action_must_be_an_action_index(self):
        with pytest.raises(ValueError, match="^mu_ref_action 3 out of range$"):
            SolverConfig(mu="point-mass", mu_ref_action=3).mu_table(2, 3)

    @pytest.mark.parametrize("action", [True, 1.5, "1", None])
    def test_point_mass_action_must_be_an_integer(self, action):
        # as an index, True would set every entry of the table to 1.0, and 1.5 raise IndexError
        with pytest.raises(ValueError, match=f"^mu_ref_action: must be an integer, got "
                                             f"{re.escape(repr(action))}$"):
            SolverConfig(mu="point-mass", mu_ref_action=action)
        table = SolverConfig(mu="point-mass", mu_ref_action=np.int64(1)).mu_table(2, 3)
        assert table.tolist() == [[0.0, 1.0, 0.0]] * 2

    @pytest.mark.parametrize("solve, n, message", [
        (classify_then_regress, 0, "empty dataset"),
        (split_classify_regress, 1, "need at least 2 records to split"),
    ], ids=["full-sample", "split"])
    def test_too_few_records_rejected(self, solve, n, message):
        ds = TransitionDataset(np.zeros(n, dtype=int), np.zeros(n, dtype=int),
                               np.zeros(n, dtype=int), {"n_states": 2, "n_actions": 2})
        with pytest.raises(ValueError, match=f"^{message}$"):
            solve(ds, SolverConfig(gamma=0.9, K=1))

    def test_behavior_measure_needs_a_policy(self):
        with pytest.raises(ValueError, match="policy"):
            SolverConfig(mu="behavior-policy").mu_table(2, 2)

    @pytest.mark.parametrize("K", [2.5, 2.0, True, -1, "2", None])
    def test_k_must_be_auto_or_a_nonnegative_integer(self, K):
        message = f"K: must be 'auto' or a nonnegative integer, got {K!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SolverConfig(K=K)

    def test_settings_cannot_change_after_their_check(self):
        # an unfrozen config once took K = 2.5 after its check and ran 2 steps
        cfg = SolverConfig(gamma=0.9, K=3)
        with pytest.raises(FrozenInstanceError):
            cfg.K = 2.5
        assert cfg.K == 3

    @pytest.mark.parametrize("alpha", [-1.0, -np.inf, np.inf, np.nan],
                             ids=["negative", "minus-inf", "inf", "nan"])
    def test_smoothing_alpha_must_be_finite_and_nonnegative(self, alpha):
        with pytest.raises(ValueError, match=re.escape(
                f"smoothing_alpha: must be finite and nonnegative, got {alpha}")):
            SolverConfig(smoothing_alpha=alpha)

    def test_mu_must_name_a_measure(self):
        message = "mu: must be one of ('uniform', 'point-mass', 'behavior-policy'), got 'median'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SolverConfig(mu="median")

    @pytest.mark.parametrize("gamma", [1.0, 1.5, -0.5, np.nan])
    def test_gamma_must_lie_in_the_unit_interval(self, gamma):
        # steps() divides by ln(1 / gamma), 0 at 1.0; 1.5 and -0.5 would make K = 1,
        # and nan fails inside math.ceil
        message = f"gamma: must lie in [0, 1), got {gamma}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SolverConfig(gamma=gamma)

    def test_equal_configs_compare_and_hash_equal(self):
        for a, b in [(SolverConfig(), SolverConfig(smoothing_alpha=0.0)),
                     (SolverConfig(smoothing_alpha=1), SolverConfig(smoothing_alpha=1.0))]:
            assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert SolverConfig() != SolverConfig(smoothing_alpha=1.0)

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

    def test_a_bad_next_state_in_a_later_fold_fails_when_the_folds_are_fitted(self):
        # at K = 2 the regression half is two folds of 100 records; a bad next
        # state in the second fails the fit of both, before the first step,
        # since the folds are checked together
        ds = _tiny_dataset(np.random.default_rng(23))
        ds.next_states[-1] = 4  # out of the 4 states' range; only the regressor reads it
        with pytest.raises(ValueError, match=r"^next state index out of range \[0, 4\)$"):
            split_classify_regress(ds, SolverConfig(gamma=0.9, K=2))

    def test_warns_about_states_the_classifier_half_missed(self):
        # state 3 only appears in the second half, which the classifier skips
        ds = TransitionDataset(np.array([0, 1, 2, 0, 3, 3, 1, 2]), np.zeros(8, dtype=int),
                               np.array([1, 2, 0, 3, 3, 1, 2, 0]),
                               {"n_states": 4, "n_actions": 2})
        sol = split_classify_regress(ds, SolverConfig(gamma=0.9, K=2))
        assert "1 states never visited; classifier rows default to uniform there" \
            in sol.diagnostics.warnings


def _refit_reference(data, cfg, u, mu_t, split):
    """The per-iteration refit loop the solver replaced: every step regresses
    the targets record by record with bincount on that step's fold, and
    eta is the RMS misfit over those records. Returns (v, eta)."""
    ns, na = u.shape
    s, a, s2 = (np.asarray(x, dtype=np.int64) for x in (data.states, data.actions,
                                                        data.next_states))
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
        flat = np.where(cnt > 0, sums / np.maximum(cnt, 1.0), 0.0)
        eta.append(float(np.sqrt(np.mean((flat[cells] - y) ** 2))))
        v = flat.reshape(ns, na)
    return v, eta


REFERENCE_TOL = 1e-10


class TestMatchesRefitReference:
    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize("case", ["covered", "empty-cells"])
    def test_fitted_maps_match_per_iteration_refits(self, split, case):
        spec = GridworldSpec(2, 2, topology="torus", seed=5, gamma=0.9,
                             min_action_prob=0.05, move_noise=0.3)
        mdp, r_true, _ = build_env(spec)
        pi = expert_policy(mdp, r_true)
        n = 20_000
        if case == "empty-cells":
            n = 120 if split else 30
        ds = sample_transitions(mdp, pi, n, seed=7, env_id="tiny")
        # split, K = 6 steps cut the regression half into 6 folds, one per step
        cfg = SolverConfig(gamma=0.9, K=6 if split else 40,
                           mu="behavior-policy")
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
    @pytest.mark.parametrize("case", ["move-noise", "empty-cells"])
    def test_to_rounding(self, monkeypatch, method, case):
        spec = GridworldSpec(4, 4, topology="torus", seed=3, min_action_prob=0.05,
                             move_noise=0.3)
        mdp, r_true, _ = build_env(spec)
        cfg = SolverConfig(gamma=spec.gamma)
        n = 20_000
        if case == "empty-cells":  # 120 records, or 6 folds of 10, leave cells of the 80 unvisited
            n, cfg = 120, SolverConfig(gamma=spec.gamma, K=6)
        data = sample_transitions(mdp, expert_policy(mdp, r_true), n, seed=2, env_id="noisy")
        sol = method(data, cfg)
        if case == "empty-cells":
            assert any("unvisited per regression" in w for w in sol.diagnostics.warnings)
        ref = _dense_solve(monkeypatch, method, data, cfg)
        for ours, dense in ((sol.v, ref.v), (sol.r, ref.r),
                            (sol.diagnostics.eta, ref.diagnostics.eta)):
            ours, dense = np.asarray(ours), np.asarray(dense)
            assert sup_norm(ours - dense) <= 1e-12 * sup_norm(dense)


class TestExactFitSkipsTheMisfit:
    """A fitted map with one next state per visited cell is `exact`: its
    `step` gives eta = 0.0 with no misfit pass, and any other map runs the
    pass. `step` and `_fitted_fixed_point`, which reads nothing else of a map
    but its empty-cell count, against the dense loop of tests/reference.py,
    bit for bit."""

    # (s, a, s') records on (S, A) = (3, 2); cells (1, 0) and (2, 0) have none
    ONE_HOT = [(0, 0, 1), (0, 0, 1), (0, 1, 2), (1, 1, 0), (1, 1, 0), (1, 1, 0), (2, 1, 2)]
    # cell (0, 0) reaches states 1 and 2: M g there is their mean, which misses both
    TWO_NEXT = [(0, 0, 1), (0, 0, 2), *ONE_HOT[2:]]

    @pytest.mark.parametrize("records", [ONE_HOT, TWO_NEXT], ids=["one-hot", "two-next-states"])
    def test_against_the_dense_loop(self, records):
        rng = np.random.default_rng(4)
        u = np.log(random_policy(rng, 3, 2))
        mu_t = random_policy(rng, 3, 2)
        cfg = SolverConfig(gamma=0.9, K=6)
        columns = [np.array(c) for c in zip(*records)]
        sparse, dense = (fit(*columns, 3, 2) for fit in (fit_regressor, dense_fit_regressor))
        sol = solver_module._fitted_fixed_point(cfg, u, mu_t, [sparse] * 6,
                                                solver_module.SolverDiagnostics(), True)
        ref = dense_fitted_fixed_point(cfg, u, mu_t, [dense] * 6,
                                       solver_module.SolverDiagnostics(), False)
        assert np.array_equal(sol.v, ref.v)
        assert np.array_equal(sol.r, ref.r)
        assert np.array_equal(sol.diagnostics.eta, ref.diagnostics.eta)
        assert sol.diagnostics.warnings == ref.diagnostics.warnings == [
            "up to 2 (s, a) cells unvisited per regression fold; each predicts 0"]
        assert [v.shape for v in sol.diagnostics.iterates] == [(3, 2)] * 7
        if records is self.ONE_HOT:
            assert sol.diagnostics.eta == [0.0] * 6
        else:
            assert min(sol.diagnostics.eta) > 0.0

    @pytest.mark.parametrize("records", [ONE_HOT, TWO_NEXT], ids=["one-hot", "two-next-states"])
    def test_step_is_the_dense_product_and_misfit(self, records):
        rng = np.random.default_rng(5)
        columns = [np.array(c) for c in zip(*records)]
        sparse, dense = (fit(*columns, 3, 2) for fit in (fit_regressor, dense_fit_regressor))
        assert sparse.exact == (records is self.ONE_HOT)
        for g in rng.normal(size=(4, 3)):
            v, eta = sparse.step(g)
            assert v.tobytes() == (dense.kernel @ g).tobytes()
            assert eta == dense_misfit(dense, v, g)

    @pytest.mark.parametrize("records", [ONE_HOT, TWO_NEXT], ids=["one-hot", "two-next-states"])
    def test_the_loop_needs_only_step_and_the_empty_cell_count(self, records):
        class ProtocolOnly:  # a map with nothing the loop may read but these two
            __slots__ = ("step", "n_empty_cells")

        dense = dense_fit_regressor(*[np.array(c) for c in zip(*records)], 3, 2)
        stub = ProtocolOnly()
        stub.step = lambda g: (v := dense.kernel @ g, dense_misfit(dense, v, g))
        stub.n_empty_cells = dense.diagnostics["n_empty_cells"]
        rng = np.random.default_rng(4)
        u, mu_t = np.log(random_policy(rng, 3, 2)), random_policy(rng, 3, 2)
        cfg = SolverConfig(gamma=0.9, K=6)
        sol = solver_module._fitted_fixed_point(cfg, u, mu_t, [stub] * 6,
                                                solver_module.SolverDiagnostics(), False)
        ref = dense_fitted_fixed_point(cfg, u, mu_t, [dense] * 6,
                                       solver_module.SolverDiagnostics(), False)
        assert sol.v.tobytes() == ref.v.tobytes()
        assert sol.r.tobytes() == ref.r.tobytes()
        assert sol.diagnostics.eta == ref.diagnostics.eta
        assert sol.diagnostics.warnings == ref.diagnostics.warnings

    @pytest.mark.parametrize("k", [0, 1, 7, None], ids=["0", "1", "7", "K"])
    def test_each_recorded_iterate_is_the_solve_of_that_many_steps(self, ident_50k, k):
        data, cfg = ident_50k
        traced = classify_then_regress(data, cfg, record_iterates=True)
        iterates = traced.diagnostics.iterates
        k_steps = cfg.steps(data.n)
        assert len(iterates) == k_steps + 1
        assert {v.shape for v in iterates} == {traced.u.shape}
        # one (K + 1, S, A) table, which `diagnose` reduces in place
        assert isinstance(iterates, np.ndarray) and iterates.shape == (k_steps + 1, 64, 5)
        k = k_steps if k is None else k
        assert np.array_equal(iterates[k], classify_then_regress(data, replace(cfg, K=k)).v)


class TestPluginFixedPoint:
    """`classify_then_regress` against its K = infinity limit, one linear
    solve over the same fitted map (ROADMAP item 5). The K-th iterate's v
    error is (gamma M mu)^K applied to -v_plug, so it is at most rho^K times
    |v_plug|, rho = gamma * |M|_inf; r = w - mu w with w = u - gamma v moves by
    at most 2 gamma times that."""

    @pytest.mark.parametrize("case", ["covered", "empty-cells"])
    def test_full_sample_solve_lies_within_the_rate_bound(self, ident_50k, case):
        data, cfg = ident_50k
        if case == "empty-cells":
            mdp, r_true, _ = build_env(builtin_experiment("ident").env)
            data = sample_transitions(mdp, expert_policy(mdp, r_true), 2_000, seed=1,
                                      env_id="ident")
        sol = classify_then_regress(data, cfg)
        plug, kernel = plugin_fixed_point(data, cfg)
        unvisited = any("unvisited per regression" in w for w in sol.diagnostics.warnings)
        assert unvisited == (case == "empty-cells")
        rho = cfg.gamma * np.max(np.abs(kernel).sum(axis=1))
        bound = rho ** cfg.steps(data.n) * sup_norm(plug.v) + 1e-9
        assert sup_norm(sol.v - plug.v) <= bound
        assert sup_norm(sol.r - plug.r) <= 2 * cfg.gamma * bound


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
        # state 3 is never visited, so the solve leaves warnings to carry
        ds = TransitionDataset(np.array([0, 1, 2, 0, 1, 2]), np.array([0, 1, 0, 1, 1, 0]),
                               np.array([1, 2, 0, 1, 2, 0]), {"n_states": 4, "n_actions": 2})
        sol = classify_then_regress(ds, SolverConfig(gamma=0.9, K=3))
        assert sol.diagnostics.warnings
        save_solution(sol, tmp_path / "sol")
        back = load_solution(tmp_path / "sol")
        for name in ("r", "v", "u", "c", "mu_table"):
            assert_allclose(getattr(back, name), getattr(sol, name), atol=0, err_msg=name)
            assert getattr(back, name).shape == getattr(sol, name).shape, name
        assert back.gamma == sol.gamma
        for name in ("eta", "nu_proxy", "kappa_hat", "warnings"):
            assert getattr(back.diagnostics, name) == getattr(sol.diagnostics, name), name

    def test_a_key_missing_from_the_json_gets_its_default(self, tmp_path):
        sol = classify_then_regress(_tiny_dataset(np.random.default_rng(4)),
                                    SolverConfig(gamma=0.9, K=2))
        save_solution(sol, tmp_path / "sol")
        path = tmp_path / "sol" / "diagnostics.json"
        path.write_text(json.dumps({"gamma": 0.9}))
        back = load_solution(tmp_path / "sol")
        assert (back.diagnostics.eta, back.diagnostics.nu_proxy, back.diagnostics.kappa_hat,
                back.diagnostics.warnings) == ([], None, None, [])

    def test_the_iteration_count_is_the_eta_count(self, tmp_path):
        sol = classify_then_regress(_tiny_dataset(np.random.default_rng(3)),
                                    SolverConfig(gamma=0.9, K=7))
        save_solution(sol, tmp_path / "sol")
        payload = json.loads((tmp_path / "sol" / "diagnostics.json").read_text())
        assert payload["iterations"] == len(payload["eta"]) == 7
        assert load_solution(tmp_path / "sol").diagnostics.iterations == 7
        with pytest.raises(AttributeError):
            sol.diagnostics.iterations = 3

    @pytest.mark.parametrize("size", [(1, 1), (3, 4)], ids=["1x1", "3x4"])
    def test_tables_match_savetxt_byte_for_byte(self, tmp_path, size):
        special = [np.nan, np.inf, -np.inf, -0.0, 1e-300, 0.1, -2.5e17, 1.0]
        # each table starts the cycle of special values at another entry
        r, v, u, mu, c = (np.resize(np.roll(special, i), size) for i in range(5))
        sol = IrlSolution(r, v, u, c[:, 0], mu, 0.9)
        save_solution(sol, tmp_path / "sol")
        actions = ",".join(str(a) for a in range(size[1]))
        for stem, table in (("r", r), ("v", v), ("u", u), ("c", c[:, 0]), ("mu", mu)):
            ref = tmp_path / f"{stem}.csv"
            savetxt_table(ref, table, stem if table.ndim == 1 else actions)
            assert (tmp_path / "sol" / f"{stem}.csv").read_bytes() == ref.read_bytes(), stem

    @pytest.mark.parametrize("size", [(1, 1), (1, 3), (4, 1), (3, 4)],
                             ids=["1x1", "1x3", "4x1", "3x4"])
    def test_tables_read_back_bit_for_bit(self, tmp_path, size):
        special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 0.1, -2.5e17, 1.0 / 3.0]
        r, v, u, mu, c = (np.resize(np.roll(special, i), size) for i in range(5))
        sol = IrlSolution(r, v, u, c[:, 0], mu, 0.9)
        save_solution(sol, tmp_path / "sol")
        back = load_solution(tmp_path / "sol")
        for name in ("r", "v", "u", "c", "mu_table"):
            got, want = getattr(back, name), getattr(sol, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("stem, rows, message", [
        ("r", slice(5), r"v\.csv: shape \(9, 5\) does not match r\.csv's \(S, A\) = \(4, 5\)$"),
        ("r", slice(1), r"r\.csv: no rows$"),
        ("u", slice(None), r"u\.csv: setting an array element with a sequence\."),
        ("c", slice(None), r"c\.csv: setting an array element with a sequence\."),
        ("mu", slice(None), r"mu\.csv: could not convert string to float: 'x'$"),
    ], ids=["r-cut-to-4-rows", "r-header-only", "u-ragged", "c-ragged", "mu-not-a-number"])
    def test_a_malformed_table_names_its_path(self, tmp_path, stem, rows, message):
        """A table of another shape, one without rows, a ragged one and one
        with a value that is not a number: each error names its file."""
        table = np.arange(45.0).reshape(9, 5)  # a 3 x 3 grid's (S, A)
        save_solution(IrlSolution(table, table, table, table[:, 0], table, 0.9), tmp_path)
        path = tmp_path / f"{stem}.csv"
        lines = path.read_text().splitlines(keepends=True)[rows]
        defects = {"u": "1,2,3\n", "c": "1,2\n", "mu": "1,2,x,4,5\n"}
        if stem in defects:
            lines[2] = defects[stem]
        path.write_text("".join(lines))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{re.escape(str(tmp_path))}/{message}"):
                load_solution(tmp_path)


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
