import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from softirl import mdp as mdp_module
from softirl import oracles
from softirl.oracles import (
    ClassifierSpec,
    RegressorSpec,
    fit_classifier,
    fit_regressor,
    fit_regressor_folds,
)

from softirl.envs import build_env, expert_policy, sample_transitions
from softirl.harness import builtin_experiment
from softirl.mdp import joint_frequency

from reference import dense_fit_regressor, logsumexp_actions


def synth_pairs(rng, pi, n):
    """Draw n (s, a) pairs with uniform states and actions from pi, via counts."""
    ns, na = pi.shape
    states = rng.integers(0, ns, size=n)
    s_counts = np.bincount(states, minlength=ns)
    s_list, a_list = [], []
    for s in range(ns):
        counts = rng.multinomial(s_counts[s], pi[s])
        for a in range(na):
            s_list.extend([s] * counts[a])
            a_list.extend([a] * counts[a])
    return np.array(s_list), np.array(a_list)


def mean_kl(pi, probs):
    return float(np.mean(np.sum(pi * (np.log(pi) - np.log(probs)), axis=1)))


class TestFitClassifier:
    def test_empirical_frequencies(self, monkeypatch):
        monkeypatch.setattr(oracles, "PROB_FLOOR", 1e-9)
        fc = fit_classifier(ClassifierSpec(smoothing_alpha=0.0), [0, 0, 0], [0, 0, 1], 1, 2)
        assert_allclose(fc.probs[0], [2 / 3, 1 / 3], atol=1e-8)

    def test_huge_alpha_is_uniform(self):
        spec = ClassifierSpec(smoothing_alpha=1e9)
        fc = fit_classifier(spec, [0, 0, 1], [1, 1, 0], 2, 3)
        assert_allclose(fc.probs, 1 / 3, atol=1e-6)

    def test_unvisited_state_gets_uniform_row(self):
        fc = fit_classifier(ClassifierSpec(), [0], [1], 3, 2)
        assert_allclose(fc.probs[2], 0.5, atol=1e-6)
        assert np.count_nonzero(fc.counts.sum(axis=1) == 0) == 2

    @pytest.mark.parametrize("kind", ["tabular-count", "multinomial-logistic"])
    def test_counts_are_the_records_per_cell(self, kind, monkeypatch):
        monkeypatch.setattr(oracles, "LOGISTIC_EPOCHS", 5)
        rng = np.random.default_rng(9)
        s, a = rng.integers(0, 4, size=300), rng.integers(0, 3, size=300)
        fc = fit_classifier(ClassifierSpec(kind=kind), s, a, 4, 3)
        assert np.array_equal(fc.counts, np.bincount(s * 3 + a, minlength=12).reshape(4, 3))

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            fit_classifier(ClassifierSpec(), [], [], 2, 2)

    def test_logistic_features_must_have_a_row_per_state(self):
        spec = ClassifierSpec(kind="multinomial-logistic", state_features=np.eye(3))
        with pytest.raises(ValueError, match="^state_features first axis must be 2$"):
            fit_classifier(spec, [0, 1], [0, 1], 2, 2)

    def test_prob_floor_must_be_valid(self, monkeypatch):
        monkeypatch.setattr(oracles, "PROB_FLOOR", 0.5)
        with pytest.raises(ValueError):
            fit_classifier(ClassifierSpec(), [0], [0], 1, 3)

    @pytest.mark.parametrize("seed", range(20))
    def test_rows_are_floored_distributions(self, seed, monkeypatch):
        monkeypatch.setattr(oracles, "PROB_FLOOR", 1e-4)
        rng = np.random.default_rng(seed)
        pi = rng.dirichlet(np.full(4, 0.3), size=3)  # sparse-ish rows
        s, a = synth_pairs(rng, np.maximum(pi, 1e-12) / np.maximum(pi, 1e-12).sum(1, keepdims=True), 200)
        fc = fit_classifier(ClassifierSpec(), s, a, 3, 4)
        assert_allclose(fc.probs.sum(axis=1), 1.0, atol=1e-12)
        assert fc.probs.min() >= 1e-4 / 2

    def test_logistic_close_to_tabular_mle(self, monkeypatch):
        monkeypatch.setattr(oracles, "LOGISTIC_EPOCHS", 4000)
        rng = np.random.default_rng(77)
        pi = rng.dirichlet(np.full(3, 2.0), size=4)
        s, a = synth_pairs(rng, pi, 50_000)
        tab = fit_classifier(ClassifierSpec(), s, a, 4, 3)
        logit = fit_classifier(ClassifierSpec(kind="multinomial-logistic"), s, a, 4, 3)
        assert mean_kl(pi, logit.probs) <= 2 * mean_kl(pi, tab.probs) + 1e-6

    def test_logistic_with_features(self, monkeypatch):
        monkeypatch.setattr(oracles, "LOGISTIC_EPOCHS", 2000)
        # two states sharing one feature direction force tied predictions
        phi = np.array([[1.0], [1.0]])
        spec = ClassifierSpec(kind="multinomial-logistic", state_features=phi)
        fc = fit_classifier(spec, [0, 0, 1, 1], [0, 0, 1, 0], 2, 2)
        assert_allclose(fc.probs[0], fc.probs[1], atol=1e-12)

    def test_logistic_divergence_carries_trace(self):
        phi = np.array([[1.0], [np.nan]])
        spec = ClassifierSpec(kind="multinomial-logistic", state_features=phi)
        with pytest.raises(RuntimeError, match="trace"):
            fit_classifier(spec, [0, 0, 1, 1], [0, 1, 0, 1], 2, 2)


class TestLogPolicy:
    def test_uniform_value(self):
        fc = fit_classifier(ClassifierSpec(smoothing_alpha=1e9), [0], [0], 2, 5)
        assert_allclose(np.log(fc.probs), -np.log(5.0), atol=1e-6)

    def test_exp_inverts(self):
        rng = np.random.default_rng(1)
        s, a = synth_pairs(rng, rng.dirichlet(np.ones(3), size=4), 500)
        fc = fit_classifier(ClassifierSpec(smoothing_alpha=0.5), s, a, 4, 3)
        assert_allclose(np.exp(np.log(fc.probs)).sum(axis=1), 1.0, atol=1e-12)

    def test_logsumexp_of_log_policy_is_zero(self):
        rng = np.random.default_rng(2)
        s, a = synth_pairs(rng, rng.dirichlet(np.ones(4), size=3), 400)
        fc = fit_classifier(ClassifierSpec(smoothing_alpha=1.0), s, a, 3, 4)
        assert np.max(np.abs(logsumexp_actions(np.log(fc.probs)))) <= 1e-12

    def test_bounded_below_by_floor(self):
        fc = fit_classifier(ClassifierSpec(), [0] * 50, [0] * 50, 1, 2)
        assert np.log(fc.probs).min() >= np.log(1e-6 / 2)


def regress(fitted, g, n_actions):
    """The fitted regression of the targets g(s') as an (S, A) table."""
    g = np.asarray(g, dtype=float)
    rows, cols, values = fitted.kernel
    return np.bincount(rows, values * g[cols], minlength=g.size * n_actions).reshape(g.size, -1)


def dense(triples, shape):
    """The matrix holding a fit's (row, col, value) triples."""
    rows, cols, values = triples
    out = np.zeros(shape, dtype=values.dtype)
    out[rows, cols] = values
    return out


class TestFitRegressor:
    def test_constant_targets(self):
        for spec in (RegressorSpec(),
                     RegressorSpec(kind="ridge", features=np.ones((2, 3, 1)))):
            fr = fit_regressor(spec, [0, 0, 1], [0, 1, 2], [1, 0, 1], 2, 3)
            table = regress(fr, [7.0, 7.0], 3)
            for s, a in [(0, 0), (0, 1), (1, 2)]:
                assert_allclose(table[s, a], 7.0, atol=1e-10)

    def test_cell_mean(self):
        fr = fit_regressor(RegressorSpec(), [0, 0], [1, 1], [0, 1], 2, 2)
        assert regress(fr, [1.0, 3.0], 2)[0, 1] == 2.0

    def test_ridge_one_hot_equals_tabular_mean(self):
        rng = np.random.default_rng(3)
        ns, na, n = 3, 2, 60
        s = rng.integers(0, ns, n)
        a = rng.integers(0, na, n)
        s2 = rng.integers(0, ns, n)
        # ensure full coverage so the unpenalized system is invertible
        s[:6] = np.repeat(np.arange(ns), na)
        a[:6] = np.tile(np.arange(na), ns)
        tab = fit_regressor(RegressorSpec(), s, a, s2, ns, na)
        ridge = fit_regressor(
            RegressorSpec(kind="ridge", ridge_lambda=0.0,
                          features=np.eye(ns * na).reshape(ns, na, ns * na)),
            s, a, s2, ns, na)
        shape = (ns * na, ns)
        assert np.max(np.abs(dense(tab.kernel, shape) - dense(ridge.kernel, shape))) <= 1e-10

    @pytest.mark.parametrize("kwargs, message", [
        ({"kind": "forest"}, "kind: must be one of"),
        ({"ridge_lambda": -0.1}, "ridge_lambda: must be nonnegative, got -0.1"),
    ], ids=["kind", "ridge-lambda"])
    def test_bad_spec_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            RegressorSpec(**kwargs)

    @pytest.mark.parametrize("spec, records, message", [
        (RegressorSpec(), ([], [], []), "empty training data"),
        (RegressorSpec(kind="ridge", features=np.ones((3, 2, 1))), ([0], [0], [0]),
         "features shape (3, 2, 1) does not match (2, 2, d)"),
    ], ids=["no-records", "ridge-feature-shape"])
    def test_bad_fit_input_rejected(self, spec, records, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fit_regressor(spec, *records, 2, 2)

    def test_rank_deficient_advises_lambda(self):
        feats = np.eye(4).reshape(2, 2, 4)
        with pytest.raises(ValueError, match="ridge_lambda"):
            fit_regressor(RegressorSpec(kind="ridge", features=feats),
                          [0], [0], [0], 2, 2)

    def test_fallback_for_empty_cells(self):
        # a cell without records has no kernel triple, so it predicts 0 for every target
        fr = fit_regressor(RegressorSpec(), [0], [0], [0], 2, 2)
        table = regress(fr, [1.0, -4.0], 2)
        assert table.tobytes() == np.array([[1.0, 0.0], [0.0, 0.0]]).tobytes()
        assert fr.diagnostics["n_empty_cells"] == 3

    def test_ridge_prediction_is_linear_in_features(self):
        # every prediction is a feature row times a weight vector, so the
        # kernel's columns lie in the span of the feature columns
        rng = np.random.default_rng(4)
        feats = rng.normal(size=(2, 2, 3))
        s = np.array([0, 0, 1, 1, 0, 1])
        a = np.array([0, 1, 0, 1, 0, 1])
        s2 = np.array([1, 0, 0, 1, 1, 0])
        fr = fit_regressor(RegressorSpec(kind="ridge", ridge_lambda=0.1,
                                         features=feats), s, a, s2, 2, 2)
        phi = feats.reshape(4, 3)
        kernel = dense(fr.kernel, (4, 2))
        coef = np.linalg.lstsq(phi, kernel, rcond=None)[0]
        assert_allclose(phi @ coef, kernel, atol=1e-12)
        assert np.max(np.abs(kernel)) > 0.1

    def test_out_of_range_next_states_rejected(self):
        for bad in (-1, 2):
            with pytest.raises(ValueError, match="next state"):
                fit_regressor(RegressorSpec(), [0, 1], [0, 0], [0, bad], 2, 1)

    def test_counts_hold_every_record(self):
        fr = fit_regressor(RegressorSpec(), [0, 0, 1, 0], [1, 1, 0, 1], [1, 1, 0, 0], 2, 2)
        assert dense(fr.counts, (4, 2)).tolist() == [[0, 0], [1, 2], [1, 0], [0, 0]]
        assert fr.diagnostics["n_train"] == 4

    def test_erm_dominates_constant_predictors(self):
        rng = np.random.default_rng(5)
        s = rng.integers(0, 3, 200)
        a = rng.integers(0, 2, 200)
        s2 = (s + rng.integers(0, 2, 200)) % 3
        g = rng.normal(size=3)
        y = g[s2]
        fr = fit_regressor(RegressorSpec(), s, a, s2, 3, 2)
        fit_risk = np.mean((regress(fr, g, 2)[s, a] - y) ** 2)
        best_const = np.mean((y.mean() - y) ** 2)
        assert fit_risk <= best_const + 1e-12


def _noisy_records(n):
    """n (s, a, s') records of a 4 x 4 torus whose moves slip with probability 0.3."""
    from softirl.envs import GridworldSpec, build_env, expert_policy, sample_transitions
    mdp, r_true, _ = build_env(GridworldSpec(4, 4, topology="torus", seed=3,
                                             min_action_prob=0.05, move_noise=0.3))
    data = sample_transitions(mdp, expert_policy(mdp, r_true), n, seed=2, env_id="noisy")
    return (data.states, data.actions, data.next_states), 16, 5


def _assert_same_fit(ours, ref):
    """Triple for triple and bit for bit, with the same dtypes and diagnostics."""
    for a, b in zip((*ours.kernel, *ours.counts), (*ref.kernel, *ref.counts)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert ours.diagnostics == ref.diagnostics


class TestFoldMapsMatchPerFoldFits:
    """`fit_regressor_folds` against `fit_regressor` on each fold alone."""

    def _check(self, spec, records, ns, na, folds):
        size = len(records[0]) // folds
        maps = list(fit_regressor_folds(spec, *records, ns, na, folds))
        assert len(maps) == folds
        for k, fitted in enumerate(maps):
            fold = [c[k * size:(k + 1) * size] for c in records]
            _assert_same_fit(fitted, fit_regressor(spec, *fold, ns, na))
        return maps

    def test_ident_split_folds(self):
        from softirl.envs import build_env, expert_policy, sample_transitions
        from softirl.harness import builtin_experiment
        experiment = builtin_experiment("ident")
        mdp, r_true, _ = build_env(experiment.env)
        data = sample_transitions(mdp, expert_policy(mdp, r_true), 50_000, seed=1,
                                  env_id="ident")
        half, folds = data.n // 2, experiment.solver.steps(data.n)  # one fold per step
        end = half + folds * (half // folds)
        records = [c[half:end] for c in (data.states, data.actions, data.next_states)]
        maps = self._check(RegressorSpec(), records, 64, 5, folds)
        # every fold's triples are views into the arrays the folds share
        assert all(np.shares_memory(m.counts[0], maps[0].counts[0].base) for m in maps)

    @pytest.mark.parametrize("folds", [1, 8, 50])
    def test_move_noise(self, folds):
        # folds of 2,500 records reach the 1,280 keys a fold has, so they are
        # counted by bincount; folds of 400 are counted by a sort
        records, ns, na = _noisy_records(20_000)
        self._check(RegressorSpec(), records, ns, na, folds)

    def test_ridge(self):
        records, ns, na = _noisy_records(4_000)
        features = np.random.default_rng(8).normal(size=(ns, na, 6))
        self._check(RegressorSpec(kind="ridge", ridge_lambda=0.1, features=features),
                    records, ns, na, 4)

    def test_fold_with_an_empty_cell(self):
        records = ([0, 0, 1, 1, 0, 0, 0, 1], [0, 1, 0, 1, 0, 0, 1, 1], [1, 0, 0, 1, 0, 1, 1, 0])
        maps = self._check(RegressorSpec(), records, 2, 2, 2)
        assert [m.diagnostics["n_empty_cells"] for m in maps] == [0, 1]

    @pytest.mark.parametrize("n", [1_000, 2_000])
    def test_both_counting_branches_match_the_dense_fit(self, n):
        # a fold of 1,000 records is counted by a sort and one of 2,000 by
        # bincount over its 1,280 keys; both give the dense fit's nonzeros
        records, ns, na = _noisy_records(n)
        ours = fit_regressor(RegressorSpec(), *records, ns, na)
        ref = dense_fit_regressor(RegressorSpec(), *records, ns, na)
        rows, cols = np.nonzero(ref.counts)
        for a, b in zip((*ours.kernel, *ours.counts),
                        (rows, cols, ref.kernel[rows, cols], rows, cols, ref.counts[rows, cols])):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert ours.diagnostics == ref.diagnostics

    def test_a_rank_deficient_fold_fails_when_it_is_taken(self):
        spec = RegressorSpec(kind="ridge", features=np.eye(4).reshape(2, 2, 4))
        maps = fit_regressor_folds(spec, [0, 0, 1, 1, 0, 0, 0, 0], [0, 1, 0, 1, 0, 0, 0, 0],
                                   [0] * 8, 2, 2, 2)
        assert next(maps).diagnostics["n_empty_cells"] == 0
        with pytest.raises(ValueError, match="ridge_lambda"):
            next(maps)

    def test_records_must_split_into_equal_folds(self):
        with pytest.raises(ValueError, match="3 records do not split into 2 equal folds"):
            next(fit_regressor_folds(RegressorSpec(), [0] * 3, [0] * 3, [0] * 3, 1, 1, 2))


class TestKlShrinksWithN:
    def test_sign_test_over_seeds(self):
        """Mean KL(pi || pi_hat) should not grow as n increases 1k -> 10k -> 100k."""
        rng_master = np.random.default_rng(99)
        pi = rng_master.dirichlet(np.ones(3), size=3)
        decreases = 0
        trials = 0
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            kls = []
            for n in (1_000, 10_000, 100_000):
                s, a = synth_pairs(rng, pi, n)
                fc = fit_classifier(ClassifierSpec(), s, a, 3, 3)
                kls.append(mean_kl(pi, fc.probs))
            for lo, hi in ((0, 1), (1, 2)):
                trials += 1
                decreases += kls[hi] <= kls[lo]
        # sign test: under a fair coin, P(>= 32 of 40) < 1e-4
        assert decreases >= 32, f"KL decreased only {decreases}/{trials} times"


class TestChunkedCounts:
    """`mdp._count_keys` counts max(_CHUNK, bins) records at a time: at every
    chunk size the counts are one `np.bincount` of all keys, per fold."""

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 14])
    def test_every_chunk_size_counts_all_keys_at_once(self, monkeypatch, chunk):
        monkeypatch.setattr(mdp_module, "_CHUNK", chunk)
        rng = np.random.default_rng(4)
        ns, na, n = 3, 2, 6_000  # 300 folds of 18 keys fit the dense count
        s, a, s2 = rng.integers(0, ns, n), rng.integers(0, na, n), rng.integers(0, ns, n)
        cells = np.bincount(s * na + a, minlength=ns * na).reshape(ns, na)
        assert np.array_equal(fit_classifier(ClassifierSpec(), s, a, ns, na).counts, cells)
        assert joint_frequency(s, a, ns, na).tobytes() == (cells / n).tobytes()
        for folds in (1, 4, 300):
            fits = list(fit_regressor_folds(RegressorSpec(), s, a, s2, ns, na, folds))
            assert len(fits) == folds
            for fold, fitted in zip(range(0, n, n // folds), fits):
                keys = ((s * na + a) * ns + s2)[fold:fold + n // folds]
                counts = np.bincount(keys, minlength=ns * na * ns)
                support = np.flatnonzero(counts)
                rows, cols = np.divmod(support, ns)
                for got, want in zip(fitted.counts, (rows, cols, counts[support])):
                    assert np.array_equal(got, want)
                assert np.array_equal(fitted.kernel[2], counts[support] / np.bincount(
                    rows, counts[support])[rows])


class TestFitMemory:
    """The classifier's and the regressor's counts take max(_CHUNK, S * A * S)
    records' keys at a time, so their traced peak is set by that chunk, not
    by n. Measured at n = 200k on ident (chunk 20,480 records): 0.48 MB, 3.1
    chunks of 8-byte keys, against 1.71 MB when each counted all n keys."""

    def test_peak_traced_allocation(self):
        mdp, r_true, _ = build_env(builtin_experiment("ident").env)
        ns, na = mdp.n_states, mdp.n_actions
        data = sample_transitions(mdp, expert_policy(mdp, r_true), 200_000, seed=1)
        s, a, s2 = data.states, data.actions, data.next_states
        chunk = max(mdp_module._CHUNK, ns * na * ns)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fit_classifier(ClassifierSpec(smoothing_alpha=1.0), s, a, ns, na)
            fit_regressor(RegressorSpec(), s, a, s2, ns, na)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * chunk * 8
