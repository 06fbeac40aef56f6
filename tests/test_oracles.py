import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from softirl import mdp as mdp_module
from softirl import oracles
from softirl.oracles import fit_classifier, fit_regressor, fit_regressor_folds
from softirl.solver import SolverConfig

from softirl.envs import build_env, expert_policy, sample_transitions
from softirl.harness import builtin_experiment
from softirl.mdp import cell_counts, joint_frequency

from reference import dense_fit_regressor, logsumexp_actions, unique_fit_regressor_folds


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


def classify(cfg, states, actions, n_states, n_actions):
    """`fit_classifier` on the records' `cell_counts`: the (S, A) policy table."""
    return fit_classifier(cfg, cell_counts(states, actions, n_states, n_actions))


class TestFitClassifier:
    def test_empirical_frequencies(self, monkeypatch):
        monkeypatch.setattr(oracles, "PROB_FLOOR", 1e-9)
        probs = classify(SolverConfig(smoothing_alpha=0.0), [0, 0, 0], [0, 0, 1], 1, 2)
        assert_allclose(probs[0], [2 / 3, 1 / 3], atol=1e-8)

    def test_huge_alpha_is_uniform(self):
        cfg = SolverConfig(smoothing_alpha=1e9)
        probs = classify(cfg, [0, 0, 1], [1, 1, 0], 2, 3)
        assert_allclose(probs, 1 / 3, atol=1e-6)

    def test_unvisited_state_gets_uniform_row(self):
        counts = cell_counts([0], [1], 3, 2)
        assert_allclose(fit_classifier(SolverConfig(), counts)[2], 0.5, atol=1e-6)
        assert np.count_nonzero(counts.sum(axis=1) == 0) == 2

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_counts_are_the_records_per_cell(self, alpha):
        # smoothing moves the probabilities, never the counts they are fitted from
        rng = np.random.default_rng(9)
        s, a = rng.integers(0, 4, size=300), rng.integers(0, 3, size=300)
        counts = cell_counts(s, a, 4, 3)
        fit_classifier(SolverConfig(smoothing_alpha=alpha), counts)
        assert np.array_equal(counts, np.bincount(s * 3 + a, minlength=12).reshape(4, 3))

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_smoothed_rows_are_the_laplace_counts(self, alpha, monkeypatch):
        monkeypatch.setattr(oracles, "PROB_FLOOR", 1e-12)
        rng = np.random.default_rng(11)
        s, a = rng.integers(0, 3, size=40), rng.integers(0, 4, size=40)
        s[s == 2] = 0  # state 2 has no record: its row is alpha / (4 alpha)
        probs = classify(SolverConfig(smoothing_alpha=alpha), s, a, 3, 4)
        counts = np.bincount(s * 4 + a, minlength=12).reshape(3, 4)
        want = (counts + alpha) / (counts.sum(axis=1, keepdims=True) + 4 * alpha)
        assert_allclose(probs, want, rtol=1e-12, atol=1e-12)
        assert_allclose(probs[2], 0.25, rtol=1e-12)

    def test_fit_reads_the_counts_not_the_record_order(self):
        rng = np.random.default_rng(12)
        s, a = rng.integers(0, 5, size=500), rng.integers(0, 3, size=500)
        order = rng.permutation(s.size)
        cfg = SolverConfig(smoothing_alpha=0.5)
        probs = classify(cfg, s, a, 5, 3)
        shuffled = classify(cfg, s[order], a[order], 5, 3)
        assert probs.tobytes() == shuffled.tobytes()
        assert np.array_equal(cell_counts(s, a, 5, 3), cell_counts(s[order], a[order], 5, 3))

    def test_empty_data_rejected(self):
        # the classifier's "empty training data" is cell_counts' "empty index arrays"
        with pytest.raises(ValueError, match="^empty index arrays$"):
            cell_counts([], [], 2, 2)

    def test_prob_floor_must_be_valid(self, monkeypatch):
        monkeypatch.setattr(oracles, "PROB_FLOOR", 0.5)
        with pytest.raises(ValueError):
            classify(SolverConfig(), [0], [0], 1, 3)

    @pytest.mark.parametrize("seed", range(20))
    def test_rows_are_floored_distributions(self, seed, monkeypatch):
        monkeypatch.setattr(oracles, "PROB_FLOOR", 1e-4)
        rng = np.random.default_rng(seed)
        pi = rng.dirichlet(np.full(4, 0.3), size=3)  # sparse-ish rows
        s, a = synth_pairs(rng, np.maximum(pi, 1e-12) / np.maximum(pi, 1e-12).sum(1, keepdims=True), 200)
        probs = classify(SolverConfig(), s, a, 3, 4)
        assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert probs.min() >= 1e-4 / 2


class TestLogPolicy:
    def test_uniform_value(self):
        probs = classify(SolverConfig(smoothing_alpha=1e9), [0], [0], 2, 5)
        assert_allclose(np.log(probs), -np.log(5.0), atol=1e-6)

    def test_exp_inverts(self):
        rng = np.random.default_rng(1)
        s, a = synth_pairs(rng, rng.dirichlet(np.ones(3), size=4), 500)
        probs = classify(SolverConfig(smoothing_alpha=0.5), s, a, 4, 3)
        assert_allclose(np.exp(np.log(probs)).sum(axis=1), 1.0, atol=1e-12)

    def test_logsumexp_of_log_policy_is_zero(self):
        rng = np.random.default_rng(2)
        s, a = synth_pairs(rng, rng.dirichlet(np.ones(4), size=3), 400)
        probs = classify(SolverConfig(smoothing_alpha=1.0), s, a, 3, 4)
        assert np.max(np.abs(logsumexp_actions(np.log(probs)))) <= 1e-12

    def test_bounded_below_by_floor(self):
        probs = classify(SolverConfig(), [0] * 50, [0] * 50, 1, 2)
        assert np.log(probs).min() >= np.log(1e-6 / 2)


def regress(fitted, g):
    """The fitted regression of the targets g(s') as an (S, A) table."""
    g = np.asarray(g, dtype=float)
    return fitted.step(g)[0].reshape(g.size, -1)


def dense(triples, shape):
    """The matrix holding a fit's (row, col, value) triples."""
    rows, cols, values = triples
    out = np.zeros(shape, dtype=values.dtype)
    out[rows, cols] = values
    return out


class TestFitRegressor:
    def test_constant_targets(self):
        fr = fit_regressor([0, 0, 1], [0, 1, 2], [1, 0, 1], 2, 3)
        table = regress(fr, [7.0, 7.0])
        for s, a in [(0, 0), (0, 1), (1, 2)]:
            assert_allclose(table[s, a], 7.0, atol=1e-10)

    def test_cell_mean(self):
        fr = fit_regressor([0, 0], [1, 1], [0, 1], 2, 2)
        assert regress(fr, [1.0, 3.0])[0, 1] == 2.0

    @pytest.mark.parametrize("records, message", [
        (([], [], []), "empty training data"),
        (([0, 1], [0], [0, 1]), "record columns must have equal length"),
        (([0, 2], [0, 0], [0, 1]), "state index out of range [0, 2)"),
        (([0, 1], [0, -1], [0, 1]), "action index out of range [0, 2)"),
    ], ids=["no-records", "length-mismatch", "state-range", "action-range"])
    def test_bad_fit_input_rejected(self, records, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fit_regressor(*records, 2, 2)

    def test_fallback_for_empty_cells(self):
        # a cell without records has no kernel triple, so it predicts 0 for every target
        fr = fit_regressor([0], [0], [0], 2, 2)
        table = regress(fr, [1.0, -4.0])
        assert table.tobytes() == np.array([[1.0, 0.0], [0.0, 0.0]]).tobytes()
        assert fr.diagnostics["n_empty_cells"] == 3

    def test_out_of_range_next_states_rejected(self):
        for bad in (-1, 2):
            with pytest.raises(ValueError, match="next state"):
                fit_regressor([0, 1], [0, 0], [0, bad], 2, 1)

    def test_counts_hold_every_record(self):
        fr = fit_regressor([0, 0, 1, 0], [1, 1, 0, 1], [1, 1, 0, 0], 2, 2)
        assert dense((*fr.kernel[:2], fr.n), (4, 2)).tolist() == [[0, 0], [1, 2], [1, 0], [0, 0]]
        assert fr.diagnostics["n_train"] == 4

    def test_erm_dominates_constant_predictors(self):
        rng = np.random.default_rng(5)
        s = rng.integers(0, 3, 200)
        a = rng.integers(0, 2, 200)
        s2 = (s + rng.integers(0, 2, 200)) % 3
        g = rng.normal(size=3)
        y = g[s2]
        fr = fit_regressor(s, a, s2, 3, 2)
        fit_risk = np.mean((regress(fr, g)[s, a] - y) ** 2)
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
    for a, b in zip((*ours.kernel, ours.n), (*ref.kernel, ref.n)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert ((ours.n_cells, ours.n_records, ours.exact, ours.diagnostics)
            == (ref.n_cells, ref.n_records, ref.exact, ref.diagnostics))


class TestFoldMapsMatchPerFoldFits:
    """`fit_regressor_folds` against `fit_regressor` on each fold alone."""

    def _check(self, records, ns, na, folds):
        size = len(records[0]) // folds
        maps = fit_regressor_folds(*records, ns, na, folds)
        assert len(maps) == folds
        for k, fitted in enumerate(maps):
            fold = [c[k * size:(k + 1) * size] for c in records]
            _assert_same_fit(fitted, fit_regressor(*fold, ns, na))
            assert fitted.n_records == fitted.n.sum() == size
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
        maps = self._check(records, 64, 5, folds)
        # every fold's triples are views into the arrays the folds share
        assert all(np.shares_memory(m.kernel[0], maps[0].kernel[0].base) for m in maps)
        assert all(m.exact for m in maps)  # one-hot moves: one next state per cell

    @pytest.mark.parametrize("folds", [1, 8, 50])
    def test_move_noise(self, folds):
        # folds of 2,500 records reach the 1,280 keys a fold has, so they are
        # counted by bincount; folds of 400 are counted by a sort
        records, ns, na = _noisy_records(20_000)
        self._check(records, ns, na, folds)

    def test_fold_with_an_empty_cell(self):
        records = ([0, 0, 1, 1, 0, 0, 0, 1], [0, 1, 0, 1, 0, 0, 1, 1], [1, 0, 0, 1, 0, 1, 1, 0])
        maps = self._check(records, 2, 2, 2)
        assert [m.diagnostics["n_empty_cells"] for m in maps] == [0, 1]
        # fold 0 has one next state per visited cell; fold 1's cell (0, 0) reaches 0 and 1
        assert [m.exact for m in maps] == [True, False]

    @pytest.mark.parametrize("n", [1_000, 2_000])
    def test_both_counting_branches_match_the_dense_fit(self, n):
        # a fold of 1,000 records is counted by a sort and one of 2,000 by
        # bincount over its 1,280 keys; both give the dense fit's nonzeros
        records, ns, na = _noisy_records(n)
        ours = fit_regressor(*records, ns, na)
        ref = dense_fit_regressor(*records, ns, na)
        rows, cols = np.nonzero(ref.counts)
        for a, b in zip((*ours.kernel, ours.n),
                        (rows, cols, ref.kernel[rows, cols], ref.counts[rows, cols])):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert ours.diagnostics == ref.diagnostics
        assert not ours.exact  # slips give some visited cell two next states
        assert len(rows) > np.count_nonzero(ref.counts.sum(axis=1))

    def test_records_must_split_into_equal_folds(self):
        with pytest.raises(ValueError, match="3 records do not split into 2 equal folds"):
            fit_regressor_folds([0] * 3, [0] * 3, [0] * 3, 1, 1, 2)

    def test_a_bad_record_in_a_later_fold_fails_the_fit_of_every_fold(self):
        # the records are checked together, so a bad next state in the last
        # fold fails the call that fits the first
        with pytest.raises(ValueError, match=r"^next state index out of range \[0, 2\)$"):
            fit_regressor_folds([0, 1, 0, 1], [0, 0, 1, 1], [0, 1, 1, 2], 2, 2, 2)


class TestFoldMapsMatchTheUniqueReference:
    """`fit_regressor_folds` reads each cell's total and each fold's empty
    cells off the runs of its sorted keys; `unique_fit_regressor_folds` takes
    them from `np.unique` and a dense (folds, S*A) table. They agree bit for bit."""

    def _check(self, records, ns, na, folds):
        ref = unique_fit_regressor_folds(*records, ns, na, folds)
        for fitted, (*want, n_empty) in zip(fit_regressor_folds(*records, ns, na, folds), ref,
                                            strict=True):
            for got, expected in zip((*fitted.kernel, fitted.n), want):
                assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
            assert fitted.n_empty_cells == n_empty

    @pytest.mark.parametrize("folds", [1, 3, 8])
    def test_random_records_with_empty_cells(self, folds):
        # 6 * 3 cells and 6 next states: 24 records a fold leave cells empty;
        # the 108 keys a fold has outnumber its records, so a sort counts them
        rng = np.random.default_rng(folds)
        n = 24 * folds
        records = rng.integers(0, 6, n), rng.integers(0, 3, n), rng.integers(0, 6, n)
        self._check(records, 6, 3, folds)
        assert any(n_empty for *_, n_empty in unique_fit_regressor_folds(*records, 6, 3, folds))

    @pytest.mark.parametrize("folds", [8, 20, 50])
    def test_noisy_moves(self, folds):
        # a fold of 2,500 records holds the 1,280 keys a fold has, so 8 folds are
        # counted densely; folds of 1,000 and 400 records are counted by a sort
        records, ns, na = _noisy_records(20_000)
        self._check(records, ns, na, folds)

    @pytest.mark.parametrize("chunk", [7, 50, 1 << 14])
    def test_dense_path_on_chunks_that_split_folds(self, monkeypatch, chunk):
        # 3 folds of 20 records and 2 * 2 * 2 keys each fit the dense count:
        # each fold's records are counted max(chunk, 8) at a time, which cuts
        # a fold at 7; state 1 never takes action 1, so each fold has an empty cell
        monkeypatch.setattr(mdp_module, "_CHUNK", chunk)
        rng = np.random.default_rng(chunk)
        s = rng.integers(0, 2, 60)
        records = s, rng.integers(0, 2, 60) * (s == 0), rng.integers(0, 2, 60)
        self._check(records, 2, 2, 3)
        assert [fit[-1] for fit in unique_fit_regressor_folds(*records, 2, 2, 3)] == [1, 1, 1]


class TestNarrowColumnsMatchInt64:
    """Records held in int8, int16 or int64 give the same counts and fits to
    the bit. The keys are widened to intp before any product: in int8, s * A
    wraps once it passes 127, and in int16, (s * A + a) * S + s' passes
    2 ** 15 at 200 states."""

    @pytest.mark.parametrize("ns, folds", [(64, 1), (64, 4), (200, 1), (200, 3)])
    def test_counts_and_fits_are_bit_identical(self, ns, folds):
        # fold * S * A * S keys: 20,480 at (64, 1), which 24,000 records count
        # densely, and 81,920, 200,000 and 600,000, past 2 ** 16, counted by a sort
        na, n = 5, 24_000
        rng = np.random.default_rng(ns + folds)
        wide = rng.integers(0, ns, n), rng.integers(0, na, n), rng.integers(0, ns, n)
        s, a = wide[:2]
        want_counts = cell_counts(s, a, ns, na)
        want_probs = fit_classifier(SolverConfig(smoothing_alpha=0.5), want_counts)
        want_freq = joint_frequency(s, a, ns, na)
        want_maps = fit_regressor_folds(*wide, ns, na, folds)
        for dtype in [np.int8, np.int16] if ns <= 128 else [np.int16]:
            narrow = [c.astype(dtype) for c in wide]
            s, a = narrow[:2]
            counts = cell_counts(s, a, ns, na)
            probs = fit_classifier(SolverConfig(smoothing_alpha=0.5), counts)
            assert probs.tobytes() == want_probs.tobytes()
            assert np.array_equal(counts, want_counts)
            assert joint_frequency(s, a, ns, na).tobytes() == want_freq.tobytes()
            for got, want in zip(fit_regressor_folds(*narrow, ns, na, folds), want_maps,
                                 strict=True):
                _assert_same_fit(got, want)


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
                kls.append(mean_kl(pi, classify(SolverConfig(), s, a, 3, 3)))
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
        assert np.array_equal(cell_counts(s, a, ns, na), cells)
        assert joint_frequency(s, a, ns, na).tobytes() == (cells / n).tobytes()
        for folds in (1, 4, 300):
            fits = fit_regressor_folds(s, a, s2, ns, na, folds)
            assert len(fits) == folds
            for fold, fitted in zip(range(0, n, n // folds), fits):
                keys = ((s * na + a) * ns + s2)[fold:fold + n // folds]
                counts = np.bincount(keys, minlength=ns * na * ns)
                support = np.flatnonzero(counts)
                rows, cols = np.divmod(support, ns)
                for got, want in zip((*fitted.kernel[:2], fitted.n),
                                     (rows, cols, counts[support])):
                    assert np.array_equal(got, want)
                assert np.array_equal(fitted.kernel[2], counts[support] / np.bincount(
                    rows, counts[support])[rows])


class TestFitMemory:
    """The classifier's and the regressor's counts take max(_CHUNK, S * A * S)
    records' keys at a time, so their traced peak is set by that chunk, not
    by n: the bound is below the n 8-byte keys of a count of all records."""

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
            classify(SolverConfig(smoothing_alpha=1.0), s, a, ns, na)
            fit_regressor(s, a, s2, ns, na)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * chunk * 8 < s.size * 8

    def test_split_fit_peak_is_below_one_fold_by_cell_table(self):
        # 400 folds of 500 records over S = 1,024 and A = 5: a (K, S * A)
        # table of counts is 16.4 MB, more than all the fit's arrays of the
        # 200k records take together
        ns, na, folds = 1024, 5, 400
        rng = np.random.default_rng(8)
        s, a, s2 = (rng.integers(0, hi, folds * 500).astype(mdp_module.index_dtype(ns, na))
                    for hi in (ns, na, ns))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            maps = fit_regressor_folds(s, a, s2, ns, na, folds)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(maps) == folds
        assert peak < folds * ns * na * np.dtype(np.intp).itemsize
