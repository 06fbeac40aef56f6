import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from softirl import mdp as mdp_module
from softirl.mdp import (
    CHECK_EVERY,
    TabularMdp,
    _soft_policy_iteration,
    _soft_value_iteration,
    apply_P,
    cell_counts,
    check_records,
    joint_frequency,
    soft_value_iteration,
    softmax_actions,
)

from conftest import random_mdp, random_policy, toggle_mdp
from reference import (
    conditional_loglik,
    expect_mu,
    lambda_mu_weights,
    logsumexp_actions,
    policy_Q,
    policy_value,
    shape,
    soft_bellman_residual,
    stationary_distribution,
    sup_norm,
    weighted_l2,
)


def _warm_solve(mdp, r, tol, v0):
    """One problem through the soft value-iteration loop, started at v0."""
    (result,) = _soft_value_iteration(mdp, r[None], tol, v0[None])
    return result


class TestTabularMdp:
    def test_rejects_bad_rows(self):
        t = np.zeros((2, 1, 2))
        t[:, :, 0] = 0.5  # rows sum to 0.5
        with pytest.raises(ValueError):
            TabularMdp(t, 0.9)

    @pytest.mark.parametrize("shape", [(2, 2), (0, 1, 0), (2, 0, 2)])
    def test_rejects_a_transition_not_of_shape_s_a_s(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"with S, A >= 1, got {shape}")):
            TabularMdp(np.ones(shape), 0.9)

    def test_rejects_gamma_one(self):
        t = np.ones((1, 1, 1))
        with pytest.raises(ValueError):
            TabularMdp(t, 1.0)

    def test_transition_is_frozen(self):
        mdp = toggle_mdp()
        with pytest.raises(ValueError):
            mdp.transition[0, 0, 0] = 0.3

    def test_a_read_only_float_kernel_is_kept_without_a_copy(self):
        t = toggle_mdp().transition.copy()
        t.setflags(write=False)
        assert np.shares_memory(TabularMdp(t, 0.5).transition, t)

    @pytest.mark.parametrize("kind", ["writeable", "read-only view", "int"])
    def test_any_other_kernel_is_copied(self, kind):
        t = toggle_mdp().transition.copy()
        given = {"writeable": t, "int": t.astype(np.int64), "read-only view": t[:]}[kind]
        given.setflags(write=kind == "writeable")
        mdp = TabularMdp(given, 0.5)
        assert not np.shares_memory(mdp.transition, given)
        t[0, 0] = [0.0, 1.0]  # a change to the caller's table does not reach the MDP
        assert mdp.transition[0, 0].tolist() == [1.0, 0.0]



def _entry_points():
    """(table name, a valid table, the call that checks it) for each public
    entry point that takes a probability table."""
    from softirl.envs import sample_transitions
    from softirl.solver import SolverConfig, exact_population_solver

    rng = np.random.default_rng(12)
    mdp = random_mdp(rng, 4, 3, 0.9)
    pi = random_policy(rng, 4, 3)
    return {
        "transition": (mdp.transition, lambda p: TabularMdp(p, 0.9)),
        "pi": (pi, lambda p: sample_transitions(mdp, p, 10)),
        "pi-exact": (pi, lambda p: exact_population_solver(mdp, p, SolverConfig())),
    }


def _shape(p):
    return np.concatenate([p, np.zeros(p.shape[:-1] + (1,))], axis=-1)


def _nan(p):
    p.flat[0] = np.nan
    return p


def _negative(p):
    p.flat[0] -= 1.0  # row sums are kept
    p.flat[1] += 1.0
    return p


def _off_by(delta):
    def defect(p):
        p.flat[0] += delta
        return p
    return defect


class TestCheckDistribution:
    """Every entry point checks its probability tables with `check_distribution`."""

    @pytest.mark.parametrize("defect", [_shape, _nan, _negative, _off_by(1e-11)],
                             ids=["shape", "nan", "negative", "sum-off-1e-11"])
    @pytest.mark.parametrize("entry", ["transition", "pi", "pi-exact"])
    def test_a_bad_table_is_rejected_by_name(self, entry, defect):
        table, call = _entry_points()[entry]
        with pytest.raises(ValueError, match=rf"^{entry.split('-')[0]} "):
            call(defect(np.array(table)))

    @pytest.mark.parametrize("entry", ["transition", "pi", "pi-exact"])
    def test_a_sum_within_tolerance_is_accepted(self, entry):
        table, call = _entry_points()[entry]
        call(_off_by(1e-13)(np.array(table)))

def _record_entry_points():
    """name -> (column count, the call that checks them) for each public entry
    point that takes (s, a) or (s, a, s') records of a 3-state, 2-action MDP."""
    from softirl.envs import TransitionDataset
    from softirl.oracles import fit_regressor

    def dataset(*columns):
        TransitionDataset(*columns, meta={"n_states": 3, "n_actions": 2}).validate()

    return {"dataset": (3, dataset),
            # the classifier fits from the table of its records' cell_counts
            "classifier": (2, lambda *c: cell_counts(*c, 3, 2)),
            "regressor": (3, lambda *c: fit_regressor(*c, 3, 2))}


class TestCheckRecords:
    """Every entry point checks its records with `check_records`."""

    def test_integer_columns_come_back_as_given(self):
        given = [np.array([0, 2], dtype=np.int8), np.array([1, 0], dtype=np.uint16),
                 np.array([2, 0], dtype=np.int32)]
        columns = check_records(3, 2, *given)
        assert all(c is g for c, g in zip(columns, given))  # not copied, not widened
        columns = check_records(3, 2, [0, 2], (1, 0))
        assert [c.dtype for c in columns] == [np.int64] * 2
        assert [c.tolist() for c in columns] == [[0, 2], [1, 0]]
        assert [c.dtype for c in check_records(3, 2, [], [])] == [np.int64] * 2
        # uint64 plus a signed integer is float64, so it is the one width widened
        states, actions = check_records(3, 2, np.array([2, 0], dtype=np.uint64), [1, 0])
        assert states.dtype == np.int64 and states.tolist() == [2, 0]

    def test_fractional_indices_are_not_truncated(self):
        # float columns were once cast to int64: [0.5, 2.7] read as states [0, 2]
        with pytest.raises(ValueError, match="^state indices must have an integer dtype, "
                                             "got float64$"):
            check_records(3, 2, [0.5, 2.7], [1, 0])

    @pytest.mark.parametrize("entry", ["dataset", "classifier", "regressor"])
    @pytest.mark.parametrize("bad", [[0.0, 1.0], [True, False], np.array([0, 1], dtype=object)],
                             ids=["float", "bool", "object"])
    def test_a_column_without_an_integer_dtype_is_rejected_by_its_column(self, entry, bad):
        width, call = _record_entry_points()[entry]
        dtype = np.asarray(bad).dtype
        for column, name in enumerate(["state", "action", "next state"][:width]):
            columns = [[0, 1], [1, 0], [2, 0]][:width]
            columns[column] = bad
            with pytest.raises(ValueError, match=f"^{name} indices must have an integer dtype, "
                                                 f"got {dtype}$"):
                call(*columns)

    @pytest.mark.parametrize("entry", ["dataset", "classifier", "regressor"])
    def test_an_index_out_of_range_is_rejected_by_its_column(self, entry):
        width, call = _record_entry_points()[entry]
        for column, (name, hi) in enumerate([("state", 3), ("action", 2), ("next state", 3)][:width]):
            for bad in (-1, hi):
                columns = [[0, 1], [1, 0], [2, 0]][:width]
                columns[column] = [0, bad]
                with pytest.raises(ValueError, match=rf"^{name} index out of range \[0, {hi}\)$"):
                    call(*columns)

    @pytest.mark.parametrize("entry", ["dataset", "classifier", "regressor"])
    def test_columns_of_unequal_length_are_rejected(self, entry):
        width, call = _record_entry_points()[entry]
        with pytest.raises(ValueError, match="^record columns must have equal length$"):
            call(*[[0, 1], [1, 0], [2, 0]][:width - 1], [0])


class TestApplyP:
    @pytest.mark.parametrize("seed", range(25))
    def test_preserves_constants(self, seed):
        rng = np.random.default_rng(seed)
        mdp = random_mdp(rng, rng.integers(2, 7), rng.integers(1, 5), 0.9)
        out = apply_P(mdp, np.ones(mdp.n_states))
        assert_allclose(out, 1.0, atol=1e-12)

    def test_toggle_reads_off_next_state(self):
        mdp = toggle_mdp()
        out = apply_P(mdp, np.array([0.0, 1.0]))
        assert_allclose(out, [[0.0, 1.0], [1.0, 0.0]])

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(42)
        mdp = random_mdp(rng, 3, 2, 0.8)
        f = rng.normal(size=3)
        expected = np.zeros((3, 2))
        for s in range(3):
            for a in range(2):
                for s2 in range(3):
                    expected[s, a] += mdp.transition[s, a, s2] * f[s2]
        assert_allclose(apply_P(mdp, f), expected, atol=1e-12)

    def test_shape_error(self):
        mdp = toggle_mdp()
        with pytest.raises(ValueError):
            apply_P(mdp, np.zeros(3))


class TestExpectMu:
    def test_constant(self):
        mu = np.full((4, 3), 1 / 3)
        assert_allclose(expect_mu(mu, np.full((4, 3), 3.0)), 3.0)

    def test_point_mass_selects_column(self):
        mu = np.zeros((2, 3))
        mu[:, 0] = 1.0
        f = np.arange(6.0).reshape(2, 3)
        assert_allclose(expect_mu(mu, f), f[:, 0])

    def test_average_of_logs(self):
        # uniform over two actions: mean of ln .8 and ln .2
        mu = np.full((1, 2), 0.5)
        f = np.log(np.array([[0.8, 0.2]]))
        assert_allclose(expect_mu(mu, f), [-0.916290731874155], atol=1e-12)

    def test_shape_error(self):
        with pytest.raises(ValueError):
            expect_mu(np.full((2, 2), 0.5), np.zeros((3, 2)))


class TestLogsumexpActions:
    @pytest.mark.parametrize("seed", range(25))
    def test_zero_on_log_probability_rows(self, seed):
        rng = np.random.default_rng(seed)
        pi = random_policy(rng, 5, 4)
        assert np.max(np.abs(logsumexp_actions(np.log(pi)))) <= 1e-12

    def test_identical_logits(self):
        assert_allclose(logsumexp_actions(np.zeros((3, 4))), np.log(4.0), atol=1e-14)

    def test_no_overflow_for_huge_logits(self):
        out = logsumexp_actions(np.array([[1000.0, 1000.0]]))
        assert_allclose(out, [1000.0 + np.log(2.0)], atol=1e-9)


class TestSoftBellman:
    def test_log_policy_and_zero_value_is_feasible(self):
        rng = np.random.default_rng(0)
        mdp = random_mdp(rng, 4, 3, 0.9)
        pi = random_policy(rng, 4, 3)
        res = soft_bellman_residual(mdp, np.log(pi), np.zeros((4, 3)))
        assert sup_norm(res) <= 1e-12

    def test_perturbed_entry_residual_band(self):
        rng = np.random.default_rng(1)
        mdp = random_mdp(rng, 4, 3, 0.9)
        pi = random_policy(rng, 4, 3)
        v = np.zeros((4, 3))
        v[2, 1] += 1.0
        res = soft_bellman_residual(mdp, np.log(pi), v)
        # the bump shows up directly, minus at most a gamma-discounted backup
        assert 1.0 - mdp.gamma <= res[2, 1] <= 1.0 + 1e-12


class TestSoftValueIteration:
    def test_zero_reward_symmetric_solution(self):
        rng = np.random.default_rng(2)
        mdp = random_mdp(rng, 5, 4, 0.9)
        v, q, pi = soft_value_iteration(mdp, np.zeros((5, 4)), tol=1e-12)
        # constant fixed point solves v = log k + gamma v
        assert_allclose(v, np.log(4.0) / (1.0 - 0.9), atol=1e-9)
        assert_allclose(pi, 0.25, atol=1e-10)

    def test_log_policy_reward_recovers_policy(self):
        rng = np.random.default_rng(3)
        mdp = random_mdp(rng, 6, 3, 0.95)
        pi = random_policy(rng, 6, 3)
        v, _, pi_star = soft_value_iteration(mdp, np.log(pi), tol=1e-12)
        assert sup_norm(v) <= 1e-10
        assert_allclose(pi_star, pi, atol=1e-10)

    @pytest.mark.parametrize("r, tol, message", [
        (np.zeros((2, 2)), 0.0, "tol must be positive"),
        (np.zeros((2, 3)), 1e-10, "r has shape (2, 3), expected (2, 2)"),
    ], ids=["tol", "reward-shape"])
    def test_bad_arguments_rejected(self, r, tol, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            soft_value_iteration(toggle_mdp(), r, tol=tol)

    def test_two_starts_agree(self):
        rng = np.random.default_rng(4)
        mdp = random_mdp(rng, 4, 3, 0.9)
        r = rng.normal(size=(4, 3))
        v1, _, _ = soft_value_iteration(mdp, r, tol=1e-13)
        v2, _, _ = _warm_solve(mdp, r, 1e-13, rng.normal(size=(4, 3)))
        assert sup_norm(v1 - v2) <= 1e-11

    def test_geometric_error_decay(self):
        rng = np.random.default_rng(5)
        mdp = random_mdp(rng, 4, 3, 0.8)
        r = rng.normal(size=(4, 3))
        v_star, _, _ = soft_value_iteration(mdp, r, tol=1e-14)
        v = np.zeros((4, 3))
        e0 = sup_norm(v - v_star)
        for k in range(1, 30):
            v = apply_P(mdp, logsumexp_actions(r + mdp.gamma * v))
            assert sup_norm(v - v_star) <= mdp.gamma ** k * e0 + 1e-12

    def test_nonconvergence_raises(self):
        rng = np.random.default_rng(6)
        mdp = random_mdp(rng, 3, 2, 0.99)
        with pytest.raises(RuntimeError, match="residual"):
            soft_value_iteration(mdp, rng.normal(size=(3, 2)), tol=1e-12, max_iter=3)


def _scipy_logsumexp():
    return pytest.importorskip("scipy.special").logsumexp


def _reference_soft_value_iteration(mdp, r, tol, v0=None, max_iter=100_000):
    """The scipy-based sweep the solver's own log-sum-exp must reproduce,
    raising the solver's RuntimeError if it has not converged in `max_iter`,
    or at once when the residual bound is NaN, which never clears."""
    logsumexp = _scipy_logsumexp()
    v = np.zeros_like(r) if v0 is None else v0.copy()
    for sweep in range(1, max_iter + 1):
        v_new = apply_P(mdp, logsumexp(r + mdp.gamma * v, axis=1))
        diff = np.max(np.abs(v_new - v))
        v = v_new
        if mdp.gamma * diff <= tol:
            q = r + mdp.gamma * v
            return v, q, softmax_actions(q)
        if np.isnan(diff):
            break
    raise RuntimeError(f"soft value iteration did not reach tol={tol} in {sweep} iterations; "
                       f"last residual bound {mdp.gamma * diff:.3e}")


def _gridworld(name):
    from dataclasses import replace

    from softirl.envs import build_env
    from softirl.harness import builtin_experiment

    spec = builtin_experiment(name.split("-")[0]).env
    if name.endswith("-noisy"):
        spec = replace(spec, move_noise=0.3)
    return build_env(spec)[:2]


class TestMatchesScipyReference:
    @pytest.mark.parametrize("name", ["easy", "ident", "hard", "ident-noisy"])
    def test_sweep_is_bit_identical(self, name):
        mdp, r_true = _gridworld(name)
        # r = 0 makes every row a 5-way tie, which MaxEnt's first epoch meets.
        for r in (r_true, np.zeros_like(r_true)):
            warm, _, _ = soft_value_iteration(mdp, 0.9 * r, tol=1e-8)
            for tol, v0 in ((1e-8, None), (1e-10, None), (1e-8, warm)):
                if v0 is None:
                    got = soft_value_iteration(mdp, r, tol=tol)
                else:
                    got = _warm_solve(mdp, r, tol, v0)
                want = _reference_soft_value_iteration(mdp, r, tol, v0)
                for g, w in zip(got, want):
                    assert np.array_equal(g, w)

    def test_random_tables_match_scipy(self):
        logsumexp = _scipy_logsumexp()
        rng = np.random.default_rng(7)
        for scale in (1e-3, 1.0, 30.0, 1e3):
            f = rng.normal(scale=scale, size=(64, 5))
            f[:8] = np.round(f[:8])  # ties of the row max
            assert np.array_equal(logsumexp_actions(f), logsumexp(f, axis=1))

    def test_non_finite_rows_match_scipy(self):
        logsumexp = _scipy_logsumexp()
        inf, nan = np.inf, np.nan
        f = np.array([[-inf, -inf, -inf],
                      [inf, 0.0, 1.0],
                      [inf, inf, -inf],
                      [-inf, 2.0, 2.0],
                      [nan, 0.0, 1.0],
                      [nan, inf, 0.0],
                      [1.7976931348623157e308, 1.7e308, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = logsumexp_actions(f)
        assert np.array_equal(got, logsumexp(f, axis=1), equal_nan=True)


class TestOneHotGather:
    """Soft value iteration and the sampler gather deterministic moves at
    `TabularMdp._targets`. On finite f the gather f(s') + 0.0 has the bytes
    of the matmul `transition @ f`, which `apply_P` runs on every kernel."""

    @staticmethod
    def _one_hot_mdps():
        from softirl.envs import GridworldSpec, build_env

        for name in ("easy", "ident", "hard"):
            yield _gridworld(name)[0]
        yield build_env(GridworldSpec(12, 12, topology="torus", seed=3))[0]
        yield toggle_mdp()

    @staticmethod
    def _finite_vectors(n):
        rng = np.random.default_rng(5)
        signed_zeros = rng.normal(size=n)
        signed_zeros[::3] = -0.0
        signed_zeros[1::3] = 0.0
        yield signed_zeros
        yield np.zeros(n)
        yield np.full(n, -0.0)
        for scale in (1e300, 1e-300, 1.0):
            yield rng.normal(scale=scale, size=n)
        yield np.where(rng.random(n) < 0.5, 1e300, -1e-300)

    def test_packaged_kernels_are_one_hot(self):
        for mdp in self._one_hot_mdps():
            assert mdp._targets is not None

    def test_gather_is_bit_identical_to_matmul(self):
        for mdp in self._one_hot_mdps():
            for f in self._finite_vectors(mdp.n_states):
                want = (mdp.transition @ f).tobytes()
                assert (f[mdp._targets] + 0.0).tobytes() == want
                assert apply_P(mdp, f).tobytes() == want

    def test_non_finite_values_take_the_matmul(self):
        for mdp in self._one_hot_mdps():
            for bad in (np.inf, -np.inf, np.nan):
                f = np.linspace(-1.0, 1.0, mdp.n_states)
                f[-1] = bad
                with np.errstate(invalid="ignore"):
                    want, got = mdp.transition @ f, apply_P(mdp, f)
                assert np.array_equal(got, want, equal_nan=True)
                # the matmul's 0 * inf = NaN reaches rows a gather leaves finite
                assert np.isnan(want).any()

    def test_stochastic_kernels_take_the_matmul(self):
        from dataclasses import replace

        from softirl.envs import build_env
        from softirl.harness import builtin_experiment

        noisy = build_env(replace(builtin_experiment("ident").env, move_noise=0.3))[0]
        dense = random_mdp(np.random.default_rng(8), 6, 3, 0.9)
        for mdp in (noisy, dense):
            assert mdp._targets is None
            f = np.random.default_rng(9).normal(size=mdp.n_states)
            assert apply_P(mdp, f).tobytes() == (mdp.transition @ f).tobytes()


class TestSingleMaxPath:
    """Tables where every row has one finite max take the short path of
    `_logsumexp_action_major`; all others take scipy's tie arithmetic."""

    def _check(self, f):
        logsumexp = _scipy_logsumexp()
        with np.errstate(all="ignore"):
            want = logsumexp(f, axis=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = logsumexp_actions(f)
        assert np.array_equal(got, want, equal_nan=True)

    def test_nan_row_and_two_way_tie_row(self):
        # the NaN row has no tie and the tied row two, so the tie count alone
        # equals the row count; the finiteness test must send this table to
        # the general path
        f = np.array([[np.nan, 0.0, 1.0],
                      [2.0, 2.0, -1.0],
                      [0.5, 0.1, -0.3]])
        assert np.count_nonzero(f == f.max(axis=1, keepdims=True)) == len(f)
        self._check(f)

    def test_finite_max_with_minus_inf_entries(self):
        f = np.array([[0.3, -np.inf, -1.0],
                      [-np.inf, -np.inf, 4.0],
                      [1e300, -np.inf, -1e300]])
        self._check(f)

    def test_one_tied_row_among_single_max_rows(self):
        rng = np.random.default_rng(11)
        f = rng.normal(size=(40, 5))
        f[17, 3] = f[17].max()
        f[17, 0] = f[17, 3]
        self._check(f)

    def test_plus_inf_rows(self):
        f = np.array([[np.inf, 0.0, 1.0],
                      [0.2, -0.7, 1.5],
                      [np.inf, np.inf, -np.inf]])
        self._check(f)

    def test_general_path_still_suppresses_its_warnings(self):
        # all -inf rows divide by zero ties and subtract inf from inf
        self._check(np.array([[-np.inf, -np.inf], [np.nan, np.nan], [0.0, 1.0]]))


def _one_hot_mdp(rng, n_states, n_actions, gamma):
    """Random deterministic kernel: each (s, a) moves to one random state."""
    t = np.zeros((n_states, n_actions, n_states))
    nxt = rng.integers(0, n_states, size=(n_states, n_actions))
    t[np.arange(n_states)[:, None], np.arange(n_actions), nxt] = 1.0
    return TabularMdp(t, gamma)


class TestBatchedSoftValueIteration:
    """`_soft_value_iteration` sweeps a (B, S, A) stack action-major in one
    loop; every problem must get the bits of its own call, and every call
    those of the scipy reference sweep."""

    @staticmethod
    def _check(mdp, rewards, tol, v0=None):
        stack_v0 = None if v0 is None else np.stack(v0)
        got = _soft_value_iteration(mdp, np.stack(rewards), tol, stack_v0)
        for b, r in enumerate(rewards):
            start = None if v0 is None else v0[b]
            if start is None:
                want = soft_value_iteration(mdp, r, tol=tol)
            else:
                want = _warm_solve(mdp, r, tol, start)
            for g, w, ref in zip(got[b], want, _reference_soft_value_iteration(mdp, r, tol, start)):
                assert np.array_equal(g, w)
                assert np.array_equal(w, ref)

    @pytest.mark.parametrize("name", ["easy", "ident", "hard", "ident-noisy"])
    def test_gridworlds(self, name):
        mdp, r_true = _gridworld(name)
        noise = np.random.default_rng(0).normal(scale=0.3, size=r_true.shape)
        # r = 0 ties every row; the others stop at different sweeps
        rewards = [r_true, 0.5 * r_true, r_true + noise, np.zeros_like(r_true)]
        warm = [soft_value_iteration(mdp, 0.9 * r, tol=1e-6)[0] for r in rewards]
        for v0 in (None, warm):
            self._check(mdp, rewards, 1e-8, v0)

    @pytest.mark.parametrize("n_actions", [2, 5, 7, 8, 9, 16])
    def test_random_mdps(self, n_actions):
        # from 8 actions on, numpy's row sums are pairwise, not sequential
        rng = np.random.default_rng(n_actions)
        for mdp in (random_mdp(rng, 7, n_actions, 0.9), _one_hot_mdp(rng, 7, n_actions, 0.9)):
            rewards = [rng.normal(scale=scale, size=(7, n_actions)) for scale in (0.1, 1.0, 5.0)]
            rewards += [np.round(rewards[1]), np.zeros((7, n_actions))]
            v0 = [rng.normal(size=(7, n_actions)) for _ in rewards]
            for start in (None, v0):
                self._check(mdp, rewards, 1e-9, start)

    def test_problems_leave_at_their_own_sweep(self):
        mdp, r_true = _gridworld("ident")
        v_star = soft_value_iteration(mdp, r_true, tol=1e-13)[0]
        rewards = [r_true, r_true, 0.5 * r_true]
        v0 = [v_star, np.zeros_like(v_star), v_star]
        # started at its fixed point, the first problem stops after one sweep
        first = _soft_value_iteration(mdp, np.stack(rewards), 1e-8, np.stack(v0), max_iter=1)
        assert isinstance(first[0], tuple)
        assert all(isinstance(result, RuntimeError) for result in first[1:])
        self._check(mdp, rewards, 1e-8, v0)

    def test_non_finite_rewards_fail_alone(self):
        mdp, r_true = _gridworld("ident")
        some_minus_inf = r_true.copy()
        some_minus_inf[::3, 1] = -np.inf
        plus_inf, nan, minus_inf_row = r_true.copy(), r_true.copy(), r_true.copy()
        plus_inf[5, 2] = np.inf
        nan[7, 0] = np.nan
        minus_inf_row[9] = -np.inf
        rewards = [r_true, some_minus_inf, plus_inf, nan, minus_inf_row]
        with np.errstate(all="ignore"):
            results = _soft_value_iteration(mdp, np.stack(rewards), 1e-8, max_iter=2000)
            for r, result in zip(rewards, results):
                try:
                    want = soft_value_iteration(mdp, r, tol=1e-8, max_iter=2000)
                except RuntimeError as exc:
                    assert isinstance(result, RuntimeError) and str(result) == str(exc)
                    continue
                for g, w in zip(result, want):
                    assert np.array_equal(g, w)
        # -inf entries in a row still converge; +inf, NaN and an all -inf row
        # reach the matmul's 0 * inf and never do
        assert [isinstance(result, tuple) for result in results] == [True, True, False,
                                                                     False, False]

    def test_a_sweep_off_onto_kernels_is_one_product(self, monkeypatch):
        # v = P lse of every live problem comes from one stacked matmul per
        # sweep, not from one apply_P call per problem
        mdp, r_true = _gridworld("ident-noisy")
        calls = {"matmul": 0, "sweeps": 0}
        matmul, lse = np.matmul, mdp_module._logsumexp_action_major

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def unreachable(*args, **kwargs):
            raise AssertionError("apply_P was called inside the sweep")

        monkeypatch.setattr(np, "matmul", counted("matmul", matmul))
        monkeypatch.setattr(mdp_module, "_logsumexp_action_major", counted("sweeps", lse))
        monkeypatch.setattr(mdp_module, "apply_P", unreachable)
        results = _soft_value_iteration(mdp, np.stack([r_true, 0.5 * r_true, -r_true]), 1e-8)
        assert all(isinstance(result, tuple) for result in results)
        assert calls["matmul"] == calls["sweeps"] > 100


class TestUnreachableState:
    """A one-hot kernel where no (s, a) moves into the last state: that
    state's log-sum-exp never reaches v, so the residual must be taken over
    v, not over the log-sum-exp of every state."""

    tol, max_iter = 1e-10, 400

    @staticmethod
    def _mdp_and_rewards():
        rng = np.random.default_rng(12)
        n_states, n_actions = 7, 3
        t = np.zeros((n_states, n_actions, n_states))
        nxt = rng.integers(0, n_states - 1, size=(n_states, n_actions))
        nxt[:n_states - 1, 0] = np.arange(n_states - 1)  # every other state is reached
        t[np.arange(n_states)[:, None], np.arange(n_actions), nxt] = 1.0
        finite = rng.normal(size=(n_states, n_actions))
        rewards = {"finite": finite}
        for name, row, value in (("minus-inf-row", slice(None), -np.inf),
                                 ("plus-inf", 1, np.inf), ("nan", 0, np.nan)):
            rewards[name] = finite.copy()
            rewards[name][-1, row] = value
        return TabularMdp(t, 0.9), rewards

    def _expect(self, mdp, r, v0, got):
        try:
            want = _reference_soft_value_iteration(mdp, r, self.tol, v0, self.max_iter)
        except RuntimeError as exc:
            assert isinstance(got, RuntimeError) and str(got) == str(exc)
            return
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("start", ["cold", "warm"])
    def test_alone_and_in_a_mixed_batch(self, start):
        mdp, rewards = self._mdp_and_rewards()
        assert not mdp.transition[:, :, -1].any()
        v0 = None
        if start == "warm":
            # the finite problem's fixed point with the unreachable state's row
            # moved: from the second sweep on, v barely moves while that
            # state's log-sum-exp still does
            v0 = _reference_soft_value_iteration(mdp, rewards["finite"], self.tol)[0]
            v0[-1] += np.random.default_rng(13).normal(scale=5.0, size=v0.shape[1])
        names = list(rewards)
        stack = np.stack([rewards[name] for name in names])
        stack_v0 = None if v0 is None else np.stack([v0] * len(names))
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for name, r in rewards.items():
                start_v = None if v0 is None else v0[None]
                (got,) = _soft_value_iteration(mdp, r[None], self.tol, start_v, self.max_iter)
                self._expect(mdp, r, v0, got)
            batch = _soft_value_iteration(mdp, stack, self.tol, stack_v0, self.max_iter)
            for name, got in zip(names, batch):
                self._expect(mdp, rewards[name], v0, got)
        # the finite problem converges; every non-finite one reaches the matmul's NaN
        assert [isinstance(got, tuple) for got in batch] == [True, False, False, False]


class TestNonFiniteProblemLeaves:
    """A NaN residual bound never clears, so its problem leaves the batch at
    the first sweep that shows it, not after `max_iter` sweeps."""

    def test_ident_batch_at_the_default_max_iter(self):
        mdp, r_true = _gridworld("ident")
        rewards = [r_true]
        for row, col, value in ((5, 2, np.nan), (9, 0, np.inf), (13, slice(None), -np.inf)):
            rewards.append(r_true.copy())
            rewards[-1][row, col] = value
        tol = 1e-10
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            batch = _soft_value_iteration(mdp, np.stack(rewards), tol)
            for r, got in zip(rewards[1:], batch[1:]):
                assert isinstance(got, RuntimeError)
                with pytest.raises(RuntimeError) as alone:
                    soft_value_iteration(mdp, r, tol=tol)
                with pytest.raises(RuntimeError) as want:
                    _reference_soft_value_iteration(mdp, r, tol)
                assert str(got) == str(alone.value) == str(want.value)
                sweeps = int(re.search(r" in (\d+) iterations", str(got)).group(1))
                assert sweeps <= 3 and str(got).endswith("last residual bound nan")
        alone = soft_value_iteration(mdp, r_true, tol=tol)
        want = _reference_soft_value_iteration(mdp, r_true, tol)
        for g, a, w in zip(batch[0], alone, want):
            assert np.array_equal(g, a) and np.array_equal(g, w)


def _reference_iterates(mdp, r, tol):
    """v from 0 after each sweep of `_reference_soft_value_iteration`, run one
    sweep at a time, up to the sweep where the reference stops at `tol`."""
    vs = [np.zeros_like(r)]
    while len(vs) == 1 or mdp.gamma * np.max(np.abs(vs[-1] - vs[-2])) > tol:
        vs.append(_reference_soft_value_iteration(mdp, r, np.inf, vs[-1], max_iter=1)[0])
    return vs


class TestResidualBlocks:
    """The residual is checked once per CHECK_EVERY sweeps, or sooner where
    every live problem must have stopped, on onto one-hot kernels (ident) and
    stochastic ones (ident-noisy) alike. Each problem must still stop at its
    own sweep with the reference's bits, and fail with the reference's text
    wherever `max_iter` or a non-finite sweep falls within a block."""

    tol = 1e-8
    n_sweeps = 2 * CHECK_EVERY + 1

    @staticmethod
    def _assert_matches(got, want):
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("name", ["ident", "ident-noisy"])
    def test_cold_problems_stop_at_every_offset(self, name):
        mdp, r_true = _gridworld(name)
        log_pi = np.log(soft_value_iteration(mdp, r_true)[2])
        # r = log pi + b has v* = b / (1 - gamma): from v = 0 the residual
        # bound is about b gamma^k, so b sets the stopping sweep
        rewards = [log_pi + 1e-6 * mdp.gamma ** -(j + 0.5) for j in range(CHECK_EVERY)]
        iterates = [_reference_iterates(mdp, r, self.tol) for r in rewards]
        assert {(len(vs) - 1) % CHECK_EVERY for vs in iterates} == set(range(CHECK_EVERY))
        batch = _soft_value_iteration(mdp, np.stack(rewards), self.tol)
        for r, vs, got in zip(rewards, iterates, batch):
            # the reference's last sweep returns what the reference returns from v = 0
            self._assert_matches(got, _reference_soft_value_iteration(mdp, r, np.inf, vs[-2], 1))

    @pytest.mark.parametrize("name", ["ident", "ident-noisy"])
    def test_batch_ends_at_its_last_problems_stop(self, name, monkeypatch):
        # after each check, the bounds shrinking by gamma per sweep predict the
        # sweep by which every live problem stops; on these problems that is
        # the last one's own sweep (167), not the end of its block (176)
        mdp, r_true = _gridworld(name)
        log_pi = np.log(soft_value_iteration(mdp, r_true)[2])
        rewards = [log_pi + 1e-6 * mdp.gamma ** -(j + 0.5) for j in range(CHECK_EVERY)]
        stops = [len(_reference_iterates(mdp, r, self.tol)) - 1 for r in rewards]
        assert max(stops) % CHECK_EVERY
        sweeps = []
        lse = mdp_module._logsumexp_action_major  # one call per sweep
        monkeypatch.setattr(mdp_module, "_logsumexp_action_major",
                            lambda *args: sweeps.append(1) or lse(*args))
        _soft_value_iteration(mdp, np.stack(rewards), self.tol)
        assert len(sweeps) == max(stops)

    @pytest.mark.parametrize("name", ["ident", "ident-noisy"])
    def test_warm_problems_stop_at_every_offset(self, name):
        mdp, r_true = _gridworld(name)
        vs = _reference_iterates(mdp, r_true, self.tol)
        # started k sweeps short of the reference's stop, a problem stops at sweep k
        starts = [vs[-1 - k] for k in range(1, self.n_sweeps + 1)]
        rewards = np.stack([r_true] * len(starts))
        batch = _soft_value_iteration(mdp, rewards, self.tol, np.stack(starts))
        for start, got in zip(starts, batch):
            self._assert_matches(got, _reference_soft_value_iteration(mdp, r_true, self.tol, start))

    @pytest.mark.parametrize("name", ["ident", "ident-noisy"])
    def test_every_max_iter_within_two_blocks(self, name):
        mdp, r_true = _gridworld(name)
        vs = _reference_iterates(mdp, r_true, self.tol)
        shape = r_true / np.abs(r_true).max()
        # near the float maximum, v overflows to inf after some finite sweeps
        # (at sweeps 2, 16, 17 and 33 for these scales), and 0 * inf makes the
        # matmul's NaN; r_true never stops within 33 sweeps from v = 0
        overflow = [scale * (1 + 0.01 * shape) for scale in (1e308, 1.43e307, 1.365e307, 8.5e306)]
        warm = [vs[-1 - k] for k in (1, CHECK_EVERY, CHECK_EVERY + 1, 2 * CHECK_EVERY,
                                     self.n_sweeps)]
        batches = [(overflow + [r_true], [None] * 5),
                   (overflow + [r_true] * 5, [np.zeros_like(r_true)] * 4 + warm)]
        failed_at = set()
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for max_iter in range(1, self.n_sweeps + 1):
                for rewards, starts in batches:
                    v0 = None if starts[0] is None else np.stack(starts)
                    batch = _soft_value_iteration(mdp, np.stack(rewards), self.tol, v0, max_iter)
                    for r, start, got in zip(rewards, starts, batch):
                        try:
                            want = _reference_soft_value_iteration(mdp, r, self.tol, start,
                                                                   max_iter)
                        except RuntimeError as exc:
                            assert isinstance(got, RuntimeError) and str(got) == str(exc)
                            if str(exc).endswith("nan"):
                                failed_at.add(int(re.search(r" in (\d+) it", str(exc))[1]))
                            continue
                        self._assert_matches(got, want)
        assert failed_at == {2, CHECK_EVERY, CHECK_EVERY + 1, 2 * CHECK_EVERY + 1}


class TestOneStateKernel:
    """Every move of a one-state kernel reaches its one state, so no 0 * inf
    turns a non-finite log-sum-exp into NaN: v goes to +-inf, and only the
    next sweep's inf - inf makes a NaN bound. The loop must stop where the
    reference does, alone and in a batch."""

    mdp = TabularMdp(np.ones((1, 2, 1)), 0.9)
    rewards = np.array([[[np.inf, 0.0]], [[-np.inf, -np.inf]], [[1e308, 1e308]]])

    def test_non_finite_sweeps_fail_at_the_references_sweep(self):
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            batch = _soft_value_iteration(self.mdp, self.rewards, 1e-8)
            for r, got, sweeps in zip(self.rewards, batch, (2, 2, 3)):
                (alone,) = _soft_value_iteration(self.mdp, r[None], 1e-8)
                with pytest.raises(RuntimeError) as want:
                    _reference_soft_value_iteration(self.mdp, r, 1e-8)
                assert str(got) == str(alone) == str(want.value)
                assert f" in {sweeps} iterations; last residual bound nan" in str(got)

    def test_no_sweep_at_max_iter_zero(self):
        for rewards in [self.rewards] + [r[None] for r in self.rewards]:
            for got in _soft_value_iteration(self.mdp, rewards, 1e-8, max_iter=0):
                assert str(got).endswith(" in 0 iterations; last residual bound inf")


class TestSoftPolicyIteration:
    """Newton's method on the soft Bellman equation, under the contract of
    soft value iteration: both stop at sup-norm residual <= tol, so their
    fixed points differ by at most about tol / (1 - gamma)."""

    @staticmethod
    def _random_cases():
        for seed in range(30):
            rng = np.random.default_rng(seed)
            n_states, n_actions = rng.integers(2, 12), rng.integers(1, 6)
            mdp = random_mdp(rng, n_states, n_actions, float(rng.choice([0.5, 0.9, 0.97])))
            yield mdp, rng.normal(scale=2.0, size=(n_states, n_actions))

    def test_residual_within_tol(self):
        for mdp, r in self._random_cases():
            for tol in (1e-6, 1e-10):
                v, q, pi = _soft_policy_iteration(mdp, r, tol=tol)
                assert sup_norm(soft_bellman_residual(mdp, r, v)) <= tol
                assert np.array_equal(q, r + mdp.gamma * v)
                assert np.array_equal(pi, softmax_actions(q))

    def test_matches_value_iteration_on_random_mdps(self):
        # Each solver stops within tol of the fixed point in its own way, so
        # pi agrees only to about tol here (measured max 5.1e-12; Q 3.2e-9).
        for mdp, r in self._random_cases():
            _, q_vi, pi_vi = soft_value_iteration(mdp, r, tol=1e-10)
            _, q, pi = _soft_policy_iteration(mdp, r, tol=1e-10)
            assert sup_norm(q - q_vi) <= 1e-7
            assert sup_norm(pi - pi_vi) <= 1e-10

    @pytest.mark.parametrize("name", ["easy", "ident", "hard", "ident-noisy"])
    def test_matches_value_iteration_on_gridworlds(self, name):
        mdp, r_true = _gridworld(name)
        _, q_vi, pi_vi = soft_value_iteration(mdp, r_true, tol=1e-10)
        _, q, pi = _soft_policy_iteration(mdp, r_true, tol=1e-10)
        # measured: Q within 3.2e-9, pi within 1.0e-13
        assert sup_norm(q - q_vi) <= 1e-7
        assert sup_norm(pi - pi_vi) <= 1e-12

    def test_large_reward_gap_stays_finite(self):
        # pi underflows to 0 off the best action; the entropy term must not
        # turn that into 0 * inf.
        mdp, r_true = _gridworld("ident")
        r = np.zeros_like(r_true)
        r[:, 0] = 1000.0
        v, q, pi = _soft_policy_iteration(mdp, r, tol=1e-9)
        assert np.all(np.isfinite(v)) and np.all(np.isfinite(q))
        assert np.min(pi) == 0.0
        assert sup_norm(soft_bellman_residual(mdp, r, v)) <= 1e-9

    def test_step_cap_raises(self):
        rng = np.random.default_rng(6)
        mdp = random_mdp(rng, 3, 2, 0.99)
        with pytest.raises(RuntimeError, match="residual"):
            _soft_policy_iteration(mdp, rng.normal(size=(3, 2)), tol=1e-12, max_iter=2)


class TestPolicyQ:
    def test_myopic_case(self):
        rng = np.random.default_rng(7)
        t = rng.dirichlet(np.ones(3), size=(3, 2))
        mdp = TabularMdp(t, 0.0)
        r = rng.normal(size=(3, 2))
        assert_allclose(policy_Q(mdp, r, random_policy(rng, 3, 2)), r, atol=1e-12)

    def test_constant_reward(self):
        rng = np.random.default_rng(8)
        mdp = random_mdp(rng, 4, 3, 0.6)
        q = policy_Q(mdp, np.ones((4, 3)), random_policy(rng, 4, 3))
        assert_allclose(q, 1.0 / (1.0 - 0.6), atol=1e-10)

    def test_toggle_matches_power_series_oracle(self):
        mdp = toggle_mdp(gamma=0.5)
        r = np.zeros((2, 2))
        r[1, :] = 1.0
        pi1 = np.zeros((2, 2))
        pi1[:, 1] = 1.0  # always toggle
        # truncated rollout: Q = sum_t gamma^t (pi1 P)^t r
        expected = np.zeros((2, 2))
        term = r.copy()
        for _ in range(60):
            expected += term
            term = mdp.gamma * apply_P(mdp, expect_mu(pi1, term))
        assert_allclose(policy_Q(mdp, r, pi1), expected, atol=1e-9)

    def test_residual_invariant(self):
        rng = np.random.default_rng(9)
        mdp = random_mdp(rng, 5, 3, 0.9)
        r = rng.normal(size=(5, 3))
        pi1 = random_policy(rng, 5, 3)
        q = policy_Q(mdp, r, pi1)
        assert sup_norm(q - r - mdp.gamma * apply_P(mdp, expect_mu(pi1, q))) <= 1e-9


class TestPolicyValue:
    def test_myopic_constant(self):
        rng = np.random.default_rng(10)
        t = rng.dirichlet(np.ones(3), size=(3, 2))
        mdp = TabularMdp(t, 0.0)
        v = policy_value(mdp, np.full((3, 2), 2.5), random_policy(rng, 3, 2))
        assert_allclose(v, 2.5, atol=1e-12)

    def test_same_policy_zero_difference(self):
        rng = np.random.default_rng(11)
        mdp = random_mdp(rng, 4, 3, 0.85)
        r = rng.normal(size=(4, 3))
        pi = random_policy(rng, 4, 3)
        assert sup_norm(policy_value(mdp, r, pi) - policy_value(mdp, r, pi)) == 0.0


class TestStationaryDistribution:
    def test_toggle_uniform(self):
        lam = stationary_distribution(toggle_mdp(), np.full((2, 2), 0.5))
        assert_allclose(lam, 0.5, atol=1e-10)

    def test_absorbing_state_point_mass(self):
        t = np.zeros((2, 1, 2))
        t[0, 0, 1] = 1.0
        t[1, 0, 1] = 1.0
        mdp = TabularMdp(t, 0.9)
        lam = stationary_distribution(mdp, np.ones((2, 1)))
        assert_allclose(lam, [0.0, 1.0], atol=1e-10)

    def test_torus_uniform_matches_eigvector_oracle(self):
        from softirl.envs import GridworldSpec, build_env
        from softirl.mdp import state_kernel

        mdp, _, _ = build_env(GridworldSpec(3, 3, topology="torus", seed=1,
                                            min_action_prob=0.0))
        mu = np.full((9, 5), 0.2)
        lam = stationary_distribution(mdp, mu)
        assert_allclose(lam, 1.0 / 9.0, atol=1e-9)
        # oracle: null space of (K^T - I) with the sum-to-one constraint
        kernel = state_kernel(mdp, mu)
        a = np.vstack([kernel.T - np.eye(9), np.ones(9)])
        b = np.concatenate([np.zeros(9), [1.0]])
        lam_solve, *_ = np.linalg.lstsq(a, b, rcond=None)
        assert_allclose(lam, lam_solve, atol=1e-9)

    def test_periodic_chain_raises(self):
        # 0 -> 1 -> 0 two-cycle fed by 2 -> 0; the state marginal oscillates
        t = np.zeros((3, 1, 3))
        t[0, 0, 1] = t[1, 0, 0] = t[2, 0, 0] = 1.0
        mdp = TabularMdp(t, 0.9)
        with pytest.raises(RuntimeError, match="mix"):
            stationary_distribution(mdp, np.ones((3, 1)), max_iter=500)


class TestConditionalLoglik:
    def test_uniform_policy_value(self):
        rng = np.random.default_rng(12)
        n_a = 4
        pi = np.full((5, n_a), 1.0 / n_a)
        w = rng.dirichlet(np.ones(5))[:, None] * pi
        ll = conditional_loglik(w, np.log(pi), np.zeros((5, n_a)), 0.9)
        assert_allclose(ll, -np.log(n_a), atol=1e-12)

    def test_trivial_solution_gives_negative_entropy(self):
        rng = np.random.default_rng(13)
        pi = random_policy(rng, 4, 3)
        state_w = rng.dirichlet(np.ones(4))
        w = state_w[:, None] * pi
        ll = conditional_loglik(w, np.log(pi), np.zeros((4, 3)), 0.95)
        entropy = -np.sum(state_w * np.sum(pi * np.log(pi), axis=1))
        assert_allclose(ll, -entropy, atol=1e-12)

    def test_shaping_leaves_loglik_unchanged(self):
        rng = np.random.default_rng(14)
        mdp = random_mdp(rng, 4, 3, 0.9)
        pi = random_policy(rng, 4, 3)
        r, v = np.log(pi), np.zeros((4, 3))
        r2, v2 = shape(r, v, rng.normal(size=4), mdp)
        w = rng.dirichlet(np.ones(12)).reshape(4, 3)
        assert abs(conditional_loglik(w, r, v, mdp.gamma)
                   - conditional_loglik(w, r2, v2, mdp.gamma)) <= 1e-12

    def test_empty_dataset_raises(self):
        class Empty:
            states = np.array([], dtype=int)
            actions = np.array([], dtype=int)

        with pytest.raises(ValueError, match="empty"):
            conditional_loglik(Empty(), np.zeros((2, 2)), np.zeros((2, 2)), 0.9)


class TestNorms:
    def test_sup_and_weighted_l2(self):
        f = np.array([[1.0, -2.0], [0.5, 0.0]])
        assert sup_norm(f) == 2.0
        w = np.full((2, 2), 0.25)
        assert_allclose(weighted_l2(f, w), np.sqrt((1 + 4 + 0.25) / 4), atol=1e-12)

    def test_lambda_mu_weights_sum_to_one(self):
        rng = np.random.default_rng(15)
        mdp = random_mdp(rng, 5, 3, 0.9)
        mu = random_policy(rng, 5, 3)
        w = lambda_mu_weights(mdp, mu)
        assert_allclose(w.sum(), 1.0, atol=1e-9)

    def test_joint_frequency(self):
        w = joint_frequency([0, 0, 1], [1, 1, 0], 2, 2)
        assert_allclose(w, [[0.0, 2 / 3], [1 / 3, 0.0]])
        with pytest.raises(ValueError, match="^empty index arrays$"):
            joint_frequency([], [], 2, 2)

    @pytest.mark.parametrize("states, actions", [([0, 0], [3, 0]), ([1, 0], [-1, 0])],
                             ids=["action-past-the-end", "negative-action"])
    def test_joint_frequency_rejects_an_action_out_of_range(self, states, actions):
        # unchecked, action 3 of state 0 was counted as cell (1, 1), and (1, -1) as (0, 1)
        with pytest.raises(ValueError, match=r"^action index out of range \[0, 2\)$"):
            joint_frequency(states, actions, 2, 2)
