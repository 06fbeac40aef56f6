import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from softirl.envs import (
    _BLOCK,
    GridworldSpec,
    TransitionDataset,
    build_env,
    expert_policy,
    read_dataset,
    sample_transitions,
    write_dataset,
)
from softirl.harness import builtin_experiment
from softirl.mdp import TabularMdp, soft_value_iteration

from reference import read_dataset_per_line, shape, sup_norm


def small_spec(**kw):
    defaults = dict(width=3, height=3, topology="torus", reward_kind="tabular-linear",
                    seed=5, min_action_prob=0.0)
    defaults.update(kw)
    return GridworldSpec(**defaults)


class TestBuildEnv:
    def test_torus_4x4_shape_and_determinism_of_kernel(self):
        mdp, r, fmap = build_env(GridworldSpec(4, 4, topology="torus",
                                               reward_kind="linear", seed=0,
                                               min_action_prob=0.0))
        assert mdp.n_states == 16 and mdp.n_actions == 5
        # deterministic moves: every row is one-hot
        assert np.all(np.isin(mdp.transition, (0.0, 1.0)))
        assert r.shape == (16, 5)
        assert fmap.phi.shape[:2] == (16, 5)

    def test_bounded_corner_is_noop(self):
        mdp, _, _ = build_env(GridworldSpec(8, 8, topology="bounded", seed=0,
                                            min_action_prob=0.0))
        # state 0 is (x=0, y=0); moving down (action 2) or left (action 3) stays
        assert mdp.transition[0, 2, 0] == 1.0
        assert mdp.transition[0, 3, 0] == 1.0

    def test_same_seed_bit_identical(self):
        spec = small_spec(reward_kind="nonlinear")
        mdp1, r1, f1 = build_env(spec)
        mdp2, r2, f2 = build_env(spec)
        assert np.array_equal(mdp1.transition, mdp2.transition)
        assert np.array_equal(r1, r2)
        assert np.array_equal(f1.phi, f2.phi)

    def test_zero_size_grid_rejected(self):
        with pytest.raises(ValueError):
            build_env(small_spec(width=0))

    def test_tabular_features_are_one_hot(self):
        _, _, fmap = build_env(small_spec())
        assert fmap.phi.shape[2] == 9 * 5
        assert_allclose(fmap.phi.reshape(45, 45), np.eye(45))

    def test_min_action_prob_guard(self):
        mdp, r, _ = build_env(small_spec(min_action_prob=0.05, reward_scale=10.0))
        pi = expert_policy(mdp, r)
        assert pi.min() >= 0.05

    def test_move_noise_spreads_mass(self):
        mdp, _, _ = build_env(small_spec(move_noise=0.2))
        assert np.max(mdp.transition) < 1.0
        assert_allclose(mdp.transition.sum(axis=2), 1.0, atol=1e-12)


def _packaged_spec(name):
    spec = builtin_experiment(name.split("-")[0]).env
    return replace(spec, move_noise=0.3) if name.endswith("-noisy") else spec


def _value_iteration_rescale(spec):
    """r_true as build_env computed it with a soft value iteration per scale."""
    _, raw, _ = build_env(replace(spec, min_action_prob=0.0, reward_scale=1.0))
    mdp, _, _ = build_env(replace(spec, min_action_prob=0.0))
    scale = spec.reward_scale
    r_true = scale * raw
    for _ in range(80):
        _, _, pi = soft_value_iteration(mdp, r_true, tol=1e-9)
        if pi.min() >= spec.min_action_prob:
            return r_true
        scale *= 0.9
        r_true = scale * raw
    raise AssertionError("reference rescale did not terminate")


class TestRescaleMatchesValueIteration:
    # The rescale loop's pass/fail decisions sit >= 6.3e-4 from
    # min_action_prob on these specs, against a solver difference in pi of
    # at most 2.2e-10 at tol 1e-9, so r_true must not move by one bit.
    @pytest.mark.parametrize("spec", [
        *(_packaged_spec(name) for name in ("easy", "ident", "hard", "ident-noisy")),
        GridworldSpec(12, 12, topology="torus", seed=3, min_action_prob=0.03),
    ], ids=["easy", "ident", "hard", "ident-noisy", "torus-12x12"])
    def test_r_true_bit_identical(self, spec):
        _, r_true, _ = build_env(spec)
        assert np.array_equal(r_true, _value_iteration_rescale(spec))


class TestExpertPolicy:
    def test_zero_reward_uniform(self):
        mdp, _, _ = build_env(small_spec())
        pi = expert_policy(mdp, np.zeros((9, 5)))
        assert_allclose(pi, 0.2, atol=1e-9)

    def test_log_policy_reward_returns_policy(self):
        rng = np.random.default_rng(3)
        mdp, _, _ = build_env(small_spec())
        pi = rng.dirichlet(np.ones(5), size=9)
        assert_allclose(expert_policy(mdp, np.log(pi)), pi, atol=1e-9)

    def test_invariant_under_potential_shaping(self):
        rng = np.random.default_rng(4)
        mdp, r, _ = build_env(small_spec())
        r2, _ = shape(r, np.zeros_like(r), rng.normal(size=9), mdp)
        assert sup_norm(expert_policy(mdp, r) - expert_policy(mdp, r2)) <= 1e-9


class TestSampleTransitions:
    def test_deterministic_rollout_prefix(self):
        # always-toggle policy on a deterministic 2-state chain from a point mass
        from conftest import toggle_mdp

        mdp = toggle_mdp()
        pi = np.zeros((2, 2))
        pi[:, 1] = 1.0
        init = np.array([1.0, 0.0])
        ds = sample_transitions(mdp, pi, 6, init=init, regime="trajectory", seed=0)
        assert_allclose(ds.states, [0, 1, 0, 1, 0, 1])
        assert_allclose(ds.next_states, [1, 0, 1, 0, 1, 0])

    def test_same_seed_identical(self):
        mdp, r, _ = build_env(small_spec())
        pi = expert_policy(mdp, r)
        d1 = sample_transitions(mdp, pi, 500, seed=9)
        d2 = sample_transitions(mdp, pi, 500, seed=9)
        assert np.array_equal(d1.states, d2.states)
        assert np.array_equal(d1.actions, d2.actions)
        assert np.array_equal(d1.next_states, d2.next_states)

    def test_records_obey_kernel_support(self):
        mdp, r, _ = build_env(small_spec(move_noise=0.1))
        pi = expert_policy(mdp, r)
        ds = sample_transitions(mdp, pi, 2000, seed=1)
        assert np.all(mdp.transition[ds.states, ds.actions, ds.next_states] > 0)

    def test_conditional_frequencies_within_three_se(self):
        # binomial concentration on a tiny chain at n = 200k
        from conftest import toggle_mdp

        mdp = toggle_mdp()
        pi = np.array([[0.7, 0.3], [0.4, 0.6]])
        ds = sample_transitions(mdp, pi, 200_000, seed=12)
        for s in range(2):
            mask = ds.states == s
            n_s = mask.sum()
            for a in range(2):
                p_hat = np.mean(ds.actions[mask] == a)
                se = np.sqrt(pi[s, a] * (1 - pi[s, a]) / n_s)
                assert abs(p_hat - pi[s, a]) <= 3 * se

    def test_restart_regime_mixes_more_than_trajectory(self):
        # with a point-mass init, restarts revisit the initial state
        mdp, r, _ = build_env(small_spec())
        pi = expert_policy(mdp, r)
        init = np.zeros(9)
        init[0] = 1.0
        ds = sample_transitions(mdp, pi, 4000, init=init, regime="iid-restart", seed=2)
        frac0 = np.mean(ds.states == 0)
        assert frac0 > 1.0 / 9.0  # restarts overweight state 0

    def test_n_must_be_positive(self):
        mdp, r, _ = build_env(small_spec())
        with pytest.raises(ValueError):
            sample_transitions(mdp, expert_policy(mdp, r), 0)


def _loop_reference(mdp, pi, n, init, regime, seed):
    """The per-record searchsorted sampler the block-wise one must reproduce."""
    rng = np.random.default_rng(seed)
    u = rng.random((n, 3))
    init_cdf = np.cumsum(init)
    pi_cdf = np.cumsum(pi, axis=1)
    trans_cdf = np.cumsum(mdp.transition, axis=2)
    na, ns = mdp.n_actions, mdp.n_states
    out = np.empty((3, n), dtype=np.int64)
    s = min(int(np.searchsorted(init_cdf, u[0, 2], side="right")), ns - 1)
    for i in range(n):
        a = min(int(np.searchsorted(pi_cdf[s], u[i, 0], side="right")), na - 1)
        s2 = min(int(np.searchsorted(trans_cdf[s, a], u[i, 1], side="right")), ns - 1)
        out[:, i] = s, a, s2
        if i + 1 < n:
            if regime == "trajectory" or u[i + 1, 2] < mdp.gamma:
                s = s2
            else:
                s = min(int(np.searchsorted(init_cdf, rng.random(), side="right")), ns - 1)
    return out


class TestSamplerMatchesLoopReference:
    @staticmethod
    def _check(name, n, regime, skewed, seed=7):
        mdp, r_true, _ = build_env(_packaged_spec(name))
        pi = expert_policy(mdp, r_true)
        init = np.full(mdp.n_states, 1.0 / mdp.n_states)
        if skewed:  # non-uniform, with zero-mass states
            init = np.arange(mdp.n_states) % 3 * 1.0
            init /= init.sum()
        ds = sample_transitions(mdp, pi, n, init=init, regime=regime, seed=seed)
        want = _loop_reference(mdp, pi, n, init, regime, seed)
        for got, ref in zip((ds.states, ds.actions, ds.next_states), want):
            assert got.dtype == np.int64
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("regime", ["iid-restart", "trajectory"])
    @pytest.mark.parametrize("name", ["easy", "ident", "hard", "ident-noisy"])
    @pytest.mark.parametrize("skewed", [False, True], ids=["uniform-init", "skewed-init"])
    def test_several_blocks(self, name, regime, skewed):
        self._check(name, 3 * _BLOCK + 7, regime, skewed)

    @pytest.mark.parametrize("regime", ["iid-restart", "trajectory"])
    @pytest.mark.parametrize("n", [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1])
    def test_block_edges(self, n, regime):
        self._check("ident", n, regime, skewed=True, seed=n)

    @pytest.mark.parametrize("regime", ["iid-restart", "trajectory"])
    def test_clamps_rows_just_under_one(self, monkeypatch, regime):
        # Ten masses of 0.1 sum to 1 - 2**-53, so a uniform of 1 - 2**-53
        # lies past every CDF entry; the stream of uniforms is replayed so
        # that such draws hit the first record, a restart and later records.
        n, top = 3 * _BLOCK + 7, np.nextafter(1.0, 0.0)
        tenth = np.full(10, 0.1)
        assert np.cumsum(tenth)[-1] == top
        mdp = TabularMdp(np.tile(tenth, (10, 10, 1)), 0.5)
        stream = np.random.default_rng(3).random(3 * n + n)
        stream[:3] = top
        stream[3 * n:][::7] = top
        stream[30:3 * n:11] = top

        class Replay:
            def __init__(self, seed):
                self.rest = iter(stream.tolist())

            def random(self, size=None):
                if size is None:
                    return next(self.rest)
                return np.array([next(self.rest) for _ in range(int(np.prod(size)))]).reshape(size)

        monkeypatch.setattr(np.random, "default_rng", Replay)
        ds = sample_transitions(mdp, np.tile(tenth, (10, 1)), n, init=tenth, regime=regime)
        want = _loop_reference(mdp, np.tile(tenth, (10, 1)), n, tenth, regime, 0)
        assert ds.states[0] == 9 and ds.actions[0] == 9 and ds.next_states[0] == 9
        for got, ref in zip((ds.states, ds.actions, ds.next_states), want):
            assert np.array_equal(got, ref)


class TestDatasetIO:
    def test_file_bytes(self, tmp_path):
        ds = TransitionDataset(np.array([0, 12, 3]), np.array([4, 0, 1]),
                               np.array([3, 12, 0]),
                               meta={"seed": 2, "env": "toy", "n": 3, "n_states": 13,
                                     "n_actions": 5, "regime": "trajectory"})
        path = tmp_path / "data.txt"
        write_dataset(ds, path)
        assert path.read_bytes() == (
            b"# transitions seed=2 env=toy n=3 n_states=13 n_actions=5 regime=trajectory\n"
            b"0,4,3\n12,0,12\n3,1,0\n")
        # several writer blocks: the same lines as one write per record
        n = 2 * _BLOCK + 3
        columns = np.random.default_rng(0).integers(0, 5, size=(3, n))
        write_dataset(TransitionDataset(*columns, meta={**ds.meta, "n": n}), path)
        assert path.read_text().splitlines()[1:] == [f"{s},{a},{s2}" for s, a, s2 in columns.T]

    def test_round_trip_identity(self, tmp_path):
        ds = TransitionDataset(np.array([0, 1, 2]), np.array([1, 0, 3]),
                               np.array([2, 2, 0]),
                               meta={"seed": 7, "env": "toy", "n": 3,
                                     "n_states": 4, "n_actions": 5,
                                     "regime": "iid-restart"})
        path = tmp_path / "data.txt"
        write_dataset(ds, path)
        back = read_dataset(path)
        assert np.array_equal(back.states, ds.states)
        assert np.array_equal(back.actions, ds.actions)
        assert np.array_equal(back.next_states, ds.next_states)
        assert back.meta == ds.meta

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# transitions seed=0 env=- n=0 n_states=2 n_actions=2 regime=trajectory\n")
        ds = read_dataset(path)
        assert ds.n == 0

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# transitions seed=0 env=- n=2 n_states=4 n_actions=5 regime=trajectory\n"
                        "0,1,2\n0,1\n")
        with pytest.raises(ValueError, match=":3:"):
            read_dataset(path)

    def test_out_of_range_state_reports_line(self, tmp_path):
        path = tmp_path / "oor.txt"
        path.write_text("# transitions seed=0 env=- n=1 n_states=2 n_actions=2 regime=trajectory\n"
                        "5,0,1\n")
        with pytest.raises(ValueError, match=":2:.*out of range"):
            read_dataset(path)

    def test_non_integer_header_value_reports_line(self, tmp_path):
        path = tmp_path / "badhdr.txt"
        path.write_text("# transitions seed=0 env=- n=x n_states=4 n_actions=5 regime=trajectory\n"
                        "0,1,2\n")
        with pytest.raises(ValueError, match=r":1: non-integer header value 'n=x'"):
            read_dataset(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "nohdr.txt"
        path.write_text("0,1,2\n")
        with pytest.raises(ValueError, match="header"):
            read_dataset(path)

    def test_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("# transitions seed=0 env=- n=2 n_states=4 n_actions=5 regime=trajectory\n"
                        "0,1,2\n")
        with pytest.raises(ValueError, match="n=2"):
            read_dataset(path)


HEADER = "# transitions seed=0 env=- n={n} n_states={ns} n_actions=3 regime=trajectory\n"


class TestReaderMatchesPerLineReference:
    """The vectorised `read_dataset` against the per-line reader."""

    @pytest.mark.parametrize("body, n", [
        ("0,1,2\n0,1\n", 2), ("0,1,2,3\n", 1), ("x,1,2\n", 1), ("1.0,1,2\n", 1),
        ("1_0,1,2\n", 1), ("# note\n0,1,2\n", 1),
        ("-1,0,0\n", 1), ("4,0,0\n", 1), ("0,-1,0\n", 1), ("0,3,0\n", 1),
        ("0,0,-1\n", 1), ("0,0,4\n", 1), ("0,1,2\n", 2)])
    def test_same_error(self, tmp_path, body, n):
        path = tmp_path / "bad.txt"
        path.write_text(HEADER.format(n=n, ns=4) + body)
        with pytest.raises(ValueError) as ours:
            read_dataset(path)
        with pytest.raises(ValueError) as ref:
            read_dataset_per_line(path)
        assert str(ours.value) == str(ref.value)

    @pytest.mark.parametrize("body, n, ns", [
        ("0,1,2\n\n3,2,1\n\n", 2, 4), (" 0 , 1 ,2 \n  3,2,1\t\n", 2, 4),
        ("0,1,2\n3,2,1", 2, 4), ("", 0, 4), ("\n\n", 0, 4),
        ("0,1,2\n   \n3,2,1\n", 2, 4), ("1_0,1,2\n", 1, 11)])
    def test_same_records(self, tmp_path, body, n, ns):
        path = tmp_path / "data.txt"
        path.write_text(HEADER.format(n=n, ns=ns) + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ours = read_dataset(path)
        ref = read_dataset_per_line(path)
        for column in ("states", "actions", "next_states"):
            a, b = getattr(ours, column), getattr(ref, column)
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert ours.meta == ref.meta
