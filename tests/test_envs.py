import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from softirl import envs, harness
from softirl import mdp as mdp_module
from softirl.envs import (
    _BLOCK,
    _TAIL,
    TOPOLOGIES,
    GridworldSpec,
    TransitionDataset,
    build_env,
    expert_policy,
    read_dataset,
    sample_transitions,
    write_dataset,
)
from softirl.harness import builtin_experiment
from softirl.mdp import TabularMdp, index_dtype, soft_value_iteration

from reference import (
    cold_build_env,
    dense_support_rows,
    read_dataset_per_line,
    shape,
    sup_norm,
    write_dataset_per_record,
)


def small_spec(**kw):
    defaults = dict(width=3, height=3, topology="torus", reward_kind="tabular-linear",
                    seed=5, min_action_prob=0.0)
    defaults.update(kw)
    return GridworldSpec(**defaults)


class TestBuildEnv:
    def test_torus_4x4_shape_and_determinism_of_kernel(self):
        mdp, r, phi = build_env(GridworldSpec(4, 4, topology="torus",
                                              reward_kind="linear", seed=0,
                                              min_action_prob=0.0))
        assert mdp.n_states == 16 and mdp.n_actions == 5
        # deterministic moves: every row is one-hot
        assert np.all(np.isin(mdp.transition, (0.0, 1.0)))
        assert r.shape == (16, 5)
        assert phi.shape[:2] == (16, 5)

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
        assert np.array_equal(f1, f2)

    def test_zero_size_grid_rejected(self):
        with pytest.raises(ValueError):
            build_env(small_spec(width=0))

    def test_tabular_features_are_one_hot(self):
        # None stands for one-hot features, each (s, a) cell its own; MaxEnt
        # reads it as np.eye(S * A) (test_maxent.TestOneHotFeatures)
        _, _, phi = build_env(small_spec())
        assert phi is None

    @pytest.mark.parametrize("reward_kind", ["linear", "tabular-linear", "nonlinear"])
    def test_features_are_read_only(self, reward_kind):
        _, _, phi = build_env(small_spec(reward_kind=reward_kind))
        if reward_kind == "tabular-linear":  # one-hot features have no table to write
            assert phi is None
            return
        assert not phi.flags.writeable
        with pytest.raises(ValueError):
            phi[0, 0, 0] = 1.0

    def test_min_action_prob_guard(self):
        # at REWARD_SCALE the least action probability is 0.0019: the reward is shrunk
        mdp, r, _ = build_env(small_spec(min_action_prob=0.05))
        pi = expert_policy(mdp, r)
        assert pi.min() >= 0.05

    @pytest.mark.parametrize("reward_kind", ["linear", "tabular-linear", "nonlinear"])
    def test_unit_reward_is_the_reward_before_scaling(self, reward_kind):
        # without a floor to meet, build_env keeps the reward at REWARD_SCALE
        spec = small_spec(reward_kind=reward_kind)
        unit, phi = envs._unit_reward(spec)
        assert np.max(np.abs(unit)) == 1.0
        _, r, built_phi = build_env(spec)
        assert np.array_equal(r, envs.REWARD_SCALE * unit)
        assert (phi is None and built_phi is None) or np.array_equal(phi, built_phi)

    def test_move_noise_spreads_mass(self):
        mdp, _, _ = build_env(small_spec(move_noise=0.2))
        assert np.max(mdp.transition) < 1.0
        assert_allclose(mdp.transition.sum(axis=2), 1.0, atol=1e-12)


def _packaged_spec(name):
    spec = builtin_experiment(name.split("-")[0]).env
    return replace(spec, move_noise=0.3) if name.endswith("-noisy") else spec


def _packaged_expert(name):
    """The packaged env's MDP and expert policy from `harness.truth`."""
    mdp, _, _, pi = harness.truth(_packaged_spec(name))
    return mdp, pi


def _value_iteration_rescale(spec):
    """r_true as build_env computed it with a soft value iteration per scale."""
    raw, _ = envs._unit_reward(spec)
    mdp, _, _ = build_env(replace(spec, min_action_prob=0.0))
    scale = envs.REWARD_SCALE
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


_PIN_SPECS = {f"{name}-{topology}-{noise}": replace(builtin_experiment(name).env,
                                                     topology=topology, move_noise=noise)
              for name in ("easy", "ident", "hard") for topology in TOPOLOGIES
              for noise in (0.0, 0.1, 0.3)}


class TestMatchesColdRescale:
    """`build_env` fills the kernel with one assignment and one `+=` per slip
    action, and starts each scale's Newton solve from the last scale's v
    times 0.9; `cold_build_env` fills it cell by cell and starts every solve
    from v = 0. The two solves' pi differ by about 1e-10 at tol 1e-9, so a
    pass/fail decision, and with it every byte, holds while it lies further
    than that from min_action_prob.

    Measured: the smallest such gap is 6.3e-4 on the packaged specs and
    7.0e-5 over these 18 (easy, torus, move_noise 0.3). Newton steps, cold
    to warm: easy 32 -> 24, ident 66 -> 45, hard 51 -> 34 as packaged, and
    741 -> 522 over the 18.
    """

    @pytest.mark.parametrize("key", list(_PIN_SPECS))
    def test_same_bytes_in_fewer_newton_steps(self, key, monkeypatch):
        spec, steps = _PIN_SPECS[key], []
        solve = mdp_module._solve_discounted  # one call per Newton step
        monkeypatch.setattr(mdp_module, "_solve_discounted",
                            lambda *args: steps.append(key) or solve(*args))
        got = build_env(spec)
        warm = len(steps)
        *want, gaps = cold_build_env(spec)
        tables = list(zip((got[0].transition, got[1]), want[:2]))
        if spec.reward_kind == "tabular-linear":  # one-hot features: None on both sides
            assert got[2] is None and want[2] is None
        else:
            tables.append((got[2], want[2]))
        for g, w in tables:
            assert g.shape == w.shape and g.tobytes() == w.tobytes()
        assert warm < len(steps) - warm
        assert min(gaps) > 1e-6


class TestTruth:
    @pytest.mark.parametrize("spec", [
        *(_packaged_spec(name) for name in ("easy", "ident", "hard")),
        small_spec(move_noise=0.2, min_action_prob=0.05),
    ], ids=["easy", "ident", "hard", "move-noise-0.2"])
    def test_matches_a_fresh_build_and_solve(self, spec):
        harness.truth.cache_clear()
        got = harness.truth(spec)
        mdp, r_true, phi = build_env(spec)
        assert len(got) == 4 and got[0].gamma == mdp.gamma
        tables = [(got[0].transition, mdp.transition), (got[1], r_true),
                  (got[3], expert_policy(mdp, r_true))]
        if spec.reward_kind == "tabular-linear":  # one-hot features: None from both
            assert got[2] is None and phi is None
        else:
            tables.append((got[2], phi))
        for g, w in tables:
            assert np.array_equal(g, w)

    def test_arrays_are_read_only(self):
        mdp, r_true, phi, pi = harness.truth(small_spec())
        assert phi is None  # tabular-linear: one-hot features have no table
        tables = [mdp.transition, mdp._targets, r_true, pi,
                  harness.truth(small_spec(reward_kind="linear"))[2]]
        for table in tables:
            with pytest.raises(ValueError):
                table[0, 0] = 1.0

    def test_equal_specs_build_once(self, monkeypatch):
        builds = []
        monkeypatch.setattr(harness, "build_env",
                            lambda spec: builds.append(spec) or build_env(spec))
        harness.truth.cache_clear()
        first = harness.truth(small_spec(seed=6))
        assert harness.truth(small_spec(seed=6)) is first
        assert len(builds) == 1
        harness.truth(small_spec(seed=7))
        assert harness.truth(small_spec(seed=6)) is not first  # one entry is kept
        assert len(builds) == 3

    def test_a_failed_build_is_not_kept(self, monkeypatch):
        builds = []
        monkeypatch.setattr(harness, "build_env",
                            lambda spec: builds.append(spec) or build_env(spec))
        harness.truth.cache_clear()
        spec = small_spec(min_action_prob=0.19999)  # the rescale cannot lift pi that far
        for calls in (1, 2):
            with pytest.raises(RuntimeError, match="could not satisfy min_action_prob"):
                harness.truth(spec)
            assert len(builds) == calls


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
        # always-toggle policy on a deterministic 2-state chain: the first
        # state is drawn, then the chain alternates
        from conftest import toggle_mdp

        mdp = toggle_mdp()
        pi = np.zeros((2, 2))
        pi[:, 1] = 1.0
        ds = sample_transitions(mdp, pi, 6, regime="trajectory", seed=0)
        first = ds.states[0]
        assert_allclose(ds.states, [first, 1 - first] * 3)
        assert_allclose(ds.next_states, 1 - ds.states)

    def test_same_seed_identical(self):
        mdp, r, _ = build_env(small_spec())
        pi = expert_policy(mdp, r)
        d1 = sample_transitions(mdp, pi, 500, seed=9)
        d2 = sample_transitions(mdp, pi, 500, seed=9)
        assert np.array_equal(d1.states, d2.states)
        assert np.array_equal(d1.actions, d2.actions)
        assert np.array_equal(d1.next_states, d2.next_states)

    def test_unknown_regime_rejected(self):
        mdp, r, _ = build_env(small_spec())
        with pytest.raises(ValueError, match="^unknown sampling regime 'chain'$"):
            sample_transitions(mdp, expert_policy(mdp, r), 10, regime="chain", seed=0)

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
        # every move enters state 2 and stays: the trajectory never leaves it
        # after its first record, while restarts revisit states 0 and 1
        mdp = TabularMdp(np.tile(np.eye(3)[2], (3, 2, 1)), 0.9)
        pi = np.full((3, 2), 0.5)
        chain = sample_transitions(mdp, pi, 4000, regime="trajectory", seed=2)
        assert np.all(chain.states[1:] == 2)
        ds = sample_transitions(mdp, pi, 4000, regime="iid-restart", seed=2)
        for s in (0, 1):
            assert np.mean(ds.states == s) > 0.01  # about (1 - gamma) / 3

    @pytest.mark.parametrize("kernel", ["one-hot", "stochastic"])
    def test_restarts_land_uniformly(self, kernel):
        # every move enters state 0 (one-hot) or one of states 0 and 1 at
        # even odds (stochastic), so a later record holds a state s >= 2 only
        # where it restarts, with probability (1 - gamma) / S each
        n_states, n, gamma = 6, 20_000, 0.9
        row = np.eye(n_states)[0] if kernel == "one-hot" else np.r_[0.5, 0.5, np.zeros(4)]
        mdp = TabularMdp(np.tile(row, (n_states, 2, 1)), gamma)
        assert (mdp._targets is not None) == (kernel == "one-hot")
        ds = sample_transitions(mdp, np.full((n_states, 2), 0.5), n, seed=3)
        p = (1 - gamma) / n_states
        for s in range(2, n_states):
            count = np.sum(ds.states[1:] == s)
            assert abs(count - (n - 1) * p) <= 4 * np.sqrt((n - 1) * p * (1 - p))

    @pytest.mark.parametrize("regime", ["iid-restart", "trajectory"])
    def test_the_first_state_is_uniform(self, regime):
        mdp = TabularMdp(np.tile(np.eye(4)[0], (4, 2, 1)), 0.9)
        pi = np.full((4, 2), 0.5)
        seeds = 2000
        firsts = [sample_transitions(mdp, pi, 1, regime=regime, seed=seed).states[0]
                  for seed in range(seeds)]
        counts = np.bincount(firsts, minlength=4)
        assert np.all(np.abs(counts - seeds / 4) <= 4 * np.sqrt(seeds * 0.25 * 0.75))

    def test_n_must_be_positive(self):
        mdp, r, _ = build_env(small_spec())
        with pytest.raises(ValueError):
            sample_transitions(mdp, expert_policy(mdp, r), 0)


def _loop_reference(mdp, pi, n, regime, seed):
    """The per-record searchsorted sampler the block-wise one must reproduce;
    it draws the first state and every restart uniformly."""
    rng = np.random.default_rng(seed)
    u = rng.random((n, 3))
    init_cdf = np.cumsum(np.full(mdp.n_states, 1.0 / mdp.n_states))
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


def _segments(n, gamma, seed):
    """Lengths of the restart segments the sampler walks for this seed."""
    u2 = np.random.default_rng(seed).random((n, 3))[:, 2]
    return np.diff(np.flatnonzero(np.append(True, u2[1:] >= gamma)), append=n)


def _assert_matches_reference(mdp, pi, n, regime, seed):
    ds = sample_transitions(mdp, pi, n, regime=regime, seed=seed)
    want = _loop_reference(mdp, pi, n, regime, seed)
    for got, ref in zip((ds.states, ds.actions, ds.next_states), want):
        assert got.dtype == index_dtype(mdp.n_states, mdp.n_actions)
        assert np.array_equal(got, ref)


class TestSamplerMatchesLoopReference:
    @staticmethod
    def _check(name, n, regime, seed=7, gamma=None):
        mdp, r_true, _ = build_env(_packaged_spec(name))
        pi = expert_policy(mdp, r_true)
        if gamma is not None:
            mdp = TabularMdp(mdp.transition, gamma)
        _assert_matches_reference(mdp, pi, n, regime, seed)

    @pytest.mark.parametrize("regime", ["iid-restart", "trajectory"])
    @pytest.mark.parametrize("name", ["easy", "ident", "hard", "ident-noisy"])
    def test_several_blocks(self, name, regime):
        self._check(name, 3 * _BLOCK + 7, regime)

    @pytest.mark.parametrize("regime", ["iid-restart", "trajectory"])
    @pytest.mark.parametrize("n", [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1])
    def test_block_edges(self, n, regime):
        self._check("ident", n, regime, seed=n)

    @pytest.mark.parametrize("regime", ["iid-restart", "trajectory"])
    def test_clamps_rows_just_under_one(self, monkeypatch, regime):
        # Ten masses of 0.1 sum to 1 - 2**-53, so a uniform of 1 - 2**-53
        # lies past every CDF entry; the stream of uniforms is replayed so
        # that such draws hit the first record, a restart and later records.
        # With two zero-mass states after the ten, such a draw lands on the
        # last, zero-mass state, as the clamped per-record search does; the
        # uniform first state and restarts land on the last state too.
        n, top = 3 * _BLOCK + 7, np.nextafter(1.0, 0.0)
        tenth = np.full(10, 0.1)
        assert np.cumsum(tenth)[-1] == top
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
        pi = np.tile(tenth, (12, 1))
        for row in (tenth, np.append(tenth, [0.0, 0.0])):
            n_states = len(row)
            mdp = TabularMdp(np.tile(row, (n_states, 10, 1)), 0.5)
            ds = sample_transitions(mdp, pi[:n_states], n, regime=regime)
            want = _loop_reference(mdp, pi[:n_states], n, regime, 0)
            last = n_states - 1
            assert ds.states[0] == last and ds.actions[0] == 9 and ds.next_states[0] == last
            for got, ref in zip((ds.states, ds.actions, ds.next_states), want):
                assert np.array_equal(got, ref)

    @pytest.mark.parametrize("name", ["ident", "ident-noisy"])
    def test_long_segments_reach_the_tail(self, name):
        # at gamma = 0.999 some segments outlive the lockstep walk by more
        # than a block, so the record-by-record finish crosses block edges
        n, seed = 40_000, 5
        lengths = np.sort(_segments(n, 0.999, seed))[::-1]
        assert len(lengths) >= _TAIL and lengths[0] - lengths[_TAIL - 1] > _BLOCK
        self._check(name, n, "iid-restart", seed=seed, gamma=0.999)

    @pytest.mark.parametrize("name", ["ident", "ident-noisy"])
    @pytest.mark.parametrize("lanes", [7, _TAIL, 50])
    def test_more_segments_than_the_lane_cap(self, monkeypatch, lanes, name):
        monkeypatch.setattr(envs, "_LANES", lanes)
        assert len(_segments(3 * _BLOCK + 7, 0.97, 7)) > 3 * lanes
        self._check(name, 3 * _BLOCK + 7, "iid-restart")

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_live_segments_at_the_tail_threshold(self, offset):
        # gamma is set so that exactly _TAIL + offset segments start
        n, seed, count = 3 * _BLOCK + 7, 11, _TAIL + offset
        u2 = np.sort(np.random.default_rng(seed).random((n, 3))[1:, 2])
        gamma = float(u2[-(count - 1)])
        assert len(_segments(n, gamma, seed)) == count
        self._check("ident", n, "iid-restart", seed=seed, gamma=gamma)

    @pytest.mark.parametrize("regime", ["iid-restart", "trajectory"])
    def test_dense_random_kernel(self, regime):
        # every next state has mass, so the cut rows keep all S columns
        rng = np.random.default_rng(8)
        n_states, n_actions = 64, 5
        mdp = TabularMdp(rng.dirichlet(np.ones(n_states), size=(n_states, n_actions)), 0.97)
        assert np.all(mdp.transition > 0)
        pi = rng.dirichlet(np.ones(n_actions), size=n_states)
        _assert_matches_reference(mdp, pi, 3 * _BLOCK + 7, regime, seed=4)

    @pytest.mark.parametrize("regime", ["iid-restart", "trajectory"])
    def test_random_one_hot_kernel_not_onto(self, regime):
        # each move reaches one random state of a subset that holds the last
        # state (whose cut row is [+inf]) and misses states 0, 3, 5, 6, 8, 10
        rng = np.random.default_rng(6)
        n_states, n_actions = 12, 3
        targets = rng.choice([1, 2, 4, 7, 9, 11], size=(n_states, n_actions))
        mdp = TabularMdp(np.eye(n_states)[targets], 0.97)
        assert mdp._targets is not None and not mdp._onto
        pi = rng.dirichlet(np.ones(n_actions), size=n_states)
        _assert_matches_reference(mdp, pi, 3 * _BLOCK + 7, regime, seed=9)

    @pytest.mark.parametrize("regime", ["iid-restart", "trajectory"])
    def test_one_state_kernel(self, regime):
        # every cut row is [+inf]: the cut tables are one column wide
        mdp = TabularMdp(np.ones((1, 3, 1)), 0.97)
        pi = np.array([[0.2, 0.5, 0.3]])
        _assert_matches_reference(mdp, pi, 3 * _BLOCK + 7, regime, seed=10)

    @pytest.mark.parametrize("regime", ["iid-restart", "trajectory"])
    @pytest.mark.parametrize("name", ["ident", "ident-noisy"])
    @pytest.mark.parametrize("chunk", [1, 7, _BLOCK])
    def test_uniforms_drawn_in_chunks(self, monkeypatch, chunk, name, regime):
        # successive draws of `chunk` rows continue the one (n, 3) stream, and
        # a restart at a chunk's first row is found there
        monkeypatch.setattr(envs, "_CHUNK", chunk)
        self._check(name, 3 * _BLOCK + 7, regime, seed=chunk)


def _zero_last_column_kernel():
    """A random kernel whose first and last next states have no mass."""
    rng = np.random.default_rng(2)
    mass = rng.dirichlet(np.ones(5), size=(7, 3)) * (rng.random((7, 3, 5)) < 0.6)
    mass[..., 2] += 1e-3  # every row keeps some mass
    return np.pad(mass / mass.sum(axis=-1, keepdims=True), ((0, 0), (0, 0), (1, 1)))


class TestSupportRows:
    """`_support_rows` from the kernel's nonzeros against the dense CDF cut
    (`reference.dense_support_rows`): the same CDF bits, the same indices at
    every kept position (the support and the last index), the same records."""

    @pytest.mark.parametrize("kernel", ["one-hot", "noise-0.2", "noise-0.3", "one-state",
                                        "zero-last-column"])
    def test_matches_the_dense_cut(self, kernel, monkeypatch):
        if kernel == "one-state":
            transition = np.ones((1, 3, 1))
        elif kernel == "zero-last-column":
            transition = _zero_last_column_kernel()
        else:
            noise = float(kernel.split("-")[1]) if kernel != "one-hot" else 0.0
            transition = build_env(replace(_packaged_spec("ident"),
                                           move_noise=noise))[0].transition
        mdp = TabularMdp(transition, 0.9)
        got, want = envs._support_rows(mdp.transition), dense_support_rows(mdp.transition)
        assert got[0].shape == want[0].shape and got[0].tobytes() == want[0].tobytes()
        kept = np.arange(want[0].shape[-1]) <= np.isfinite(want[0]).sum(axis=-1)[..., None]
        assert got[1].dtype == want[1].dtype and np.array_equal(got[1][kept], want[1][kept])
        if kernel == "zero-last-column":
            assert not transition[..., -1].any() and not transition[..., 0].any()
            assert np.isfinite(want[0]).sum(axis=-1).min() < want[0].shape[-1] - 1  # padding

        rng = np.random.default_rng(3)
        pi = rng.dirichlet(np.ones(mdp.n_actions), size=mdp.n_states)
        ds = sample_transitions(mdp, pi, 3 * _BLOCK + 7, seed=5)
        monkeypatch.setattr(envs, "_support_rows", dense_support_rows)
        ref = sample_transitions(mdp, pi, 3 * _BLOCK + 7, seed=5)
        for g, w in zip((ds.states, ds.actions, ds.next_states),
                        (ref.states, ref.actions, ref.next_states)):
            assert np.array_equal(g, w)


def _crowded_cdf():
    """A uint8-coded CDF table with rows sharing breakpoints, four in one
    bucket of `_rank_code`, entries 0.0, 1.0 and over, and +inf padding."""
    eps = 1e-9  # far under a bucket's width, 1 / _Q
    assert int((0.1 + 3 * eps) * envs._Q) == int(0.1 * envs._Q)
    return np.array([[0.0, 0.25, 0.5, 0.75, np.inf],
                     [0.25, 0.5, 0.5 + eps, 1.0, np.inf],  # shares 0.25 and 0.5
                     [0.1, 0.1 + eps, 0.1 + 2 * eps, 0.1 + 3 * eps, np.inf],  # one bucket
                     [0.0, 0.0, 1.0, 1.0 + 2 ** -52, np.inf],  # 1 and over, past every u
                     [0.3, 0.6, np.inf, np.inf, np.inf]])


def _uint16_cdf():
    """A CDF table of 452 distinct breakpoints, each row's also in another row."""
    rng = np.random.default_rng(1)
    cdf = np.cumsum(rng.dirichlet(np.ones(4), size=150), axis=1)
    cdf[:, -1] = np.inf
    cdf = np.concatenate([cdf, cdf[::-1], np.full((1, 4), np.inf)])
    cdf[-1, :2] = 0.0, 1.0 - 2.0 ** -53
    return cdf


class TestRankCode:
    """A right-sided search of the uniforms' ranks in a row's ranks gives
    the index that the search of the uniforms in the CDF row gives."""

    @staticmethod
    def _check(cdf, u, dtype):
        ranks, code_dtype, rank = envs._rank_code(cdf)
        codes = rank(u)
        assert codes.dtype == code_dtype == dtype
        for row, coded in zip(cdf, ranks):
            assert np.array_equal(np.searchsorted(coded, codes, side="right"),
                                  np.searchsorted(row, u, side="right"))

    @staticmethod
    def _uniforms(cdf, seed):
        """Random uniforms, every finite entry under 1 and its two neighbours,
        0.0 and the largest uniform, 1 - 2**-53."""
        points = cdf[np.isfinite(cdf) & (cdf < 1.0)]
        near = np.concatenate([points, np.nextafter(points, 0.0), np.nextafter(points, 1.0)])
        top = np.nextafter(1.0, 0.0)
        assert top == 1.0 - 2.0 ** -53
        return np.concatenate([np.random.default_rng(seed).random(5000), near[near < 1.0],
                               [0.0, top]])

    def test_uint8_rows_with_shared_and_crowded_breakpoints(self):
        cdf = _crowded_cdf()
        self._check(cdf, self._uniforms(cdf, 0), np.uint8)

    def test_uint16_rows(self):
        cdf = _uint16_cdf()
        self._check(cdf, self._uniforms(cdf, 2), np.uint16)

    def test_a_table_without_finite_entries(self):
        cdf = np.full((2, 1), np.inf)
        self._check(cdf, self._uniforms(cdf, 3), np.uint8)


class TestDecodeTable:
    """Row r of a `_decode_table` holds, at each code c from 0 to B, the
    value at the right-sided search of c in the row's ranks: the entry
    `_count_at_most` picks for a uniform of rank c."""

    @staticmethod
    def _check(cdf, values):
        ranks = envs._rank_code(cdf)[0].reshape(-1, cdf.shape[-1])
        table = envs._decode_table(ranks, values)
        assert table.dtype == values.dtype
        values = np.resize(values, ranks.shape)  # one row of values serves every row
        table = table.reshape(len(ranks), -1)
        codes = np.arange(ranks.max())  # 0 to B; +inf ranks B + 1
        assert table.shape[1] == len(codes)
        for row, coded, value in zip(table, ranks, values):
            assert np.array_equal(row, value[np.searchsorted(coded, codes, side="right")])

    @pytest.mark.parametrize("cdf", [_crowded_cdf(), _uint16_cdf(), np.full((2, 1), np.inf)],
                             ids=["uint8", "uint16", "no-finite-entry"])
    def test_actions_on_the_rank_code_tables(self, cdf):
        self._check(cdf, np.arange(cdf.shape[1], dtype=np.int8))

    def test_one_hot_steps_on_ident(self):
        mdp, pi = _packaged_expert("ident")
        cdf = np.cumsum(pi, axis=1)
        cdf[:, -1] = np.inf
        self._check(cdf, mdp._targets.astype(np.int8))

    @pytest.mark.parametrize("kernel", ["ident-noisy", "zero-last-column"])
    def test_moves_on_the_cut_kernel_rows(self, kernel):
        transition = (_zero_last_column_kernel() if kernel == "zero-last-column"
                      else build_env(_packaged_spec(kernel))[0].transition)
        cdf, idx = envs._support_rows(transition)
        self._check(cdf, idx.astype(index_dtype(len(transition), transition.shape[1])))


def _spy_decode_tables(monkeypatch):
    """The sizes of the `_decode_table`s that the sampler builds from now on."""
    sizes, build = [], envs._decode_table

    def spy(ranks, values):
        table = build(ranks, values)
        sizes.append(table.size)
        return table

    monkeypatch.setattr(envs, "_decode_table", spy)
    return sizes


class TestSamplerDecodesByTable:
    """Draws whose decode tables hold no more entries than they have
    records read actions and next states from the tables, and match the
    loop reference; one record fewer than the entries counts instead."""

    @pytest.mark.parametrize("regime", ["iid-restart", "trajectory"])
    @pytest.mark.parametrize("kernel", ["ident", "ident-noisy", "dense-random",
                                        "random-one-hot-not-onto"])
    def test_matches_the_loop_reference(self, monkeypatch, kernel, regime):
        rng = np.random.default_rng(8)
        if kernel.startswith("ident"):
            mdp, pi = _packaged_expert(kernel)
        elif kernel == "dense-random":  # at most 30 x 271 move and 10 x 21 action entries
            mdp = TabularMdp(rng.dirichlet(np.ones(10), size=(10, 3)), 0.97)
            assert np.all(mdp.transition > 0)
            pi = rng.dirichlet(np.ones(3), size=10)
        else:
            targets = rng.choice([1, 2, 4, 7, 9, 11], size=(12, 3))
            mdp = TabularMdp(np.eye(12)[targets], 0.97)
            assert mdp._targets is not None and not mdp._onto
            pi = rng.dirichlet(np.ones(3), size=12)
        sizes = _spy_decode_tables(monkeypatch)
        _assert_matches_reference(mdp, pi, 40_000, regime, seed=4)
        assert len(sizes) == 2 and sum(sizes) <= 40_000

    @pytest.mark.parametrize("offset", [-1, 0])
    def test_at_the_threshold(self, monkeypatch, offset):
        mdp, pi = _packaged_expert("ident")
        sizes = _spy_decode_tables(monkeypatch)
        sample_transitions(mdp, pi, 100_000, seed=1)
        entries = sum(sizes)
        assert entries == 2 * 64 * 257  # two tables of 64 states by 256 breakpoints + 1
        sizes.clear()
        _assert_matches_reference(mdp, pi, entries + offset, "iid-restart", seed=2)
        assert sum(sizes) == (entries if offset == 0 else 0)

    def test_keys_are_widened_before_they_pass_int16(self, monkeypatch):
        # 200 states give int16 records, and pi's 200 breakpoints make
        # s * (B + 1) reach 199 * 201 = 39,999, past int16's 32,767
        rng = np.random.default_rng(12)
        mdp = TabularMdp(np.eye(200)[rng.integers(0, 200, size=(200, 2))], 0.97)
        pi = np.column_stack([np.linspace(0.2, 0.8, 200), np.linspace(0.8, 0.2, 200)])
        assert index_dtype(200, 2) == np.int16
        sizes = _spy_decode_tables(monkeypatch)
        _assert_matches_reference(mdp, pi, 2 * 200 * 201, "iid-restart", seed=3)
        assert sizes == [200 * 201] * 2


@pytest.mark.parametrize("move_noise", [0.0, 0.3], ids=["one-hot", "stochastic"])
def test_a_first_draw_imports_nothing(move_noise):
    # np.unique imports numpy.ma on its first call, a cost every fresh interpreter pays
    code = ("import sys\n"
            "from softirl.envs import GridworldSpec, build_env, expert_policy, "
            "sample_transitions\n"
            f"mdp, r, _ = build_env(GridworldSpec(4, 4, move_noise={move_noise}))\n"
            "pi = expert_policy(mdp, r)\n"
            "before = set(sys.modules)\n"
            "sample_transitions(mdp, pi, 5000, seed=1)\n"
            "print(sorted(set(sys.modules) - before))")
    src = os.path.dirname(os.path.dirname(envs.__file__))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout.strip() == "[]"


class TestSamplerMemory:
    """The sampler keeps the records in int8 on ident, the ranks of the
    action uniforms in uint16 and those of the move uniforms in uint8 only on
    stochastic kernels (the column test below counts their bytes), and draws
    the uniforms `_CHUNK` rows at a time. The bound adds one byte a record
    for the restart segments' tables and 1 MiB for what does not grow with
    n: one chunk of uniforms and its rank temporaries, the rank and decode
    tables, the CDF rows as lists and the lockstep lanes (`BENCH_42.json`)."""

    @pytest.mark.parametrize("name, per_record", [("ident", 6), ("ident-noisy", 7)],
                             ids=["ident", "ident-noisy"])
    def test_peak_traced_allocation(self, name, per_record):
        mdp, r_true, _ = build_env(_packaged_spec(name))
        pi = expert_policy(mdp, r_true)
        n = 200_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            sample_transitions(mdp, pi, n, seed=1)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= per_record * n + 2 ** 20

    @pytest.mark.parametrize("name, per_record", [("ident", 3 + 2), ("ident-noisy", 3 + 2 + 1)],
                             ids=["ident", "ident-noisy"])
    def test_the_walk_columns_bytes_a_record(self, monkeypatch, name, per_record):
        """The walk's columns take the bytes a record the class names: three
        int8 record columns, uint16 action ranks and, on a stochastic kernel,
        uint8 move ranks."""
        mdp, pi = _packaged_expert(name)
        kept, walk = [], envs._walk

        def spy(records, starts, first, pi_cdf, u_act, u_move, *tables):
            kept.extend(c for c in (records, u_act, u_move) if c is not None)
            return walk(records, starts, first, pi_cdf, u_act, u_move, *tables)

        monkeypatch.setattr(envs, "_walk", spy)
        n = 1_000
        sample_transitions(mdp, pi, n, seed=1)
        assert sum(c.nbytes for c in kept) == per_record * n


class TestReaderMemory:
    """`read_dataset` parses the body in place in the bytes it read, so its
    peak is the file, the columns and one chunk's temporaries, which the
    512 KiB allowance holds. Splitting the body off the header, or appending
    a missing last newline, copied it: a peak of twice the file, past the
    bound. A chunk holding a "\\r" is copied to end its lines with "\\n", so
    CR and CRLF files stay inside it too, where mapping the whole file did not."""

    @staticmethod
    def _check(path):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            back = read_dataset(path)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        columns = sum(c.nbytes for c in (back.states, back.actions, back.next_states))
        assert peak <= path.stat().st_size + columns + 2 ** 19
        return back

    @staticmethod
    def _write(tmp_path):
        mdp, pi = _packaged_expert("ident")
        path = tmp_path / "data.txt"
        write_dataset(sample_transitions(mdp, pi, 200_000, seed=1), path)
        return path

    def test_peak_traced_allocation(self, tmp_path):
        self._check(self._write(tmp_path))

    def test_a_missing_last_newline_keeps_the_bound(self, tmp_path):
        path = self._write(tmp_path)
        path.write_bytes(path.read_bytes()[:-1])
        self._check(path)

    @pytest.mark.parametrize("end", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_cr_line_ends_keep_the_bound(self, tmp_path, end):
        path = self._write(tmp_path)
        want = read_dataset(path)
        path.write_bytes(path.read_bytes().replace(b"\n", end))
        back = self._check(path)
        for column in ("states", "actions", "next_states"):
            assert np.array_equal(getattr(back, column), getattr(want, column))


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

    @pytest.mark.parametrize("line, message", [
        ("300,1,2", "state index out of range [0, 64)"),
        ("256,1,2", "state index out of range [0, 64)"),
        ("0,1,300", "next state index out of range [0, 64)"),
        ("0,200,1", "action index out of range [0, 120)"),
    ])
    def test_an_index_past_the_narrow_dtype_does_not_wrap(self, tmp_path, line, message):
        # 120 actions give 3-digit fields and int8 columns, where 300 would wrap
        # to 44 and 256 to 0, both states in range
        assert index_dtype(64, 120) == np.int8
        path = tmp_path / "wide.txt"
        path.write_text("# transitions seed=0 env=- n=3 n_states=64 n_actions=120 "
                        f"regime=trajectory\n0,1,2\n{line}\n3,4,5\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:3: {message}')}$"):
            read_dataset(path)

    def test_non_integer_header_value_reports_line(self, tmp_path):
        path = tmp_path / "badhdr.txt"
        path.write_text("# transitions seed=0 env=- n=x n_states=4 n_actions=5 regime=trajectory\n"
                        "0,1,2\n")
        with pytest.raises(ValueError, match=r":1: non-integer header value 'n=x'"):
            read_dataset(path)

    @pytest.mark.parametrize("header, message", [
        ("seed=0 env=- n=1 n_states=4 n_actions=5 trajectory",
         ":1: malformed header token 'trajectory'"),
        ("seed=0 env=- n=1 n_states=4 regime=trajectory", ":1: header missing n_actions"),
        # write_dataset never writes an empty env or regime value, so the reader refuses one
        ("seed=0 env= n=1 n_states=4 n_actions=5 regime=trajectory",
         ":1: empty header value 'env='"),
        ("seed=0 env=- n=1 n_states=4 n_actions=5 regime=", ":1: empty header value 'regime='"),
    ], ids=["token-without-equals", "missing-key", "empty-env", "empty-regime"])
    def test_a_bad_header_names_its_defect(self, tmp_path, header, message):
        """Both readers, the package's and the per-line reference, refuse it alike."""
        path = tmp_path / "hdr.txt"
        path.write_text(f"# transitions {header}\n0,1,2\n")
        for reader in (read_dataset, read_dataset_per_line):
            with pytest.raises(ValueError, match=f"^{re.escape(str(path) + message)}$"):
                reader(path)

    @pytest.mark.parametrize("meta, message", [
        ({"env": "toy", "n": 5}, "meta n=5 != 3 records"),
        ({"env": "toy run"}, "env id must not be empty or contain whitespace: 'toy run'"),
        ({"regime": "iid restart"},
         "regime must not be empty or contain whitespace: 'iid restart'"),
        ({"regime": ""}, "regime must not be empty or contain whitespace: ''"),
        ({"seed": "x"}, "meta seed must be an integer, got 'x'"),
        ({"seed": 1.5}, "meta seed must be an integer, got 1.5"),
        ({"seed": True}, "meta seed must be an integer, got True"),
        ({"n_states": np.float64(4.0)}, "meta n_states must be an integer, got np.float64(4.0)"),
    ], ids=["meta-n", "env-with-space", "regime-with-space", "empty-regime", "string-seed",
            "float-seed", "bool-seed", "float-n_states"])
    def test_write_rejects_a_bad_meta(self, tmp_path, meta, message):
        ds = TransitionDataset(np.array([0, 1, 2]), np.array([1, 0, 3]), np.array([2, 2, 0]),
                               meta={"n_states": 4, "n_actions": 5, **meta})
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            write_dataset(ds, tmp_path / "data.txt")
        assert not (tmp_path / "data.txt").exists()

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


class TestWriterMatchesPerRecordReference:
    """`write_dataset`, which formats each index once and joins a block's
    pieces, against one `%` per record."""

    @staticmethod
    def _dataset(case):
        if case == "distinct":  # almost every record of a block distinct, 1- to 4-digit fields
            rng = np.random.default_rng(5)
            n = 2 * _BLOCK + 7
            return TransitionDataset(rng.integers(0, 5000, n), rng.integers(0, 5, n),
                                     rng.integers(0, 5000, n),
                                     {"n_states": 5000, "n_actions": 5, "n": n, "seed": 0,
                                      "env": "random", "regime": "iid-restart"})
        # the 2 x 1 grid has fewer states than actions
        shape, n = {"n-1": ((4, 4), 1), "blocks": ((4, 4), 3 * _BLOCK + 5),
                    "two-states": ((2, 1), 600)}[case]
        mdp, r_true, _ = build_env(GridworldSpec(*shape, topology="torus", seed=3,
                                                 min_action_prob=0.05, move_noise=0.3))
        return sample_transitions(mdp, expert_policy(mdp, r_true), n, seed=2, env_id="noisy")

    @pytest.mark.parametrize("case", ["n-1", "blocks", "two-states", "distinct"])
    def test_same_bytes_and_round_trip(self, tmp_path, case):
        ds = self._dataset(case)
        ours, ref = tmp_path / "ours.txt", tmp_path / "ref.txt"
        write_dataset(ds, ours)
        write_dataset_per_record(ds, ref)
        assert ours.read_bytes() == ref.read_bytes()
        for path in (ours, ref):
            back = read_dataset(path)
            for column in ("states", "actions", "next_states"):
                assert np.array_equal(getattr(back, column), getattr(ds, column))
            assert back.meta == ds.meta

    @pytest.mark.parametrize("n_states", [64, 200])
    def test_narrow_columns_write_the_same_bytes(self, tmp_path, n_states):
        # at 64 states an int8 s * A would wrap past 127 into another cell's text
        n = 2 * _BLOCK + 7
        rng = np.random.default_rng(n_states)
        wide = rng.integers(0, n_states, n), rng.integers(0, 5, n), rng.integers(0, n_states, n)
        meta = {"n_states": n_states, "n_actions": 5, "n": n}
        write_dataset(TransitionDataset(*wide, meta), tmp_path / "int64.txt")
        want = (tmp_path / "int64.txt").read_bytes()
        dtypes = [np.int8, np.int16] if n_states <= 128 else [np.int16]
        for dtype in dtypes:
            path = tmp_path / f"{np.dtype(dtype)}.txt"
            write_dataset(TransitionDataset(*(c.astype(dtype) for c in wide), meta), path)
            assert path.read_bytes() == want
        back = read_dataset(tmp_path / "int64.txt")
        for column, c in zip((back.states, back.actions, back.next_states), wide):
            assert column.dtype == dtypes[0] and np.array_equal(column, c)


HEADER = "# transitions seed=0 env=- n={n} n_states={ns} n_actions=3 regime=trajectory\n"


def _digit_lines(n_states, n):
    """n records of three actions whose state fields take every width from 1
    to the largest index's."""
    fields = np.random.default_rng(0).integers(0, n_states, size=(n, 3))
    fields[:, 1] %= 3
    fields[:4, ::2] = np.minimum([[0, 7], [42, 999], [n_states - 1, 10], [100, 1]], n_states - 1)
    return [f"{s},{a},{s2}" for s, a, s2 in fields.tolist()]


class TestReaderMatchesPerLineReference:
    """`read_dataset`, which takes `write_dataset`'s grammar only, against the
    per-line reader, which also takes blank lines, spaces, signs and
    underscores: the same records on a body in the grammar, and otherwise an
    error naming the first line out of it, or holding an index out of range."""

    @pytest.mark.parametrize("body, n", [
        ("0,1,2\n0,1\n", 2), ("0,1,2,3\n", 1), ("x,1,2\n", 1), ("1.0,1,2\n", 1),
        ("1_0,1,2\n", 1), ("# note\n0,1,2\n", 1),
        ("-1,0,0\n", 1), ("4,0,0\n", 1), ("0,-1,0\n", 1), ("0,3,0\n", 1),
        ("0,0,-1\n", 1), ("0,0,4\n", 1), ("0,1,2\n", 2),
        ("0,3,0\n4,0,0\n", 2)])  # the first bad record, not the first bad column
    def test_same_error(self, tmp_path, body, n):
        """Both readers reject these, naming the same path and line."""
        path = tmp_path / "bad.txt"
        path.write_text(HEADER.format(n=n, ns=4) + body)
        with pytest.raises(ValueError) as ref:
            read_dataset_per_line(path)
        where = re.match(rf"{re.escape(str(path))}(:\d+)?: ", str(ref.value)).group()
        with pytest.raises(ValueError, match=f"^{re.escape(where)}"):
            read_dataset(path)

    @pytest.mark.parametrize("body, n, ns", [
        ("0,1,2\n\n3,2,1\n\n", 2, 4), (" 0 , 1 ,2 \n  3,2,1\t\n", 2, 4),
        ("0,1,2\n3,2,1", 2, 4), ("", 0, 4), ("\n\n", 0, 4),
        ("0,1,2\n   \n3,2,1\n", 2, 4), ("1_0,1,2\n", 1, 11)])
    def test_same_records(self, tmp_path, body, n, ns):
        """The per-line reader reads each body; `read_dataset` reads the same
        records, or names the first blank, spaced or `1_0` line."""
        path = tmp_path / "data.txt"
        path.write_text(HEADER.format(n=n, ns=ns) + body)
        read_dataset_per_line(path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _assert_agrees(path)

    # (name, n_states, body): bodies in write_dataset's grammar, and bodies out
    # of it that the per-line reader reads (signs, underscores, blank lines,
    # zeros past the width) or rejects
    CASES = {
        "blocks-1-to-4-digits": (5000, "\n".join(_digit_lines(5000, 3 * _BLOCK + 7)) + "\n"),
        "blocks-no-last-newline": (5000, "\n".join(_digit_lines(5000, 3 * _BLOCK + 7))),
        "blocks-crlf": (5000, "\r\n".join(_digit_lines(5000, 3 * _BLOCK + 7)) + "\r\n"),
        "blocks-cr": (64, "\r".join(_digit_lines(64, 2 * _BLOCK)) + "\r"),
        "blocks-2-digits": (64, "\n".join(_digit_lines(64, 5 * _BLOCK + 1)) + "\n"),
        "leading-zeros-within-width": (5000, "007,1,2\n0,1,0042\n"),
        "leading-zeros-over-width": (64, "007,1,2\n"),
        "plus-sign": (4, "+3,1,2\n"),
        "underscore": (11, "1_0,1,2\n"),
        "crlf": (4, "0,1,2\r\n3,2,1\r\n"),
        "no-last-newline": (4, "0,1,2\n3,2,1"),
        "empty": (4, ""),
        "bare-newlines": (4, "\n\n\n"),
        "fewer-states-than-actions": (2, "1,2,0\n0,0,1\n"),
        "fewer-states-than-actions-bad-action": (2, "1,2,0\n0,3,1\n"),
        "fewer-states-than-actions-bad-state": (2, "1,2,0\n2,0,1\n"),
        "empty-field": (4, "0,,2\n"),
        "very-wide-field": (4, "0," + "1" * 40 + ",2\n"),
        # fields past 18 digits would overflow int64: out of the grammar
        "indices-past-int64": (10 ** 20, "0,1,2\n" + "1" * 19 + ",1,2\n"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_agrees_with_the_per_line_reader(self, tmp_path, case):
        n_states, body = self.CASES[case]
        n = len([line for line in body.replace("\r", "\n").split("\n") if line.strip()])
        path = tmp_path / "data.txt"
        path.write_bytes((HEADER.format(n=n, ns=n_states) + body).encode())
        _assert_agrees(path)

    @pytest.mark.parametrize("case", list(CASES))
    def test_the_block_parser_takes_plain_digit_lines_only(self, case):
        n_states, body = self.CASES[case]
        body = body.replace("\r\n", "\n").replace("\r", "\n").encode()  # as read_dataset does
        if body and not body.endswith(b"\n"):
            body += b"\n"
        field = rb"\d{1,%d}" % min(len(str(max(n_states, 3) - 1)), 18)
        # the "bad" cases are plain lines that hold an index out of range
        plain = re.fullmatch(rb"(%s,%s,%s(\n|$))*" % (field, field, field), body)
        takes = plain and "bad" not in case
        try:
            columns = envs._parse_records("data.txt", b"#\n" + body, 2, n_states, 3)
        except ValueError:
            assert not takes
        else:
            assert takes and len(columns[0]) == len(body.splitlines())

    @pytest.mark.parametrize("defect", ["0,1", "x,1,2", "-1,0,0", "0,3,0", "0,0,64", "1 ,1,2 x",
                                        "0,1,2,3", "0,,2", "007,1,2"])
    def test_a_defect_in_a_late_block_names_its_line(self, tmp_path, defect):
        lines = _digit_lines(64, 4 * _BLOCK)
        lines[3 * _BLOCK + 11] = defect
        path = tmp_path / "data.txt"
        path.write_text(HEADER.format(n=len(lines), ns=64) + "\n".join(lines) + "\n")
        assert f":{3 * _BLOCK + 13}: " in _assert_agrees(path)

    @pytest.mark.parametrize("defect", [None, "0,1", "0,0,64"])
    @pytest.mark.parametrize("ends", [("\r\n",), ("\r",), ("\r\n", "\r", "\n")],
                             ids=["crlf", "cr", "mixed"])
    @pytest.mark.parametrize("shift", range(8))
    def test_cr_line_ends_across_chunk_ends(self, tmp_path, shift, ends, defect):
        """A chunk's end falls at each byte of a line, a "\\r\\n" split included:
        each of the `shift` longer lines first moves it one byte. The records
        agree with the per-line reader, and a defect past the first chunk
        names its line."""
        lines = ["10,1,2"] * shift + ["0,1,2"] * (2 * _BLOCK + 700)
        if defect is not None:
            lines[-5] = defect
        body = "".join(line + ends[i % len(ends)] for i, line in enumerate(lines))
        path = tmp_path / "data.txt"
        path.write_bytes((HEADER.format(n=len(lines), ns=64)[:-1] + ends[-1] + body).encode())
        message = _assert_agrees(path)
        assert (message is None) == (defect is None)

    @pytest.mark.parametrize("line, where", [(6, "body"), (1, "header")])
    def test_a_byte_that_is_not_utf8_names_its_line(self, tmp_path, line, where):
        path = tmp_path / "data.txt"
        lines = (HEADER.format(n=6, ns=4) + "0,1,2\n" * 6).encode().split(b"\n")
        lines[line - 1] = lines[line - 1][:-1] + b"\xff" if where == "header" else b"0,\xff,2"
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{line}: not UTF-8 text$"):
            read_dataset(path)

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_a_line_longer_than_a_chunk_names_its_line(self, tmp_path, end):
        """No line end falls within a chunk's span (`_BLOCK` lines of 2 digits
        per field, 18,432 bytes) of a 40,000-digit line: it is named at once,
        by its length and as many characters as the longest record has (8)."""
        long = "9" * 40_000
        path = tmp_path / "data.txt"
        body = "".join(line + end for line in ("0,1,2", long, "3,2,1"))
        path.write_bytes((HEADER.format(n=3, ns=64)[:-1] + end + body).encode())
        message = (f"{path}:3: expected 's,a,s_next' of at most 2 digits each, "
                   f"got '{long[:8]}'... (40000 bytes)")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_dataset(path)


def _first_bad_line(path):
    """The line of `path` that `read_dataset` must name, found line by line:
    the first body line that is not three fields of 1 to `width` digits, else
    the first with an index out of range; None when there is neither."""
    header, *lines = re.split(rb"\r\n|\r|\n", path.read_bytes())
    meta = dict(tok.split(b"=", 1) for tok in header.split()[2:])
    n_states, n_actions = int(meta[b"n_states"]), int(meta[b"n_actions"])
    if lines and not lines[-1]:  # the newline that ends the last line
        lines.pop()
    field = rb"\d{1,%d}" % min(len(str(max(n_states, n_actions) - 1)), 18)
    for lineno, line in enumerate(lines, start=2):
        if not re.fullmatch(b",".join([field] * 3), line):
            return lineno
    for lineno, line in enumerate(lines, start=2):
        s, a, s2 = (int(f) for f in line.split(b","))
        if s >= n_states or a >= n_actions or s2 >= n_states:
            return lineno
    return None


def _assert_agrees(path):
    """`read_dataset` reads `read_dataset_per_line`'s records, or raises
    `<path>:<line>: ` with `_first_bad_line`'s line, which is also the
    per-line reader's where that rejects the file too. Returns the message
    (None when `read_dataset` reads)."""
    line = _first_bad_line(path)
    if line is not None:
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{line}: ") as ours:
            read_dataset(path)
        try:
            read_dataset_per_line(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}:{line}: ")
        return str(ours.value)
    ref = read_dataset_per_line(path)
    ours = read_dataset(path)
    for column in ("states", "actions", "next_states"):
        a, b = getattr(ours, column), getattr(ref, column)
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert ours.meta == ref.meta
    return None
