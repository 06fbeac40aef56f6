"""Gridworld domains, expert demonstration sampling, and dataset files.

Three reward generators are provided: low-dimensional linear rewards on a
torus, free tabular rewards, and smooth nonlinear rewards that raw-coordinate
features cannot represent. States are indexed s = y * width + x; the five
actions are stay/up/down/left/right. A spec fixes the environment and its
truth (reward, expert policy and Q), which `truth` solves once per process.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat

import numpy as np

from softirl.mdp import (
    _CHUNK,
    TabularMdp,
    _cell_keys,
    _soft_policy_iteration,
    check_distribution,
    check_records,
    index_dtype,
    soft_value_iteration,
)

ACTIONS = ("stay", "up", "down", "left", "right")
_DELTAS = ((0, 0), (0, 1), (0, -1), (-1, 0), (1, 0))
N_ACTIONS = len(ACTIONS)

REWARD_KINDS = ("linear", "tabular-linear", "nonlinear")
TOPOLOGIES = ("torus", "bounded")
REGIMES = ("iid-restart", "trajectory")
REWARD_SCALE = 2.5  # the reward's largest magnitude before `min_action_prob` shrinks it

_HEADER_PREFIX = "# transitions"
_BLOCK = 2048  # records per block of the sampler's tail walk, the dataset writer and reader
_LANES = 4096  # segments per lockstep walk (BENCH_15.json: ~0.4 MB of step temporaries; with
               # 1,024 and 16,384 ident draws at n = 800k took 20 % and 14 % longer, BENCH_43.json)
_Q = 1 << 14  # buckets of `_rank_code`: a uniform is searched only if its bucket holds a
             # breakpoint, 1.6 % of draws on ident's 256
_TAIL = 32  # live segments below which each finishes in Python; ident draws took 3.13, 3.03,
            # 2.98 and 3.15 ms at n = 50k and 23.8, 23.7, 23.8 and 23.5 ms at 800k with 8, 16,
            # 32 and 64 (BENCH_43.json: min of 31 and 11 timeit runs, one BLAS thread, 2-vCPU Xeon)


@dataclass(frozen=True)
class GridworldSpec:
    """Construction recipe for one gridworld benchmark environment.

    The generated reward starts at magnitude REWARD_SCALE;
    `min_action_prob` > 0 shrinks it deterministically until the
    expert policy puts at least that probability on every action, which keeps
    log-odds estimable from moderate sample sizes. `move_noise` is the slip
    probability hook (0 = deterministic moves).
    """

    width: int
    height: int
    topology: str = "torus"
    reward_kind: str = "tabular-linear"
    seed: int = 0
    gamma: float = 0.97
    min_action_prob: float = 0.0
    move_noise: float = 0.0

    def __post_init__(self):
        for name in ("width", "height"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}: must be at least 1, got {getattr(self, name)}")
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"topology: must be one of {TOPOLOGIES}, got {self.topology!r}")
        if self.reward_kind not in REWARD_KINDS:
            raise ValueError(
                f"reward_kind: must be one of {REWARD_KINDS}, got {self.reward_kind!r}")
        # shrinking the reward lifts the least action probability towards 1 / N_ACTIONS, not to it
        for name, hi in (("gamma", 1.0), ("move_noise", 1.0), ("min_action_prob", 1 / N_ACTIONS)):
            if not 0.0 <= getattr(self, name) < hi:
                raise ValueError(f"{name}: must lie in [0, {hi:g}), got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed: must be nonnegative, got {self.seed}")

    @property
    def n_states(self) -> int:
        return self.width * self.height

    @property
    def n_actions(self) -> int:
        return N_ACTIONS


@dataclass
class TransitionDataset:
    """Observed (s, a, s') records plus provenance metadata.

    The columns may have any integer dtype. `sample_transitions` and
    `read_dataset` give all three `mdp.index_dtype(S, A)`, the smallest
    signed type that holds max(S, A) - 1 (int8 up to 128 states and
    actions), so code that multiplies indices must widen them first.
    """

    states: np.ndarray
    actions: np.ndarray
    next_states: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.states)

    def validate(self) -> None:
        check_records(self.meta["n_states"], self.meta["n_actions"],
                      self.states, self.actions, self.next_states)
        if self.meta.get("n", self.n) != self.n:
            raise ValueError(f"meta n={self.meta['n']} != {self.n} records")

    def check_shape(self, n_states: int, n_actions: int) -> None:
        """ValueError unless the header names the MDP's state and action counts."""
        if (self.meta["n_states"], self.meta["n_actions"]) != (n_states, n_actions):
            raise ValueError(f"dataset has n_states={self.meta['n_states']} n_actions="
                             f"{self.meta['n_actions']}, but the MDP has n_states={n_states} "
                             f"n_actions={n_actions}")


def _cell_index(x: int, y: int, width: int) -> int:
    return y * width + x


def _move_targets(spec: GridworldSpec) -> np.ndarray:
    """target[s, a] = destination cell of action a from cell s."""
    targets = np.empty((spec.n_states, N_ACTIONS), dtype=int)
    for y in range(spec.height):
        for x in range(spec.width):
            s = _cell_index(x, y, spec.width)
            for a, (dx, dy) in enumerate(_DELTAS):
                nx, ny = x + dx, y + dy
                if spec.topology == "torus":
                    nx, ny = nx % spec.width, ny % spec.height
                elif not (0 <= nx < spec.width and 0 <= ny < spec.height):
                    nx, ny = x, y  # off-grid moves are no-ops
                targets[s, a] = _cell_index(nx, ny, spec.width)
    return targets


def _coords(spec: GridworldSpec) -> tuple[np.ndarray, np.ndarray]:
    s = np.arange(spec.n_states)
    return s % spec.width, s // spec.width


def _state_features(spec: GridworldSpec) -> np.ndarray:
    """Per-state feature block, excluding the intercept."""
    x, y = _coords(spec)
    if spec.topology == "torus":
        tx = 2.0 * np.pi * x / spec.width
        ty = 2.0 * np.pi * y / spec.height
        return np.column_stack([np.sin(tx), np.cos(tx), np.sin(ty), np.cos(ty)])
    xn = x / max(spec.width - 1, 1)
    yn = y / max(spec.height - 1, 1)
    return np.column_stack([xn, yn])


def _action_block_features(spec: GridworldSpec) -> np.ndarray:
    """phi(s, a) = one_hot(a) kron [1, state features]."""
    base = np.column_stack([np.ones(spec.n_states), _state_features(spec)])
    d_state = base.shape[1]
    phi = np.zeros((spec.n_states, N_ACTIONS, N_ACTIONS * d_state))
    for a in range(N_ACTIONS):
        phi[:, a, a * d_state:(a + 1) * d_state] = base
    return phi


def _nonlinear_reward(spec: GridworldSpec, rng: np.random.Generator) -> np.ndarray:
    """Sin/cos mixtures of grid coordinates with action-dependent phases.

    Frequencies of at least two cycles keep the table nearly orthogonal to
    anything linear in raw coordinates, so coordinate features underfit it.
    """
    x, y = _coords(spec)
    xn = x / spec.width
    yn = y / spec.height
    r = np.zeros((spec.n_states, N_ACTIONS))
    for _ in range(3):
        fx, fy = rng.integers(2, 4, size=2)
        amp = rng.uniform(0.5, 1.5, size=N_ACTIONS) * rng.choice([-1.0, 1.0], size=N_ACTIONS)
        phase = rng.uniform(0.0, 2.0 * np.pi, size=N_ACTIONS)
        wave = 2.0 * np.pi * (fx * xn + fy * yn)
        r += amp[None, :] * np.sin(wave[:, None] + phase[None, :])
    return r


def _unit_reward(spec: GridworldSpec):
    """(reward scaled to a largest magnitude of 1, phi) as `build_env` generates them."""
    rng = np.random.default_rng(spec.seed)
    if spec.reward_kind == "linear":
        phi = _action_block_features(spec)
        theta = rng.normal(size=phi.shape[2])
        raw = phi @ theta
    elif spec.reward_kind == "tabular-linear":
        phi = None
        raw = rng.uniform(-1.0, 1.0, size=(spec.n_states, N_ACTIONS))
    else:  # nonlinear truth, but only raw-coordinate features are exposed
        phi = _action_block_features(spec)
        raw = _nonlinear_reward(spec, rng)
    return raw / max(np.max(np.abs(raw)), 1e-12), phi


def build_env(spec: GridworldSpec):
    """Construct (TabularMdp, true reward table, read-only (S, A, d) feature
    table phi) from a spec. On `tabular-linear` phi is None: one-hot
    features, each (s, a) cell its own, which MaxEnt reads without a table.

    Deterministic in the spec: the same spec always yields bit-identical
    outputs.
    """
    targets = _move_targets(spec)
    ns = spec.n_states
    # each cell gets 1 - noise, then noise / A per slip action b in order: a
    # fixed b hits every (s, a) once, so each `+=` adds in the scalar loop's order
    cells = np.arange(ns)[:, None], np.arange(N_ACTIONS)
    transition = np.zeros((ns, N_ACTIONS, ns))
    transition[(*cells, targets)] = 1.0 - spec.move_noise
    for b in range(N_ACTIONS):
        transition[(*cells, targets[:, [b]])] += spec.move_noise / N_ACTIONS
    transition.setflags(write=False)  # so TabularMdp keeps it without a copy
    mdp = TabularMdp(transition, spec.gamma)

    raw, phi = _unit_reward(spec)
    scale = REWARD_SCALE
    r_true = scale * raw
    if spec.min_action_prob > 0.0:
        v = np.zeros_like(r_true)
        for _ in range(80):  # each scale starts from the last one's v, scaled as the reward is
            v, _, pi = _soft_policy_iteration(mdp, r_true, tol=1e-9, v0=0.9 * v)
            if pi.min() >= spec.min_action_prob:
                break
            scale *= 0.9
            r_true = scale * raw
        else:
            raise RuntimeError("could not satisfy min_action_prob by rescaling")
    if phi is not None:
        phi.setflags(write=False)
    return mdp, r_true, phi


def expert_policy(mdp: TabularMdp, r_true) -> np.ndarray:
    """Softmax-optimal behavior policy for the given reward, by soft value
    iteration; as `mdp`'s first solve, it is kept for `metrics.evaluate`'s truth."""
    return soft_value_iteration(mdp, r_true)[2]


@lru_cache(maxsize=1)
def truth(spec: GridworldSpec):
    """`build_env(spec)`'s (TabularMdp, true reward, phi), kept for the last
    spec asked for, with `expert_policy` solved as the MDP's first solve, so a
    process builds and solves the truth once and later `expert_policy` and
    `metrics.evaluate` calls read it back. The reward is read-only.
    """
    mdp, r_true, phi = build_env(spec)
    expert_policy(mdp, r_true)
    r_true.setflags(write=False)
    return mdp, r_true, phi


def sample_transitions(mdp: TabularMdp, pi, n: int, regime: str = "iid-restart",
                       seed: int = 0, env_id: str = "-") -> TransitionDataset:
    """Draw n (s, a, s') records from the behavior policy.

    iid-restart: the state rolls forward with probability gamma and restarts
    from a uniformly drawn state otherwise (the discounted occupancy
    sampler). trajectory: one long chain from a uniformly drawn state.

    Every uniform is drawn before the walk: the rows of one (n, 3) table,
    `_CHUNK` rows at a time, then one per restart, in record order. The
    restarts cut the records into segments whose first states are then
    known, and `_walk` advances all segments in lockstep. The records are
    the bits a per-record `np.searchsorted` loop draws from the same stream,
    held in `mdp.index_dtype(S, A)` columns. The action uniforms (and on a
    stochastic kernel the move uniforms) are kept only as their ranks among
    the CDF's breakpoints (`_rank_code`), which pick the same entries. On
    ident (S = 64, 256 breakpoints in pi's CDF) the walk keeps 5 bytes a
    record, 3 of int8 records and 2 of uint16 ranks, and 6 with move_noise
    0.3, whose cut kernel rows have 13 breakpoints: 11 and 19 bytes with
    float64 uniforms. Its lockstep reads actions and next states from int8
    tables once n reaches their 32,896 entries, 33 kB (20,928 with
    move_noise 0.3), which `_decoder` builds.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if regime not in REGIMES:
        raise ValueError(f"unknown sampling regime {regime!r}")
    pi = check_distribution(pi, (mdp.n_states, mdp.n_actions), "pi")

    rng = np.random.default_rng(seed)
    # CDF rows end in +inf: a right-sided search then returns at most the last
    # index, the min(., S - 1) / min(., A - 1) clamp for rows just under 1.
    init_cdf = np.cumsum(np.full(mdp.n_states, 1.0 / mdp.n_states))  # restarts are uniform
    pi_cdf = np.cumsum(pi, axis=-1)
    for cdf in (init_cdf, pi_cdf):
        cdf[..., -1] = np.inf
    pi_cdf, act_dtype, act_rank = _rank_code(pi_cdf)
    if mdp._targets is None:
        next_cdf, next_idx = _support_rows(mdp.transition)
        next_cdf, move_dtype, move_rank = _rank_code(next_cdf)
    else:  # a one-hot row cut to its support is [+inf] at its target
        next_cdf, next_idx = np.full((*mdp._targets.shape, 1), np.inf), mdp._targets[..., None]
    records = np.empty((3, n), dtype=index_dtype(mdp.n_states, mdp.n_actions))
    # The walk reads uniform column 0, and column 1 only where a move is
    # random. Record i > 0 restarts iff u[i, 2] >= gamma (iid-restart only)
    # and then takes the stream's next uniform, so every segment's first
    # state is known.
    u_act = np.empty(n, dtype=act_dtype)
    u_move = None if mdp._targets is not None else np.empty(n, dtype=move_dtype)
    segment_dtype = index_dtype(n + 1, 1)  # segment starts and lengths are at most n
    starts = [np.zeros(1, dtype=segment_dtype)]
    for lo in range(0, n, _CHUNK):
        u = rng.random((min(_CHUNK, n - lo), 3))  # the rows one (n, 3) draw gives
        u_act[lo:lo + len(u)] = act_rank(u[:, 0])
        if u_move is not None:
            u_move[lo:lo + len(u)] = move_rank(u[:, 1])
        if lo == 0:  # record 0 starts the first segment
            u_first, u, lo = u[0, 2], u[1:], 1
        if regime == "iid-restart":
            starts.append((np.flatnonzero(u[:, 2] >= mdp.gamma) + lo).astype(segment_dtype))
    starts = np.concatenate(starts)
    first = np.searchsorted(init_cdf, np.append(u_first, rng.random(len(starts) - 1)),
                            side="right").astype(records.dtype)
    _walk(records, starts, first, pi_cdf, u_act, u_move, next_cdf, next_idx)

    meta = {"seed": seed, "env": env_id or "-", "n": n,
            "n_states": mdp.n_states, "n_actions": mdp.n_actions, "regime": regime}
    return TransitionDataset(*records, meta)


def _support_rows(transition: np.ndarray):
    """Each transition CDF row cut to its support plus its last index, as
    (S, A, W) tables of CDF values and state indices, padded with +inf.

    A right-sided search stops at the first entry above u >= 0. A zero
    mass at index 0 gives 0.0, and one further on repeats the entry before
    it exactly, so that entry is a support index or the +inf last one: the
    cut rows give the full rows' answer. A cumsum over the kernel's nonzeros
    has the full row's bits: adding 0.0 to a nonnegative sum is exact.
    """
    n_states, shape = transition.shape[-1], (*transition.shape[:2], -1)
    rows = transition.reshape(-1, n_states)
    cell, col = np.nonzero(rows[:, :-1])  # each cell's support in order
    kept = np.bincount(cell, minlength=len(rows))
    pos = np.arange(len(cell)) - np.repeat(np.cumsum(kept) - kept, kept)
    width = kept.max() + 1
    mass, idx = np.zeros((len(rows), width)), np.full((len(rows), width), n_states - 1)
    mass[cell, pos], idx[cell, pos] = rows[cell, col], col
    cdf = np.cumsum(mass, axis=1)
    cdf[np.arange(width) >= kept[:, None]] = np.inf
    return cdf.reshape(shape), idx.reshape(shape)


def _rank_code(cdf):
    """(ranks, dtype, rank) that stand for CDF table `cdf` and for uniforms
    u in [0, 1): `ranks` holds each entry's rank among the B distinct finite
    entries, #{b <= c}, or B + 1 for +inf, in int64; `rank` gives an array
    of uniforms their ranks #{b <= u} in `dtype`, the narrowest unsigned
    dtype that holds B. c <= u exactly when rank(c) <= rank(u), so ranks
    pick the entries uniforms do. The walk compares them in int64: a uint16
    comparison maps 64 KB of numpy's code that nothing else in a run uses.

    floor(u * _Q) is exact, so a uniform lies above every breakpoint of the
    buckets below its own and below every one above; only the uniforms whose
    bucket holds a breakpoint are searched. The breakpoints are sorted in
    Python: np.unique imports numpy.ma (8.4 ms), and np.sort maps 256 KB of
    numpy's code that nothing else in a run uses, which peak RSS counts.
    """
    points = np.array(sorted(set(cdf[cdf < np.inf].tolist())))
    ranks = np.searchsorted(points, cdf, side="right") + (cdf == np.inf)
    dtype = np.min_scalar_type(len(points))
    # below[q], the breakpoints in buckets under q, is k on (bucket[k - 1], bucket[k]]: a
    # cumsum over 2 ** 16 buckets took 160 us on a 2-vCPU Xeon, this repeat 16 us.
    # Entries of 1 or more fall past every bucket.
    bucket = np.minimum(points * _Q, _Q).astype(np.intp)
    below = np.repeat(np.arange(len(points) + 1, dtype=dtype),
                      np.diff(np.minimum(bucket, _Q - 1), prepend=-1, append=_Q - 1))
    hit = np.zeros(_Q, dtype=bool)
    hit[bucket[bucket < _Q]] = True

    def rank(u):
        bucket = np.multiply(u, _Q, out=np.empty(len(u), np.int32), casting="unsafe")
        ranked = below.take(bucket)
        refine = np.flatnonzero(hit.take(bucket))
        ranked[refine] = np.searchsorted(points, u.take(refine), side="right")
        return ranked

    return ranks, dtype, rank


def _walk(records, starts, first, pi_cdf, u_act, u_move, next_cdf, next_idx) -> None:
    """Write the records of the segments that begin at `starts` in states
    `first`, drawing actions with `u_act` and moves with `u_move`, or on
    one-hot kernels (`u_move` None) taking each cut row's first index, its
    target (`TabularMdp._targets`). A next state is the next record's state,
    but at a segment's end, which goes in the segment's slot of `first`.
    `pi_cdf`, and `next_cdf` where `u_move` is given, are `_rank_code` rank
    tables, and `u_act` and `u_move` the uniforms' ranks, which the walk
    compares as it would compare the CDF values and the uniforms.

    Segments go longest first, `_LANES` at a time, so the live ones are a
    prefix: step t takes record start + t of every live segment at once and
    decodes its lanes with `_decoder`. Once fewer than `_TAIL` are live,
    each finishes one record at a time with `bisect` over the same rows.
    """
    pi_rows, cdf_rows, idx_rows = pi_cdf.tolist(), next_cdf.tolist(), next_idx.tolist()
    decode = _decoder(pi_cdf, u_act, u_move, next_cdf, next_idx.astype(records.dtype))
    states, actions, next_states = records  # a store through a row view beats records[0, i]
    # subtracted in int64 and then narrowed: an int32 subtract maps 64 KB more of numpy's code
    lengths = np.diff(starts, append=len(u_act))
    order = np.argsort(-lengths, kind="stable").astype(starts.dtype)
    lengths = lengths.astype(starts.dtype)
    for group in range(0, len(order), _LANES):
        segment = order[group:group + _LANES]
        # the group's columns are widened for its index arithmetic
        start, length = (c.take(segment).astype(np.intp) for c in (starts, lengths))
        s, t, live = first.take(segment), 0, len(start)
        while live >= _TAIL:
            i = start[:live] + t
            a, s2 = decode(s, i)
            states[i], actions[i] = s, a
            t += 1
            ended, live = live, np.count_nonzero(length[:live] > t)
            first[segment[live:ended]] = s2[live:ended]  # read by this group already
            s = s2[:live]
        for j, s, begin, stop in zip(segment[:live].tolist(), s.tolist(),
                                     (start[:live] + t).tolist(),
                                     (start[:live] + length[:live]).tolist()):
            for lo in range(begin, stop, _BLOCK):
                hi = min(lo + _BLOCK, stop)
                block_s, block_a = [], []
                # 0.0 lies below every entry of a one-hot cut row: its first index
                moves = repeat(0.0) if u_move is None else u_move[lo:hi].tolist()
                for ua, us in zip(u_act[lo:hi].tolist(), moves):
                    a = bisect_right(pi_rows[s], ua)
                    block_s.append(s)
                    block_a.append(a)
                    s = idx_rows[s][a][bisect_right(cdf_rows[s][a], us)]
                states[lo:hi], actions[lo:hi] = block_s, block_a
            first[j] = s
    next_states[:-1] = states[1:]
    next_states[np.append(starts[1:], len(u_act)) - 1] = first


def _decoder(pi_cdf, u_act, u_move, next_cdf, next_idx):
    """decode(s, i): the actions and next states, in `next_idx`'s dtype, of
    lanes in states s (that dtype) at records i, taken from `_decode_table`s
    at s * (B + 1) + code (a stochastic next state at (s * A + a) * (B_m + 1)
    + move code) if those hold no more entries than the draw has records,
    else counted a CDF column at a time (BENCH_43.json: at S = 1,024 the
    tables cost more than the counting saved)."""
    n_states, n_actions, width = next_idx.shape
    codes = int(pi_cdf.max())  # B + 1: the codes run from 0 to B, and +inf ranks B + 1
    moves = None if u_move is None else int(next_cdf.max())
    if n_states * (codes + (codes if moves is None else n_actions * moves)) <= len(u_act):
        act_of = _decode_table(pi_cdf, np.arange(n_actions, dtype=next_idx.dtype))
        next_of = _decode_table(pi_cdf if moves is None else next_cdf, next_idx)

        def decode(s, i):
            key = np.multiply(s, codes, dtype=np.intp)
            key += u_act.take(i)
            a = act_of.take(key)
            if moves is not None:  # else a one-hot kernel's next state shares the key
                key = (np.multiply(s, n_actions, dtype=np.intp) + a) * moves + u_move.take(i)
            return a, next_of.take(key)
        return decode

    # the last CDF column is +inf (ranked B + 1), never <= u, so a step counts the others
    pi_t = pi_cdf.T[:-1].copy()
    next_t = next_cdf.reshape(-1, width).T[:-1].copy()

    def decode(s, i):
        s = s.astype(np.intp)
        a = _count_at_most(pi_t, s, u_act.take(i).astype(np.intp))
        sa = s * n_actions + a
        k = 0 if moves is None else _count_at_most(next_t, sa, u_move.take(i).astype(np.intp))
        return a.astype(next_idx.dtype), next_idx.take(sa * width + k)
    return decode


def _decode_table(ranks, values):
    """values[r, #{j : ranks[r, j] <= c}] for each row r of rank table `ranks` (rows end in
    B + 1) and code c from 0 to B, flat; `values` repeats to fill `ranks`."""
    return np.repeat(np.resize(values, ranks.size), np.diff(ranks, prepend=0).ravel())


def _count_at_most(table, columns, u) -> np.ndarray:
    """Per lane j, the rows of `table` at most u[j] in column columns[j], a row at a time."""
    count = np.zeros(len(columns), dtype=np.intp)
    for row in table:
        count += row.take(columns) <= u
    return count


def write_dataset(dataset: TransitionDataset, path) -> None:
    """Write line-delimited `s,a,s_next` records under a one-line meta header;
    the columns may have any integer dtype, widened one block at a time. Meta
    that `read_dataset` would refuse is a ValueError: n_states, n_actions and
    seed must be integers, not bools, and env and regime single words."""
    m = dataset.meta
    n_states, n_actions, seed = m["n_states"], m["n_actions"], m.get("seed", 0)
    for key, value in (("n_states", n_states), ("n_actions", n_actions), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"meta {key} must be an integer, got {value!r}")
    dataset.validate()
    env, regime = str(m.get("env", "-")) or "-", str(m.get("regime", "iid-restart"))
    for what, word in (("env id", env), ("regime", regime)):
        if not word or any(ch.isspace() for ch in word):
            raise ValueError(f"{what} must not be empty or contain whitespace: {word!r}")
    header = (f"{_HEADER_PREFIX} seed={seed} env={env} n={dataset.n} "
              f"n_states={n_states} n_actions={n_actions} regime={regime}")
    states, actions, next_states = (np.asarray(c) for c in (dataset.states, dataset.actions,
                                                            dataset.next_states))
    # format each (s, a) cell's "s,a," and each state's "s'\n" once, then join
    # a block's two pieces per record in one pass
    cells = np.array([f"{s},{a}," for s in range(n_states) for a in range(n_actions)],
                     dtype=object)
    ends = np.array([f"{s}\n" for s in range(n_states)], dtype=object)
    pieces = np.empty((_BLOCK, 2), dtype=object)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for lo in range(0, dataset.n, _BLOCK):
            hi = min(lo + _BLOCK, dataset.n)
            block = pieces[:hi - lo]
            block[:, 0] = cells[_cell_keys(states[lo:hi], actions[lo:hi], n_actions)]
            block[:, 1] = ends[next_states[lo:hi]]
            fh.write("".join(block.ravel().tolist()))


def read_dataset(path) -> TransitionDataset:
    """Inverse of write_dataset, whose grammar is the only one it reads: one
    `s,a,s_next` line per record, each field 1 to `width` digits (the largest
    index's count, at most 18), with "\r\n" and "\r" ending lines as in text
    mode. Any other body, or an index out of range, is `<path>:<line>: <reason>`.
    The columns have `mdp.index_dtype` of the header's n_states and n_actions.

    The body is parsed in place in the bytes read, but for a last line
    without its newline, which is copied alone, and for a chunk of lines
    holding a "\r", which is copied to end its lines with "\n"."""
    with open(path, "rb") as fh:
        data = fh.read()
    # the header line ends at its first "\n" or "\r"; the body starts past it
    end = min([e for e in (data.find(b"\n"), data.find(b"\r")) if e >= 0] or [len(data)])
    try:
        header = data[:end].decode()
    except UnicodeDecodeError:
        raise ValueError(f"{path}:1: not UTF-8 text") from None
    if not header.startswith(_HEADER_PREFIX):
        raise ValueError(f"{path}:1: missing dataset header")
    meta = {}
    for tok in header[len(_HEADER_PREFIX):].split():
        if "=" not in tok:
            raise ValueError(f"{path}:1: malformed header token {tok!r}")
        key, val = tok.split("=", 1)
        if key not in ("env", "regime"):
            try:
                val = int(val)
            except ValueError:
                raise ValueError(f"{path}:1: non-integer header value {tok!r}") from None
        elif not val:  # write_dataset writes env and regime as nonempty words
            raise ValueError(f"{path}:1: empty header value {tok!r}")
        meta[key] = val
    for key in ("n", "n_states", "n_actions"):
        if key not in meta:
            raise ValueError(f"{path}:1: header missing {key}")

    columns = _parse_records(path, data, end + 1 + (data[end:end + 2] == b"\r\n"),
                             meta["n_states"], meta["n_actions"])
    if len(columns[0]) != meta["n"]:
        raise ValueError(f"{path}: header says n={meta['n']} but found {len(columns[0])} records")
    return TransitionDataset(*columns, meta)


_FIELD_ENDS = np.frombuffer(b",,\n", np.uint8)  # the bytes that end a record's three fields


def _parse_records(path, data: bytes, start: int, n_states: int, n_actions: int):
    """The (s, a, s') columns of the dataset body that fills `data` from byte
    `start` on, each line ended by "\\n", "\\r\\n" or "\\r" but perhaps the last, parsed about
    `_BLOCK` lines at a time into one (3, n) table of `index_dtype`; only a
    failed check looks for the first bad line, and a line out of the grammar
    comes before any index out of range. Each chunk's int64 values are
    checked against their bounds before they are narrowed, so an index out
    of range cannot wrap into it."""
    width = min(len(str(max(n_states, n_actions) - 1)), 18)  # 18 digits stay within int64
    cr = data.find(b"\r", start) >= 0  # then "\r\n" and "\r" end lines too, as in text mode
    lines = data.count(b"\n", start) + (len(data) > start and data[-1] not in b"\r\n")
    if cr:
        lines += data.count(b"\r", start) - data.count(b"\r\n", start)
    records = np.empty((3, lines), dtype=index_dtype(n_states, n_actions))
    limits, out_of_range = (n_states, n_actions, n_states), None
    lo, row, span = start, 0, _BLOCK * (3 * width + 3)
    while lo < len(data):
        # a chunk ends at the last newline within _BLOCK lines of the widest kind
        hi = data.rfind(b"\n", lo, lo + span) + 1
        if cr:  # or at a later "\r", and past the "\n" of a "\r\n"
            hi = max(hi, data.rfind(b"\r", lo, lo + span) + 1)
            hi += data[hi - 1:hi + 1] == b"\r\n"
        if hi == 0 and len(data) - lo >= span:  # the line at lo is longer than any record
            raise _line_error(path, data, lo, width)
        if hi == 0:  # the last line, without its newline: only it is copied, to end it
            chunk, hi = np.frombuffer(data[lo:] + b"\n", np.uint8), len(data)
        else:
            chunk = np.frombuffer(data, np.uint8, hi - lo, lo)
        if cr:  # a copy whose lines end in "\n"; `raw` maps its bytes back
            raw, chunk = chunk, np.frombuffer(
                chunk.tobytes().replace(b"\r\n", b"\n").replace(b"\r", b"\n"), np.uint8)
        digits = chunk - np.uint8(ord("0"))
        ends = np.flatnonzero(digits > 9)  # every byte that is not a digit
        places = np.diff(ends, prepend=-1) - 1  # each field's digit count
        fields = len(ends)
        if (fields % 3 or (chunk.take(ends).reshape(-1, 3) != _FIELD_ENDS).any()
                or places.min() < 1 or places.max() > width):
            bad = ((chunk.take(ends) != np.resize(_FIELD_ENDS, fields))
                   | (places < 1) | (places > width))  # the fields whose end or width is wrong
            at = ends[bad.argmax()]
            if cr:  # the byte's place in the raw chunk, past the "\n" of each "\r\n" before it
                at = np.flatnonzero(np.append(True, (raw[1:] != 10) | (raw[:-1] != 13)))[at]
            raise _line_error(path, data, lo + at, width)
        # cast before scaling: a uint8 digit times 10 ** place wraps
        values = digits.take(ends - 1).astype(np.int64)
        for place in range(1, width):
            digit = digits.take(ends - 1 - place, mode="clip").astype(np.int64)
            values += np.where(places > place, digit, 0) * 10 ** place
        values = values.reshape(-1, 3)
        over = values >= limits  # digits are never negative: only an upper bound can fail
        if over.any() and out_of_range is None:  # a later line's bad grammar comes first
            i, column = divmod(int(over.argmax()), 3)
            out_of_range = ValueError(f"{path}:{row + i + 2}: "
                                      f"{('state', 'action', 'next state')[column]} index "
                                      f"out of range [0, {limits[column]})")
        if out_of_range is None:  # a value is narrowed only once it is known to be in range
            records[:, row:row + len(values)] = values.T
        lo, row = hi, row + len(values)
    if out_of_range is not None:
        raise out_of_range
    return tuple(records)


def _line_error(path, data: bytes, p: int, width: int) -> ValueError:
    """The ValueError that names the line holding byte p, a body byte of a dataset file's bytes
    or the newline a last line lacks (p = len(data)); "\r\n" and "\r" end lines too."""
    end = min([e for e in (data.find(b"\n", p), data.find(b"\r", p)) if e >= 0] or [len(data)])
    line = data[max(data.rfind(b"\n", 0, p), data.rfind(b"\r", 0, p)) + 1:end]
    lineno = data.count(b"\n", 0, p) + data.count(b"\r", 0, p) - data.count(b"\r\n", 0, p) + 1
    try:  # a line longer than any record (three fields, two commas) is quoted that far
        text, cap = line.decode(), 3 * width + 2
        got = repr(text) if len(line) <= cap else f"{text[:cap]!r}... ({len(line)} bytes)"
        reason = f"expected 's,a,s_next' of at most {width} digits each, got {got}"
    except UnicodeDecodeError:
        reason = "not UTF-8 text"
    return ValueError(f"{path}:{lineno}: {reason}")
