"""Gridworld domains, expert demonstration sampling, and dataset files.

Three reward generators are provided: low-dimensional linear rewards on a
torus, free tabular rewards, and smooth nonlinear rewards that raw-coordinate
features cannot represent. States are indexed s = y * width + x; the five
actions are stay/up/down/left/right. A spec fixes the environment and its
truth (reward, expert policy and Q), which `truth` solves once per process.
"""

from __future__ import annotations

import io
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat

import numpy as np

from softirl.mdp import (
    TabularMdp,
    _soft_policy_iteration,
    check_distribution,
    check_records,
    soft_value_iteration,
)

ACTIONS = ("stay", "up", "down", "left", "right")
_DELTAS = ((0, 0), (0, 1), (0, -1), (-1, 0), (1, 0))
N_ACTIONS = len(ACTIONS)

REWARD_KINDS = ("linear", "tabular-linear", "nonlinear")
TOPOLOGIES = ("torus", "bounded")
REGIMES = ("iid-restart", "trajectory")

_HEADER_PREFIX = "# transitions"
_BLOCK = 2048  # records per block of the sampler's tail walk and of the dataset writer
_LANES = 4096  # segments per lockstep walk (BENCH_15.json: ~0.4 MB of step temporaries,
               # and 1,024 lanes walked ~10 % slower at n = 800k)
_TAIL = 32  # on ident's one-hot kernel a lockstep step took ~20 us at 8-64 lanes and a
            # Python record ~0.3 us (timeit, one BLAS thread)


@dataclass(frozen=True)
class GridworldSpec:
    """Construction recipe for one gridworld benchmark environment.

    `reward_scale` is the initial magnitude of the generated reward;
    `min_action_prob` > 0 shrinks the reward deterministically until the
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
    reward_scale: float = 2.5
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
        if not 0.0 < self.reward_scale < np.inf:
            raise ValueError(f"reward_scale: must be finite and positive, got {self.reward_scale}")

    @property
    def n_states(self) -> int:
        return self.width * self.height

    @property
    def n_actions(self) -> int:
        return N_ACTIONS


@dataclass
class TransitionDataset:
    """Observed (s, a, s') records plus provenance metadata."""

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


def build_env(spec: GridworldSpec):
    """Construct (TabularMdp, true reward table, read-only (S, A, d) feature
    table phi) from a spec.

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
    mdp = TabularMdp(transition, spec.gamma)

    rng = np.random.default_rng(spec.seed)
    if spec.reward_kind == "linear":
        phi = _action_block_features(spec)
        theta = rng.normal(size=phi.shape[2])
        raw = phi @ theta
    elif spec.reward_kind == "tabular-linear":
        phi = np.eye(ns * N_ACTIONS).reshape(ns, N_ACTIONS, -1)
        raw = rng.uniform(-1.0, 1.0, size=(ns, N_ACTIONS))
    else:  # nonlinear truth, but only raw-coordinate features are exposed
        phi = _action_block_features(spec)
        raw = _nonlinear_reward(spec, rng)

    raw = raw / max(np.max(np.abs(raw)), 1e-12)
    scale = spec.reward_scale
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
    phi.setflags(write=False)
    return mdp, r_true, phi


def expert_policy(mdp: TabularMdp, r_true) -> np.ndarray:
    """Softmax-optimal behavior policy for the given reward."""
    return soft_value_iteration(mdp, r_true)[2]


@lru_cache(maxsize=1)
def truth(spec: GridworldSpec):
    """(TabularMdp, true reward, phi, true Q, expert policy): `build_env(spec)`
    and one soft value iteration at its default tol, kept for the last spec
    asked for, so a process builds and solves it once. Its arrays are read-only.
    """
    mdp, r_true, phi = build_env(spec)
    _, q_true, pi_expert = soft_value_iteration(mdp, r_true)
    for table in (r_true, q_true, pi_expert):
        table.setflags(write=False)
    return mdp, r_true, phi, q_true, pi_expert


def sample_transitions(mdp: TabularMdp, pi, n: int, init=None,
                       regime: str = "iid-restart", seed: int = 0,
                       env_id: str = "-") -> TransitionDataset:
    """Draw n (s, a, s') records from the behavior policy.

    iid-restart: the state rolls forward with probability gamma and restarts
    from `init` otherwise (the discounted occupancy sampler). trajectory: one
    long chain. `init` defaults to uniform.

    Every uniform is drawn before the walk: the (n, 3) table, then one per
    restart, in record order. The restarts cut the records into segments
    whose first states are then known, and `_walk` advances all segments in
    lockstep. The records are the bits a per-record `np.searchsorted` loop
    draws from the same stream.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if regime not in REGIMES:
        raise ValueError(f"unknown sampling regime {regime!r}")
    pi = check_distribution(pi, (mdp.n_states, mdp.n_actions), "pi")
    if init is None:
        init = np.full(mdp.n_states, 1.0 / mdp.n_states)
    init = check_distribution(init, (mdp.n_states,), "init")

    rng = np.random.default_rng(seed)
    u = rng.random((n, 3))
    # CDF rows end in +inf: a right-sided search then returns at most the last
    # index, the min(., S - 1) / min(., A - 1) clamp for rows just under 1.
    init_cdf, pi_cdf = (np.cumsum(p, axis=-1) for p in (init, pi))
    for cdf in (init_cdf, pi_cdf):
        cdf[..., -1] = np.inf
    # Record i > 0 restarts iff u[i, 2] >= gamma (iid-restart only) and then
    # takes the stream's next uniform, so every segment's first state is
    # known before the walk.
    starts = np.append(0, np.flatnonzero(u[1:, 2] >= mdp.gamma) + 1 if regime == "iid-restart"
                       else np.empty(0, dtype=np.intp))
    first = np.searchsorted(init_cdf, np.append(u[0, 2], rng.random(len(starts) - 1)), side="right")
    # the walk reads column 0, and column 1 only where a move is random
    u_act, u_move = u[:, 0].copy(), None if mdp._targets is not None else u[:, 1].copy()
    del u
    records = np.empty((3, n), dtype=np.int64)
    _walk(records, starts, first, pi_cdf, u_act, u_move, *_support_rows(mdp.transition))

    meta = {"seed": seed, "env": env_id or "-", "n": n,
            "n_states": mdp.n_states, "n_actions": mdp.n_actions, "regime": regime}
    return TransitionDataset(*records, meta)


def _support_rows(transition: np.ndarray):
    """Each transition CDF row cut to its support plus its last index, as
    (S, A, W) tables of CDF values and state indices, padded with +inf.

    A right-sided search stops at the first entry above u >= 0. A zero
    mass at index 0 gives 0.0, and one further on repeats the entry before
    it exactly, so that entry is a support index or the +inf last one: the
    cut rows give the full rows' answer.
    """
    trans_cdf = np.cumsum(transition, axis=-1)
    trans_cdf[..., -1] = np.inf
    keep = transition > 0
    keep[..., -1] = True
    idx = np.argsort(~keep, axis=-1, kind="stable")[..., :keep.sum(axis=-1).max()].copy()
    cdf = np.take_along_axis(trans_cdf, idx, axis=-1)
    cdf[~np.take_along_axis(keep, idx, axis=-1)] = np.inf
    return cdf, idx


def _walk(records, starts, first, pi_cdf, u_act, u_move, next_cdf, next_idx) -> None:
    """Write the records of the segments that begin at `starts` in states
    `first`, drawing actions with `u_act` and moves with `u_move`, or on
    one-hot kernels (`u_move` None) taking each cut row's first index, its
    target (`TabularMdp._targets`). A next state is the next record's state,
    but at a segment's end, which goes in the segment's slot of `first`.

    Segments go longest first, `_LANES` at a time, so the live ones are a
    prefix: step t takes record start + t of every live segment at once.
    Once fewer than `_TAIL` are live, each finishes one record at a time
    with `bisect` over the same rows.
    """
    n_actions, width = next_idx.shape[1:]
    # the last CDF column is +inf, never <= u, so a step counts the others
    pi_t = pi_cdf.T[:-1].copy()
    next_t = next_cdf.reshape(-1, width).T[:-1].copy()
    next_flat = next_idx.ravel()
    pi_rows, cdf_rows, idx_rows = pi_cdf.tolist(), next_cdf.tolist(), next_idx.tolist()
    states, actions, next_states = records  # a store through a row view beats records[0, i]
    lengths = np.diff(starts, append=len(u_act))
    order = np.argsort(-lengths, kind="stable")
    for group in range(0, len(order), _LANES):
        segment = order[group:group + _LANES]
        start, length, s = starts[segment], lengths[segment], first[segment]
        t, live = 0, len(start)
        while live >= _TAIL:
            i = start[:live] + t
            a = _count_at_most(pi_t, s, u_act.take(i))
            sa = s * n_actions + a
            k = 0 if u_move is None else _count_at_most(next_t, sa, u_move.take(i))
            s2 = next_flat.take(sa * width + k)
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


def _count_at_most(table, columns, u) -> np.ndarray:
    """Per lane j, the rows of `table` at most u[j] in column columns[j], a row at a time."""
    count = np.zeros(len(columns), dtype=np.intp)
    for row in table:
        count += row.take(columns) <= u
    return count


def write_dataset(dataset: TransitionDataset, path) -> None:
    """Write line-delimited `s,a,s_next` records under a one-line meta header."""
    dataset.validate()
    m = dataset.meta
    env = str(m.get("env", "-")) or "-"
    if any(ch.isspace() for ch in env):
        raise ValueError(f"env id must not contain whitespace: {env!r}")
    header = (f"{_HEADER_PREFIX} seed={m.get('seed', 0)} env={env} n={dataset.n} "
              f"n_states={m['n_states']} n_actions={m['n_actions']} "
              f"regime={m.get('regime', 'iid-restart')}")
    columns = [np.asarray(c, dtype=np.int64)
               for c in (dataset.states, dataset.actions, dataset.next_states)]
    # each field is one of max(S, A) indices: format each index once, then
    # join a block's (s, ",", a, ",", s', "\n") pieces in one pass
    names = np.array([str(i) for i in range(max(m["n_states"], m["n_actions"]))], dtype=object)
    pieces = np.empty((_BLOCK, 6), dtype=object)
    pieces[:, 1::2] = [",", ",", "\n"]
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for lo in range(0, dataset.n, _BLOCK):
            block = pieces[:min(_BLOCK, dataset.n - lo)]
            block[:, ::2] = names[np.stack([c[lo:lo + _BLOCK] for c in columns], axis=1)]
            fh.write("".join(block.ravel().tolist()))


def read_dataset(path) -> TransitionDataset:
    """Inverse of write_dataset; raises ValueError naming the offending line.

    The body is parsed in one vectorised pass. Only a body that pass rejects
    (a malformed or out-of-range field, a line of spaces) is scanned again
    line by line, which names the first bad line or, where int() accepts what
    the vectorised parser does not, reads the records as int() does.
    """
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        body = fh.read()
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
        meta[key] = val
    for key in ("n", "n_states", "n_actions"):
        if key not in meta:
            raise ValueError(f"{path}:1: header missing {key}")

    try:
        columns = _parse_records(body, meta["n_states"], meta["n_actions"])
    except ValueError:
        columns = _scan_records(path, body, meta["n_states"], meta["n_actions"])
    if len(columns[0]) != meta["n"]:
        raise ValueError(f"{path}: header says n={meta['n']} but found {len(columns[0])} records")
    return TransitionDataset(*columns, meta)


def _parse_records(body: str, n_states: int, n_actions: int):
    """The (s, a, s') columns of a dataset body in one pass; ValueError on a
    malformed line or a bad index (`check_records`)."""
    if not body or body.isspace():  # loadtxt warns on an empty body
        return tuple(np.zeros((3, 0), dtype=np.int64))
    records = np.loadtxt(io.StringIO(body), delimiter=",", dtype=np.int64,
                         comments=None, ndmin=2)
    if records.shape[1] != 3:
        raise ValueError("expected three fields per line")
    return check_records(n_states, n_actions, *records.T.copy())


def _scan_records(path, body: str, n_states: int, n_actions: int):
    """`_parse_records` line by line with int(), raising at the first bad line."""
    states, actions, next_states = [], [], []
    for lineno, line in enumerate(body.split("\n"), start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected 's,a,s_next', got {line!r}")
        try:
            s, a, s2 = (int(p) for p in parts)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-integer field in {line!r}") from None
        if not 0 <= s < n_states or not 0 <= s2 < n_states:
            raise ValueError(f"{path}:{lineno}: state index out of range")
        if not 0 <= a < n_actions:
            raise ValueError(f"{path}:{lineno}: action index out of range")
        states.append(s)
        actions.append(a)
        next_states.append(s2)
    return tuple(np.array(c, dtype=np.int64) for c in (states, actions, next_states))
