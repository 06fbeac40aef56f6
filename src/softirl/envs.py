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
_BLOCK = 2048  # records per block of the sampler's tail walk, the dataset writer and reader
_LANES = 4096  # segments per lockstep walk (BENCH_15.json: ~0.4 MB of step temporaries,
               # and 1,024 lanes walked ~10 % slower at n = 800k)
_TAIL = 32  # live segments below which each finishes in Python; ident draws took 6.7, 6.6,
            # 6.6 and 7.2 ms at n = 50k and 56.3, 55.0, 55.9 and 56.3 ms at 800k with 16, 32,
            # 64 and 128 (min of 31 and 11 timeit runs, one BLAS thread, 2-vCPU Xeon)


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
    mdp = TabularMdp(transition, spec.gamma)

    rng = np.random.default_rng(spec.seed)
    if spec.reward_kind == "linear":
        phi = _action_block_features(spec)
        theta = rng.normal(size=phi.shape[2])
        raw = phi @ theta
    elif spec.reward_kind == "tabular-linear":
        phi = None
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
    if phi is not None:
        phi.setflags(write=False)
    return mdp, r_true, phi


def expert_policy(mdp: TabularMdp, r_true) -> np.ndarray:
    """Softmax-optimal behavior policy for the given reward."""
    return soft_value_iteration(mdp, r_true)[2]


@lru_cache(maxsize=1)
def truth(spec: GridworldSpec):
    """(TabularMdp, true reward, phi, true Q, expert policy): `build_env(spec)`
    and one soft value iteration at its default tol, kept for the last spec
    asked for, so a process builds and solves it once. Its arrays are
    read-only; phi is None on `tabular-linear`, as `build_env` gives it.
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

    Every uniform is drawn before the walk: the rows of one (n, 3) table,
    `_CHUNK` rows at a time, then one per restart, in record order. The
    restarts cut the records into segments whose first states are then
    known, and `_walk` advances all segments in lockstep. The records are
    the bits a per-record `np.searchsorted` loop draws from the same stream.
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
    # CDF rows end in +inf: a right-sided search then returns at most the last
    # index, the min(., S - 1) / min(., A - 1) clamp for rows just under 1.
    init_cdf, pi_cdf = (np.cumsum(p, axis=-1) for p in (init, pi))
    for cdf in (init_cdf, pi_cdf):
        cdf[..., -1] = np.inf
    records = np.empty((3, n), dtype=np.int64)
    # The walk reads uniform column 0 (kept in the next-state row, which it
    # writes last), and column 1 only where a move is random. Record i > 0
    # restarts iff u[i, 2] >= gamma (iid-restart only) and then takes the
    # stream's next uniform, so every segment's first state is known.
    u_act, u_move = records[2].view(np.float64), None if mdp._targets is not None else np.empty(n)
    starts = [np.zeros(1, dtype=np.intp)]
    for lo in range(0, n, _CHUNK):
        u = rng.random((min(_CHUNK, n - lo), 3))  # the rows one (n, 3) draw gives
        u_act[lo:lo + len(u)] = u[:, 0]
        if u_move is not None:
            u_move[lo:lo + len(u)] = u[:, 1]
        if lo == 0:  # record 0 starts the first segment
            u_first, u, lo = u[0, 2], u[1:], 1
        if regime == "iid-restart":
            starts.append(np.flatnonzero(u[:, 2] >= mdp.gamma) + lo)
    starts = np.concatenate(starts)
    first = np.searchsorted(init_cdf, np.append(u_first, rng.random(len(starts) - 1)), side="right")
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


def _walk(records, starts, first, pi_cdf, u_act, u_move, next_cdf, next_idx) -> None:
    """Write the records of the segments that begin at `starts` in states
    `first`, drawing actions with `u_act` and moves with `u_move`, or on
    one-hot kernels (`u_move` None) taking each cut row's first index, its
    target (`TabularMdp._targets`). A next state is the next record's state,
    but at a segment's end, which goes in the segment's slot of `first`.

    Segments go longest first, `_LANES` at a time, so the live ones are a
    prefix: step t takes record start + t of every live segment at once.
    Once fewer than `_TAIL` are live, each finishes one record at a time
    with `bisect` over the same rows. The next states are written last, so
    `u_act` may live in their row.
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
    n_states, n_actions = m["n_states"], m["n_actions"]
    header = (f"{_HEADER_PREFIX} seed={m.get('seed', 0)} env={env} n={dataset.n} "
              f"n_states={n_states} n_actions={n_actions} "
              f"regime={m.get('regime', 'iid-restart')}")
    states, actions, next_states = (np.asarray(c, dtype=np.int64)
                                    for c in (dataset.states, dataset.actions, dataset.next_states))
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
            block[:, 0] = cells[states[lo:hi] * n_actions + actions[lo:hi]]
            block[:, 1] = ends[next_states[lo:hi]]
            fh.write("".join(block.ravel().tolist()))


def read_dataset(path) -> TransitionDataset:
    """Inverse of write_dataset, whose grammar is the only one it reads: one
    `s,a,s_next` line per record, each field 1 to `width` digits (the largest
    index's count, at most 18), with "\r\n" and "\r" ending lines as in text
    mode. Any other body, or an index out of range, is `<path>:<line>: <reason>`."""
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\r" in data:  # "\r\n" and "\r" end lines, as they do in text mode
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    header, _, body = data.partition(b"\n")
    del data
    try:
        header = header.decode()
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
        meta[key] = val
    for key in ("n", "n_states", "n_actions"):
        if key not in meta:
            raise ValueError(f"{path}:1: header missing {key}")

    columns = _parse_records(path, body, meta["n_states"], meta["n_actions"])
    if len(columns[0]) != meta["n"]:
        raise ValueError(f"{path}: header says n={meta['n']} but found {len(columns[0])} records")
    return TransitionDataset(*columns, meta)


_FIELD_ENDS = np.frombuffer(b",,\n", np.uint8)  # the bytes that end a record's three fields


def _parse_records(path, body: bytes, n_states: int, n_actions: int):
    """The (s, a, s') columns of a dataset body, parsed about `_BLOCK` lines at a
    time into one (3, n) table; only a failed check looks for the first bad line."""
    if body and not body.endswith(b"\n"):
        body += b"\n"
    width = min(len(str(max(n_states, n_actions) - 1)), 18)  # 18 digits stay within int64
    records = np.empty((3, body.count(b"\n")), dtype=np.int64)
    lo = row = 0
    while lo < len(body):
        # a chunk ends at the last newline within _BLOCK lines of the widest kind
        hi = body.rfind(b"\n", lo, lo + _BLOCK * (3 * width + 3)) + 1
        if hi == 0:  # the line at lo is longer than any record
            raise _line_error(path, body, lo, width)
        chunk = np.frombuffer(body, np.uint8, hi - lo, lo)
        digits = chunk - np.uint8(ord("0"))
        ends = np.flatnonzero(digits > 9)  # every byte that is not a digit
        places = np.diff(ends, prepend=-1) - 1  # each field's digit count
        fields = len(ends)
        if (fields % 3 or (chunk.take(ends).reshape(-1, 3) != _FIELD_ENDS).any()
                or places.min() < 1 or places.max() > width):
            bad = ((chunk.take(ends) != np.resize(_FIELD_ENDS, fields))
                   | (places < 1) | (places > width))  # the fields whose end or width is wrong
            raise _line_error(path, body, lo + ends[bad.argmax()], width)
        # cast before scaling: a uint8 digit times 10 ** place wraps
        values = digits.take(ends - 1).astype(np.int64)
        for place in range(1, width):
            digit = digits.take(ends - 1 - place, mode="clip").astype(np.int64)
            values += np.where(places > place, digit, 0) * 10 ** place
        records[:, row:row + fields // 3] = values.reshape(-1, 3).T
        lo, row = hi, row + fields // 3
    try:
        return check_records(n_states, n_actions, *records)
    except ValueError:  # digits are never negative: find the first index past its bound
        limits = (n_states, n_actions, n_states)
        i, column = divmod(int((records.T >= limits).argmax()), 3)
        raise ValueError(f"{path}:{i + 2}: {('state', 'action', 'next state')[column]} index "
                         f"out of range [0, {limits[column]})") from None


def _line_error(path, body: bytes, p: int, width: int) -> ValueError:
    """The ValueError that names the body line holding byte p."""
    line = body[body.rfind(b"\n", 0, p) + 1:body.find(b"\n", p)]
    lineno = body.count(b"\n", 0, p) + 2
    try:
        reason = f"expected 's,a,s_next' of at most {width} digits each, got {line.decode()!r}"
    except UnicodeDecodeError:
        reason = "not UTF-8 text"
    return ValueError(f"{path}:{lineno}: {reason}")
