"""Tabular MDP primitives shared by every other module.

Conventions: state-action tables are float arrays of shape (S, A), state
functions have shape (S,), and policies / conditional reference measures are
row-stochastic (S, A) arrays. Inputs are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ROW_SUM_TOL = 1e-12
# soft value iteration's error, from tol, the sweeps run and the last residual bound
_UNCONVERGED = ("soft value iteration did not reach tol={} in {} iterations; "
                "last residual bound {:.3e}")
# sweeps between soft value iteration's residual checks
CHECK_EVERY = 16
_CHUNK = 1 << 14  # records per chunk of the sampler's uniforms and of `_count_keys`


@dataclass(frozen=True)
class TabularMdp:
    """Finite MDP with a dense transition tensor P[s, a, s'] and discount < 1."""

    transition: np.ndarray
    gamma: float

    def __post_init__(self):
        t = self.transition  # kept uncopied only if it is read-only float64 owning its data
        if not isinstance(t, np.ndarray) or t.dtype != float or t.flags.writeable \
                or not t.flags.owndata:
            t = np.array(t, dtype=float)
        if t.ndim != 3 or 0 in t.shape:
            raise ValueError(f"transition must have shape (S, A, S) with S, A >= 1, got {t.shape}")
        check_distribution(t, (len(t), t.shape[1], len(t)), "transition")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must lie in [0, 1), got {self.gamma}")
        t.setflags(write=False)
        object.__setattr__(self, "transition", t)
        # one-hot rows (deterministic moves): soft VI and the sampler gather these next
        # states; `_onto`: they reach every one of two or more states, so soft VI carries lse
        targets = np.nonzero(t)[2].reshape(t.shape[:2]) if np.all((t == 0) | (t == 1)) else None
        if targets is not None:
            targets.setflags(write=False)  # shared, as the kernel is, by every user of the MDP
        object.__setattr__(self, "_targets", targets)
        object.__setattr__(self, "_onto", targets is not None and len(t) >= 2 and bool(
            np.bincount(targets.ravel(), minlength=len(t)).all()))

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    @property
    def n_actions(self) -> int:
        return self.transition.shape[1]


def check_distribution(p, shape: tuple, what: str) -> np.ndarray:
    """`p` as a float array, checked to have `shape`, finite nonnegative
    entries and sums of 1 within ROW_SUM_TOL over its last axis; each
    ValueError names the table as `what`."""
    p = np.asarray(p, dtype=float)
    if p.shape != shape:
        raise ValueError(f"{what} has shape {p.shape}, expected {shape}")
    if not np.all(np.isfinite(p)) or np.any(p < 0):
        raise ValueError(f"{what} entries must be finite and nonnegative")
    err = np.max(np.abs(p.sum(axis=-1) - 1.0))
    if err > ROW_SUM_TOL:
        raise ValueError(f"{what} must sum to 1 within {ROW_SUM_TOL} over its last axis; "
                         f"worst deviation {err:.3e}")
    return p


def index_dtype(n_states: int, n_actions: int) -> np.dtype:
    """The dtype of the record columns that `sample_transitions` and
    `read_dataset` build: the smallest signed integer type that holds
    max(S, A) - 1, int8 up to 128 states and actions."""
    return np.min_scalar_type(-min(max(n_states, n_actions, 1), 1 << 63))


def check_records(n_states: int, n_actions: int, states, actions, next_states=None) -> tuple:
    """The (s, a) or (s, a, s') record columns as arrays, checked to have an
    integer dtype, equal lengths and indices in [0, S), [0, A), [0, S); each
    ValueError names its column. Integer columns come back as given, of any
    width, so arithmetic on them must widen first. A uint64 column, which
    mixes with signed integers only through float64, comes back as int64,
    as does an empty column of another dtype, such as `[]`."""
    columns = [np.asarray(c) for c in (states, actions, next_states) if c is not None]
    if len({c.shape for c in columns}) > 1:
        raise ValueError("record columns must have equal length")
    names = ("state", "action", "next state")
    for j, (name, c, hi) in enumerate(zip(names, columns, (n_states, n_actions, n_states))):
        if not c.size:
            columns[j] = c.astype(np.int64, copy=False)
        elif c.dtype.kind not in "iu":  # a bool, float or object column
            raise ValueError(f"{name} indices must have an integer dtype, got {c.dtype}")
        elif c.min() < 0 or c.max() >= hi:
            raise ValueError(f"{name} index out of range [0, {hi})")
        elif c.dtype == np.uint64:
            columns[j] = c.astype(np.int64)
    return tuple(columns)


def apply_P(mdp: TabularMdp, f) -> np.ndarray:
    """Expected next-state value: result[s, a] = sum_s' P(s'|s,a) f(s')."""
    f = np.asarray(f, dtype=float)
    if f.shape != (mdp.n_states,):
        raise ValueError(f"state function has shape {f.shape}, expected ({mdp.n_states},)")
    return mdp.transition @ f


def _sum_actions(e: np.ndarray) -> np.ndarray:
    """Column sums of an action-major (A, n) array with the bits of numpy's
    row sums of its (n, A) transpose: those add in sequence below 8 terms,
    as the elementwise reduction over axis 0 does, and pairwise from 8 up,
    so wide action sets are summed as contiguous rows."""
    if len(e) < 8:
        return np.add.reduce(e, axis=0)
    return np.ascontiguousarray(e.T).sum(axis=1)


def _logsumexp_action_major(f: np.ndarray, work: tuple | None = None):
    """Log-sum-exp over axis 0 of an action-major (A, n) array, and whether
    every column max is finite, which makes every result finite.

    The arithmetic is that of scipy.special.logsumexp over each column: with
    the column max, its tie count m and the sum s of the other terms'
    exp(f - max), the result is log1p(s / m) + log(m) + max. Columns of all
    -inf give -inf, columns holding +inf give +inf and columns holding NaN
    give NaN. If every column has one finite max, m = 1: s / m is s and
    log(m) is +0.0, so log1p(s) + max has the same bits, with no tie
    arithmetic and no warnings to suppress. A NaN column counts no tie, so
    the finite maxes are counted too (their sum could warn: inf - inf and
    overflow). Every step is elementwise across columns; `work` may hold
    (n,), boolean (A, n) and (A, n) buffers for the maxes, ties and exps.
    """
    top, ties, e = work or (np.empty(f.shape[1]), np.empty(f.shape, bool), np.empty(f.shape))
    np.maximum.reduce(f, axis=0, out=top)
    np.equal(f, top, out=ties)
    finite = np.count_nonzero(np.isfinite(top)) == len(top)
    if finite and np.count_nonzero(ties) == len(top):
        np.subtract(f, top, out=e)
        np.exp(e, out=e)
        np.putmask(e, ties, 0.0)
        out = np.log1p(_sum_actions(e))
        out += top
        return out, finite
    with np.errstate(invalid="ignore", divide="ignore"):
        e = np.exp(f - top)
        np.putmask(e, ties, 0.0)
        m = np.add.reduce(ties, axis=0, dtype=float)
        return np.log1p(_sum_actions(e) / m) + np.log(m) + top, finite


def softmax_actions(q) -> np.ndarray:
    """Row-wise softmax of a state-action table, stable for large logits."""
    q = np.asarray(q, dtype=float)
    z = q - q.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def row_kl(p, q) -> np.ndarray:
    """KL(p(.|s) || q(.|s)) per row; a term where p is 0 is 0, and q is floored at 1e-300."""
    log_ratio = np.log(np.maximum(p, 1e-300)) - np.log(np.maximum(q, 1e-300))
    return np.where(p > 0, p * log_ratio, 0.0).sum(axis=1)


def soft_value_iteration(mdp: TabularMdp, r, tol: float = 1e-10, max_iter: int = 100_000):
    """Solve v = P logsumexp(r + gamma v) by fixed-point iteration from v = 0.

    Returns (v, Q, pi) with Q = r + gamma v and pi the row softmax of Q.
    The returned v has sup-norm Bellman residual at most `tol`. Raises
    RuntimeError (carrying the last residual bound) on non-convergence.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    r = np.asarray(r, dtype=float)
    if r.shape != (mdp.n_states, mdp.n_actions):
        raise ValueError(f"r has shape {r.shape}, expected ({mdp.n_states}, {mdp.n_actions})")
    (result,) = _soft_value_iteration(mdp, r[None], tol, max_iter=max_iter)
    if isinstance(result, RuntimeError):
        raise result
    return result


def _soft_value_iteration(mdp: TabularMdp, r: np.ndarray, tol: float,
                          v0: np.ndarray | None = None, max_iter: int = 100_000) -> list:
    """The soft value-iteration loop over a (B, S, A) stack of problems.

    Each sweep runs on action-major (A, B*S) arrays, so the reductions over
    actions are elementwise across states and problems, and does each
    problem's row-major arithmetic bit for bit; its buffers are made once per
    batch width. A problem leaves the batch at the sweep where its own
    residual bound reaches `tol`, with v = P lse of that sweep's log-sum-exps.
    Returns, per problem, (v, Q, pi) or the RuntimeError of a problem short
    of `tol` after `max_iter` sweeps, or at the first sweep where its bound is NaN.

    The kernel fixes the state the loop carries for the whole solve. On onto
    kernels it is lse, and v its gather, which has the matmul's bits (no
    log-sum-exp is -0.0). A gather only copies, so (gamma * lse)[gather] + r
    has the bits of gamma * v + r, and max |v_new - v| over (s, a) is
    max |lse_new - lse| over states. A non-finite lse gets a NaN bound: some
    move misses each of two or more states, so the matmul's 0 * inf makes
    its v NaN. On other kernels the state is v = P lse, one stacked matmul
    per sweep with `apply_P`'s bits per problem. Residuals are checked on
    every kernel together, every CHECK_EVERY sweeps, at `max_iter`, at a
    warm start's first sweep (v0 against v over (s, a)), at a non-finite one,
    and where every live bound must have reached `tol`, if sooner: a problem
    stops at its first sweep whose bound does, wherever the checks fall.
    """
    n_problems, ns, na = r.shape
    gamma, onto = mdp.gamma, mdp._onto
    r_am = np.ascontiguousarray(r.transpose(2, 0, 1)).reshape(na, -1)
    # block: the states from the last check on; a 2-d state is v over (s, a)
    block = [np.zeros(n_problems * ns if onto else r_am.shape) if v0 is None
             else np.ascontiguousarray(v0.transpose(2, 0, 1)).reshape(na, -1)]
    live, results, width = np.arange(n_problems), [None] * n_problems, 0
    last, due = np.full(n_problems, np.inf), CHECK_EVERY
    for sweep in range(1, max_iter + 1):
        if width != len(live):  # a new or narrower batch: remake the buffers
            width = len(live)
            shape = (na, width * ns)
            work = (np.empty(width * ns), np.empty(shape, bool), np.empty(shape))
            if onto:
                # C-ordered: column j*S + s of the j-th live problem reads its next states
                gather = (np.ascontiguousarray(mdp._targets.T)[:, None]
                          + ns * np.arange(width)[:, None]).reshape(shape)
        f = gamma * block[-1] if block[-1].ndim == 2 else (gamma * block[-1])[gather]
        f += r_am
        state, finite = _logsumexp_action_major(f, work)
        if not onto:  # v = P lse in one product, copied to C order: a reshape would be strided
            state = np.matmul(mdp.transition, state.reshape(width, 1, ns, 1))
            state = state.reshape(-1, na).T.copy()
        block.append(state)
        if len(block) <= due and sweep < max_iter and finite and (sweep > 1 or v0 is None):
            continue
        if block[0].ndim > state.ndim:  # v0 against the first sweep's v
            block[-1] = state[gather]
        d = np.abs(np.diff(block, axis=0))
        diff = np.maximum.reduce(d.reshape(len(d), -1, width, ns), axis=(1, 3))
        if onto and not finite:
            diff[-1, ~np.isfinite(state).reshape(width, ns).all(axis=1)] = np.nan
        # One more backup moves v by at most gamma * diff, so gamma * diff bounds its
        # residual. A NaN bound never clears (0 * inf, inf - inf): it fails its problem.
        stop = (gamma * diff <= tol) | np.isnan(diff)
        leave = stop.any(axis=0)
        last = gamma * diff[-1, ~leave]
        for j in np.flatnonzero(leave):
            k = stop[:, j].argmax()  # the row of the problem's first stopping sweep
            if np.isnan(diff[k, j]):
                results[live[j]] = RuntimeError(_UNCONVERGED.format(
                    tol, sweep - len(diff) + 1 + k, np.nan))
                continue
            cols = slice(j * ns, (j + 1) * ns)
            x = block[k + 1]
            v_j = x[cols][mdp._targets] if x.ndim == 1 else np.ascontiguousarray(x[:, cols].T)
            q = r[live[j]] + gamma * v_j
            results[live[j]] = (v_j, q, softmax_actions(q))
        live, block = live[~leave], [state]
        if not len(live):
            return results
        # a bound shrinks by gamma per sweep: every live one reaches tol within this many
        due = int(min(np.ceil(np.log(last.max() / tol) / -np.log(gamma)), CHECK_EVERY))
        if leave.any():
            keep = np.repeat(~leave, ns)  # compress, unlike a mask, keeps C order
            r_am, block = np.compress(keep, r_am, axis=1), [np.compress(keep, state, axis=-1)]
    for index, bound in zip(live, last):
        results[index] = RuntimeError(_UNCONVERGED.format(tol, max_iter, bound))
    return results


def _solve_discounted(kernel: np.ndarray, gamma: float, rhs: np.ndarray, what: str):
    """Solve (I - gamma K) x = rhs densely, raising if the residual exceeds 1e-9."""
    x = np.linalg.solve(np.eye(len(rhs)) - gamma * kernel, rhs)
    residual = float(np.max(np.abs(x - gamma * (kernel @ x) - rhs)))
    if residual > 1e-9:
        raise RuntimeError(f"{what} solve residual {residual:.3e} exceeds 1e-9")
    return x


def _soft_policy_iteration(mdp: TabularMdp, r: np.ndarray, tol: float = 1e-10, max_iter: int = 50,
                           v0: np.ndarray | None = None):
    """`soft_value_iteration`'s contract by Newton's method (soft policy iteration):
    each step solves (I - gamma K_pi) V = sum_a pi (r - log pi), pi = softmax(r + gamma v),
    and sets v = PV, until one extra sweep shows |P logsumexp(r + gamma v) - v| <= tol.
    It starts from the (S, A) table `v0`, or from v = 0."""
    v = np.zeros_like(r) if v0 is None else v0
    for _ in range(max_iter):
        q = r + mdp.gamma * v
        lse, pi = _logsumexp_action_major(q.T)[0], softmax_actions(q)
        residual = np.max(np.abs(apply_P(mdp, lse) - v))
        if residual <= tol:
            return v, q, pi
        # log pi as q - lse stays finite where pi underflows to 0
        value = _solve_discounted(state_kernel(mdp, pi), mdp.gamma,
                                  np.sum(pi * (r - q + lse[:, None]), axis=1), "policy")
        v = apply_P(mdp, value)
    raise RuntimeError(f"soft policy iteration did not reach tol={tol} in {max_iter} "
                       f"steps; last residual {residual:.3e}")


def state_kernel(mdp: TabularMdp, mu) -> np.ndarray:
    """State-to-state kernel induced by acting with mu: K[s, s'] = sum_a mu(a|s) P(s'|s,a).

    mu is not checked: callers pass a policy they built or validated."""
    return np.einsum("sa,san->sn", mu, mdp.transition)


def joint_frequency(states, actions, n_states: int, n_actions: int) -> np.ndarray:
    """Empirical joint (S, A) frequency table of index arrays."""
    s = np.asarray(states)
    a = np.asarray(actions)
    if s.size == 0:
        raise ValueError("empty index arrays")
    counts = _count_keys(lambda lo, hi: _cell_keys(s[lo:hi], a[lo:hi], n_actions), s.size,
                         n_states * n_actions)
    return counts.reshape(n_states, n_actions) / s.size


def _cell_keys(states, actions, n_actions: int) -> np.ndarray:
    """The cells s * A + a of index arrays, widened to intp before the product:
    an int8 times a Python int stays int8 and wraps."""
    keys = states.astype(np.intp, casting="same_kind")
    keys *= n_actions
    keys += actions
    return keys


def _count_keys(keys, n: int, n_bins: int) -> np.ndarray:
    """`np.bincount` of n records' keys in [0, n_bins), where keys(lo, hi)
    gives records lo:hi's, taken max(_CHUNK, n_bins) records at a time so that
    no n-sized key array exists; the counts are integers, so they are exact."""
    counts = np.zeros(n_bins, dtype=np.intp)
    step = max(_CHUNK, n_bins)  # each chunk's bincount costs n_bins
    for lo in range(0, n, step):
        counts += np.bincount(keys(lo, min(lo + step, n)), minlength=n_bins)
    return counts
