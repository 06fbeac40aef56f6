"""Tabular MDP primitives shared by every other module.

Conventions: state-action tables are float arrays of shape (S, A), state
functions have shape (S,), and policies / conditional reference measures are
row-stochastic (S, A) arrays. All operations here are pure functions; inputs
are never mutated, so values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class TabularMdp:
    """Finite MDP with a dense transition tensor P[s, a, s'] and discount < 1."""

    transition: np.ndarray
    gamma: float

    def __post_init__(self):
        t = np.array(self.transition, dtype=float)
        if t.ndim != 3 or t.shape[0] != t.shape[2]:
            raise ValueError(f"transition must have shape (S, A, S), got {t.shape}")
        if t.shape[0] < 1 or t.shape[1] < 1:
            raise ValueError("need at least one state and one action")
        if not np.all(np.isfinite(t)) or np.any(t < 0):
            raise ValueError("transition entries must be finite and nonnegative")
        row_err = np.max(np.abs(t.sum(axis=2) - 1.0))
        if row_err > ROW_SUM_TOL:
            raise ValueError(
                f"every transition row must sum to 1 within {ROW_SUM_TOL}; "
                f"worst deviation {row_err:.3e}"
            )
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must lie in [0, 1), got {self.gamma}")
        t.setflags(write=False)
        object.__setattr__(self, "transition", t)
        # one-hot rows (deterministic moves): `apply_P` gathers at these next states
        one_hot = np.all((t == 0.0) | (t == 1.0))
        object.__setattr__(self, "_targets", t.argmax(axis=2) if one_hot else None)

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    @property
    def n_actions(self) -> int:
        return self.transition.shape[1]


def validate_policy(probs, n_states=None, n_actions=None) -> np.ndarray:
    """Check that `probs` is a row-stochastic (S, A) table and return it as float."""
    p = np.asarray(probs, dtype=float)
    if p.ndim != 2:
        raise ValueError(f"policy table must be 2-d, got shape {p.shape}")
    if n_states is not None and p.shape != (n_states, n_actions):
        raise ValueError(f"policy shape {p.shape} != ({n_states}, {n_actions})")
    if not np.all(np.isfinite(p)) or np.any(p < 0):
        raise ValueError("policy entries must be finite and nonnegative")
    row_err = np.max(np.abs(p.sum(axis=1) - 1.0))
    if row_err > ROW_SUM_TOL:
        raise ValueError(f"policy rows must sum to 1 within {ROW_SUM_TOL}")
    return p


def validate_state_distribution(weights, n_states=None) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1:
        raise ValueError(f"state distribution must be 1-d, got shape {w.shape}")
    if n_states is not None and w.shape[0] != n_states:
        raise ValueError(f"state distribution has {w.shape[0]} entries, expected {n_states}")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise ValueError("state distribution entries must be finite and nonnegative")
    if abs(w.sum() - 1.0) > ROW_SUM_TOL:
        raise ValueError(f"state distribution must sum to 1 within {ROW_SUM_TOL}")
    return w


def _check_table(f, mdp: TabularMdp, name: str) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape != (mdp.n_states, mdp.n_actions):
        raise ValueError(
            f"{name} has shape {f.shape}, expected ({mdp.n_states}, {mdp.n_actions})"
        )
    return f


def apply_P(mdp: TabularMdp, f) -> np.ndarray:
    """Expected next-state value: result[s, a] = sum_s' P(s'|s,a) f(s').

    One-hot kernels with finite f gather f(s') + 0.0, the matmul's bits: its
    dot product is f(s') plus signed zeros, so a -0.0 comes back +0.0.
    Non-finite f (0 * inf is NaN) and stochastic kernels take the matmul.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (mdp.n_states,):
        raise ValueError(f"state function has shape {f.shape}, expected ({mdp.n_states},)")
    if mdp._targets is not None and np.isfinite(f).all():
        return f[mdp._targets] + 0.0
    return mdp.transition @ f


def expect_mu(mu, f) -> np.ndarray:
    """Action expectation under a conditional measure: result[s] = sum_a mu(a|s) f(s,a)."""
    mu = np.asarray(mu, dtype=float)
    f = np.asarray(f, dtype=float)
    if mu.shape != f.shape or mu.ndim != 2:
        raise ValueError(f"shape mismatch: mu {mu.shape} vs f {f.shape}")
    return np.sum(mu * f, axis=1)


def _sum_actions(e: np.ndarray) -> np.ndarray:
    """Column sums of an action-major (A, n) array with the bits of numpy's
    row sums of its (n, A) transpose: those add in sequence below 8 terms,
    as the elementwise reduction over axis 0 does, and pairwise from 8 up,
    so wide action sets are summed as contiguous rows."""
    if len(e) < 8:
        return np.add.reduce(e, axis=0)
    return np.ascontiguousarray(e.T).sum(axis=1)


def _logsumexp_action_major(f: np.ndarray) -> np.ndarray:
    """Log-sum-exp over axis 0 of an action-major (A, n) array.

    The arithmetic is that of scipy.special.logsumexp over each column: with
    the column max, its tie count m and the sum s of the other terms'
    exp(f - max), the result is log1p(s / m) + log(m) + max. Columns of all
    -inf give -inf, columns holding +inf give +inf and columns holding NaN
    give NaN. If every column has one finite max (a NaN column counts no
    tie, so finiteness is tested too), m = 1: s / m is s and log(m) is +0.0,
    so log1p(s) + max has the same bits, with no tie arithmetic and no
    warnings to suppress; there every exp is finite, so zeroing the max's
    term is a multiply by the not-a-max mask. Every step is elementwise
    across columns.
    """
    top = np.maximum.reduce(f, axis=0)
    others = f != top
    if np.count_nonzero(others) == others.size - len(top) and np.isfinite(top).all():
        e = f - top
        np.exp(e, out=e)
        e *= others
        out = np.log1p(_sum_actions(e))
        out += top
        return out
    ties = ~others
    with np.errstate(invalid="ignore", divide="ignore"):
        e = np.exp(f - top)
        np.putmask(e, ties, 0.0)
        m = np.add.reduce(ties, axis=0, dtype=float)
        return np.log1p(_sum_actions(e) / m) + np.log(m) + top


def softmax_actions(q) -> np.ndarray:
    """Row-wise softmax of a state-action table, stable for large logits."""
    q = np.asarray(q, dtype=float)
    z = q - q.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def soft_value_iteration(mdp: TabularMdp, r, tol: float = 1e-10, max_iter: int = 100_000):
    """Solve v = P logsumexp(r + gamma v) by fixed-point iteration from v = 0.

    Returns (v, Q, pi) with Q = r + gamma v and pi the row softmax of Q.
    The returned v has sup-norm Bellman residual at most `tol`. Raises
    RuntimeError (carrying the last residual bound) on non-convergence.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    (result,) = _soft_value_iteration(mdp, _check_table(r, mdp, "r")[None], tol,
                                      max_iter=max_iter)
    if isinstance(result, RuntimeError):
        raise result
    return result


def _soft_value_iteration(mdp: TabularMdp, r: np.ndarray, tol: float,
                          v0: np.ndarray | None = None, max_iter: int = 100_000) -> list:
    """The soft value-iteration loop over a (B, S, A) stack of problems.

    Each sweep runs on action-major (A, B*S) arrays, so the reductions over
    actions are elementwise across states and problems, and does each
    problem's row-major arithmetic bit for bit. A problem leaves the batch at
    the sweep where its own residual bound reaches `tol`. Returns, per
    problem, (v, Q, pi) or the RuntimeError of a problem still short of
    `tol` after `max_iter` sweeps.
    """
    n_problems, ns, na = r.shape
    gamma = mdp.gamma
    r_am = np.ascontiguousarray(r.transpose(2, 0, 1)).reshape(na, -1)
    v = np.zeros_like(r_am) if v0 is None else np.ascontiguousarray(
        v0.transpose(2, 0, 1)).reshape(na, -1)
    live = np.arange(n_problems)
    bound = np.full(n_problems, np.inf)
    targets = mdp._targets
    if targets is not None:
        # column j*S + s of the j-th live problem reads that problem's next states
        targets = np.ascontiguousarray(targets.T[:, None, :] + ns * live[:, None]).reshape(na, -1)
    results = [None] * n_problems
    for _ in range(max_iter):
        f = gamma * v
        f += r_am
        lse = _logsumexp_action_major(f)
        if targets is not None and np.isfinite(lse).all():
            # apply_P's gather for every live problem: + 0.0 turns -0.0 into
            # the matmul's +0.0
            v_new = lse[targets]
            v_new += 0.0
        else:
            v_new = np.empty_like(v)
            for j in range(len(live)):
                block = slice(j * ns, (j + 1) * ns)
                v_new[:, block] = apply_P(mdp, lse[block].copy()).T
        d = v_new - v
        np.abs(d, out=d)
        diff = np.maximum.reduce(d.reshape(na, len(live), ns), axis=(0, 2))
        v = v_new
        # One more backup moves v by at most gamma * diff, so gamma * diff
        # bounds the residual of v_new without an extra operator application.
        bound = gamma * diff
        done = bound <= tol
        if np.count_nonzero(done):
            blocks = v.reshape(na, len(live), ns)
            for j in np.flatnonzero(done):
                v_j = np.ascontiguousarray(blocks[:, j].T)
                q = r[live[j]] + gamma * v_j
                results[live[j]] = (v_j, q, softmax_actions(q))
            live, bound = live[~done], bound[~done]
            if not len(live):
                return results
            keep = np.repeat(~done, ns)
            r_am, v = r_am[:, keep], v[:, keep]
            if targets is not None:
                targets = np.ascontiguousarray(targets[:, :len(live) * ns])
    for index, last in zip(live, bound):
        results[index] = RuntimeError(
            f"soft value iteration did not reach tol={tol} in {max_iter} iterations; "
            f"last residual bound {last:.3e}")
    return results


def _solve_discounted(kernel: np.ndarray, gamma: float, rhs: np.ndarray, what: str):
    """Solve (I - gamma K) x = rhs densely, raising if the residual exceeds 1e-9."""
    x = np.linalg.solve(np.eye(len(rhs)) - gamma * kernel, rhs)
    residual = float(np.max(np.abs(x - gamma * (kernel @ x) - rhs)))
    if residual > 1e-9:
        raise RuntimeError(f"{what} solve residual {residual:.3e} exceeds 1e-9")
    return x


def _soft_policy_iteration(mdp: TabularMdp, r: np.ndarray, tol: float = 1e-10, max_iter: int = 50):
    """`soft_value_iteration`'s contract by Newton's method (soft policy iteration):
    each step solves (I - gamma K_pi) V = sum_a pi (r - log pi), pi = softmax(r + gamma v),
    and sets v = PV, until one extra sweep shows |P logsumexp(r + gamma v) - v| <= tol."""
    v = np.zeros_like(r)
    for _ in range(max_iter):
        q = r + mdp.gamma * v
        lse, pi = _logsumexp_action_major(q.T), softmax_actions(q)
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
    counts = np.bincount(s * n_actions + a, minlength=n_states * n_actions)
    return counts.reshape(n_states, n_actions) / s.size
