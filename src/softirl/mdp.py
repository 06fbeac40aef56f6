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


def _logsumexp_rows(f: np.ndarray) -> np.ndarray:
    """Row-wise log-sum-exp of a 2-d float array.

    The arithmetic is that of scipy.special.logsumexp: with the row max,
    its tie count m and the sum s of the other terms' exp(f - max), the
    result is log1p(s / m) + log(m) + max. Rows of all -inf give -inf, rows
    holding +inf give +inf and rows holding NaN give NaN. If every row has
    one finite max (a NaN row counts no tie, so finiteness is tested too),
    m = 1: s / m is s and log(m) is +0.0, so log1p(s) + max has the same
    bits, with no tie arithmetic and no warnings to suppress.
    """
    top = f.max(axis=1, keepdims=True)
    ties = f == top
    if np.count_nonzero(ties) == len(f) and np.isfinite(top).all():
        e = np.exp(f - top)
        e[ties] = 0.0
        return np.log1p(e.sum(axis=1)) + top[:, 0]
    with np.errstate(invalid="ignore", divide="ignore"):
        e = np.exp(f - top)
        e[ties] = 0.0
        m = ties.sum(axis=1, keepdims=True, dtype=float)
        out = np.log1p(e.sum(axis=1, keepdims=True) / m) + np.log(m) + top
    return out[:, 0]


def logsumexp_actions(f) -> np.ndarray:
    """Log-sum-exp over the action axis, computed with max-subtraction."""
    f = np.asarray(f, dtype=float)
    if f.ndim != 2:
        raise ValueError(f"state-action table must be 2-d, got shape {f.shape}")
    return _logsumexp_rows(f)


def softmax_actions(q) -> np.ndarray:
    """Row-wise softmax of a state-action table, stable for large logits."""
    q = np.asarray(q, dtype=float)
    z = q - q.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def soft_bellman_residual(mdp: TabularMdp, r, v) -> np.ndarray:
    """Residual of the soft Bellman condition; zero iff (r, v) is feasible."""
    r = _check_table(r, mdp, "r")
    v = _check_table(v, mdp, "v")
    return v - apply_P(mdp, logsumexp_actions(r + mdp.gamma * v))


def soft_value_iteration(mdp: TabularMdp, r, tol: float = 1e-10,
                         max_iter: int = 100_000, v0=None):
    """Solve v = P logsumexp(r + gamma v) by fixed-point iteration.

    Returns (v, Q, pi) with Q = r + gamma v and pi the row softmax of Q.
    The returned v has sup-norm Bellman residual at most `tol`. Raises
    RuntimeError (carrying the last residual bound) on non-convergence.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    r = _check_table(r, mdp, "r")
    gamma = mdp.gamma
    v = np.zeros_like(r) if v0 is None else _check_table(v0, mdp, "v0").copy()
    residual_bound = np.inf
    for _ in range(max_iter):
        v_new = apply_P(mdp, _logsumexp_rows(r + gamma * v))
        d = v_new - v
        diff = np.abs(d, out=d).max()
        v = v_new
        # One more backup moves v by at most gamma * diff, so gamma * diff
        # bounds the residual of v_new without an extra operator application.
        residual_bound = gamma * diff
        if residual_bound <= tol:
            q = r + gamma * v
            return v, q, softmax_actions(q)
    raise RuntimeError(
        f"soft value iteration did not reach tol={tol} in {max_iter} iterations; "
        f"last residual bound {residual_bound:.3e}"
    )


def _solve_discounted(kernel: np.ndarray, gamma: float, rhs: np.ndarray, what: str):
    """Solve (I - gamma K) x = rhs densely; (x, residual), raising if residual > 1e-9."""
    x = np.linalg.solve(np.eye(len(rhs)) - gamma * kernel, rhs)
    residual = float(np.max(np.abs(x - gamma * (kernel @ x) - rhs)))
    if residual > 1e-9:
        raise RuntimeError(f"{what} solve residual {residual:.3e} exceeds 1e-9")
    return x, residual


def _soft_policy_iteration(mdp: TabularMdp, r: np.ndarray, tol: float = 1e-10, max_iter: int = 50):
    """`soft_value_iteration`'s contract by Newton's method (soft policy iteration):
    each step solves (I - gamma K_pi) V = sum_a pi (r - log pi), pi = softmax(r + gamma v),
    and sets v = PV, until one extra sweep shows |P logsumexp(r + gamma v) - v| <= tol."""
    v = np.zeros_like(r)
    for _ in range(max_iter):
        q = r + mdp.gamma * v
        lse, pi = _logsumexp_rows(q), softmax_actions(q)
        residual = np.max(np.abs(apply_P(mdp, lse) - v))
        if residual <= tol:
            return v, q, pi
        # log pi as q - lse stays finite where pi underflows to 0
        value, _ = _solve_discounted(state_kernel(mdp, pi), mdp.gamma,
                                     np.sum(pi * (r - q + lse[:, None]), axis=1), "policy")
        v = apply_P(mdp, value)
    raise RuntimeError(f"soft policy iteration did not reach tol={tol} in {max_iter} "
                       f"steps; last residual {residual:.3e}")


def policy_Q(mdp: TabularMdp, r, pi1) -> np.ndarray:
    """Q-function of policy pi1 under reward r, by one dense linear solve."""
    r = _check_table(r, mdp, "r")
    pi1 = validate_policy(pi1, mdp.n_states, mdp.n_actions)
    ns, na = mdp.n_states, mdp.n_actions
    sa = ns * na
    # M[(s,a),(s',a')] = P(s'|s,a) pi1(a'|s')
    m = (mdp.transition[:, :, :, None] * pi1[None, None, :, :]).reshape(sa, sa)
    q = np.linalg.solve(np.eye(sa) - mdp.gamma * m, r.reshape(sa))
    residual = np.max(np.abs(q - r.reshape(sa) - mdp.gamma * (m @ q)))
    if residual > 1e-9:
        raise RuntimeError(f"policy Q solve residual {residual:.3e} exceeds 1e-9")
    return q.reshape(ns, na)


def policy_value(mdp: TabularMdp, r, pi1) -> np.ndarray:
    """State value of policy pi1 under reward r."""
    pi1 = validate_policy(pi1, mdp.n_states, mdp.n_actions)
    return expect_mu(pi1, policy_Q(mdp, r, pi1))


def state_kernel(mdp: TabularMdp, mu) -> np.ndarray:
    """State-to-state kernel induced by acting with mu: K[s, s'] = sum_a mu(a|s) P(s'|s,a)."""
    mu = validate_policy(mu, mdp.n_states, mdp.n_actions)
    return np.einsum("sa,san->sn", mu, mdp.transition)


def stationary_distribution(mdp: TabularMdp, mu, tol: float = 1e-12,
                            max_iter: int = 100_000) -> np.ndarray:
    """Stationary state distribution of the chain s -> a~mu -> s', by power iteration."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    kernel = state_kernel(mdp, mu)
    lam = np.full(mdp.n_states, 1.0 / mdp.n_states)
    for _ in range(max_iter):
        nxt = lam @ kernel
        if np.max(np.abs(nxt - lam)) <= tol:
            nxt /= nxt.sum()
            return nxt
        lam = nxt
    raise RuntimeError(
        "power iteration for the stationary distribution did not converge; the "
        "chain is likely periodic or reducible -- mix mu with a uniform measure "
        "or add restart mass to the kernel"
    )


def conditional_loglik(data, r, v, gamma: float) -> float:
    """Average per-decision log-likelihood r + gamma v - logsumexp(r + gamma v).

    `data` is either a joint (S, A) weight array (nonnegative, positive total
    mass) or an object with integer index arrays `states` and `actions`
    (e.g. a TransitionDataset).
    """
    r = np.asarray(r, dtype=float)
    v = np.asarray(v, dtype=float)
    if r.shape != v.shape or r.ndim != 2:
        raise ValueError(f"shape mismatch: r {r.shape} vs v {v.shape}")
    q = r + gamma * v
    ll = q - logsumexp_actions(q)[:, None]
    if hasattr(data, "states") and hasattr(data, "actions"):
        s = np.asarray(data.states)
        a = np.asarray(data.actions)
        if s.size == 0:
            raise ValueError("empty dataset")
        return float(np.mean(ll[s, a]))
    w = np.asarray(data, dtype=float)
    if w.shape != r.shape:
        raise ValueError(f"weight table has shape {w.shape}, expected {r.shape}")
    total = w.sum()
    if total <= 0:
        raise ValueError("weight table has no mass")
    return float(np.sum(w * ll) / total)


def sup_norm(f) -> float:
    return float(np.max(np.abs(np.asarray(f, dtype=float))))


def weighted_l2(f, weights) -> float:
    """L2 norm of a table under a joint (S, A) weight distribution."""
    f = np.asarray(f, dtype=float)
    w = np.asarray(weights, dtype=float)
    if w.shape != f.shape:
        raise ValueError(f"weights shape {w.shape} != table shape {f.shape}")
    total = w.sum()
    if total <= 0:
        raise ValueError("weights have no mass")
    return float(np.sqrt(np.sum(w * f ** 2) / total))


def lambda_mu_weights(mdp: TabularMdp, mu, tol: float = 1e-12) -> np.ndarray:
    """Joint stationary weights lambda(s) * mu(a|s) used by the L2 diagnostics."""
    mu = validate_policy(mu, mdp.n_states, mdp.n_actions)
    lam = stationary_distribution(mdp, mu, tol=tol)
    return lam[:, None] * mu


def joint_frequency(states, actions, n_states: int, n_actions: int) -> np.ndarray:
    """Empirical joint (S, A) frequency table of index arrays."""
    s = np.asarray(states)
    a = np.asarray(actions)
    if s.size == 0:
        raise ValueError("empty index arrays")
    counts = np.bincount(s * n_actions + a, minlength=n_states * n_actions)
    return counts.reshape(n_states, n_actions) / s.size
