"""Reference implementations the tests check the package against.

Nothing in the package calls these: they state the model's identities
(soft Bellman feasibility, conditional likelihood, policy evaluation,
potential shaping, the MaxEnt likelihood gradient, the fitted fixed point
with exact oracles and its full-sample limit as K grows) in plain code. Each one runs the package's own kernels
(`mdp._logsumexp_action_major`, `maxent._loglik_and_grad`,
`solver._fitted_fixed_point`), so a test that uses them still tests package
code.

The last eight are the plain forms of six fast paths: the dense fold maps
(`dense_fit_regressor`, `dense_fit_regressor_folds`,
`dense_fitted_fixed_point`), the per-record dataset writer
(`write_dataset_per_record`), the per-line dataset reader
(`read_dataset_per_line`), the row-by-row table writer (`savetxt_table`),
`build_env`'s kernel fill and reward rescale (`cold_build_env`) and the
sampler's cut CDF rows from the dense (S, A, S) cumsum
(`dense_support_rows`).
`weighted_evaluate` keeps `metrics.evaluate`'s arithmetic from before it
took plain means: sums weighted by 1/S, which a packaged benchmark's scores
match bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from softirl.envs import (_HEADER_PREFIX, N_ACTIONS, REWARD_SCALE, TransitionDataset,
                          _move_targets, _unit_reward)
from softirl.maxent import _loglik_and_grad
from softirl.metrics import qdiff
from softirl.mdp import (
    TabularMdp,
    _logsumexp_action_major,
    _soft_policy_iteration,
    _solve_discounted,
    apply_P,
    check_distribution,
    index_dtype,
    soft_value_iteration,
    softmax_actions,
    state_kernel,
)
from softirl.oracles import FittedRegressor, fit_regressor
from softirl.solver import (
    IrlSolution,
    SolverDiagnostics,
    _assemble,
    _fit_policy,
    _fitted_fixed_point,
)


def logsumexp_actions(f) -> np.ndarray:
    """Log-sum-exp over the action axis, computed with max-subtraction."""
    f = np.asarray(f, dtype=float)
    if f.ndim != 2:
        raise ValueError(f"state-action table must be 2-d, got shape {f.shape}")
    return _logsumexp_action_major(f.T)[0]


def _table(f, mdp: TabularMdp, name: str) -> np.ndarray:
    """`f` as a float array, checked to be an (S, A) table of `mdp`."""
    f = np.asarray(f, dtype=float)
    if f.shape != (mdp.n_states, mdp.n_actions):
        raise ValueError(f"{name} has shape {f.shape}, expected ({mdp.n_states}, {mdp.n_actions})")
    return f


def expect_mu(mu, f) -> np.ndarray:
    """Action expectation under a conditional measure: result[s] = sum_a mu(a|s) f(s,a)."""
    mu = np.asarray(mu, dtype=float)
    f = np.asarray(f, dtype=float)
    if mu.shape != f.shape or mu.ndim != 2:
        raise ValueError(f"shape mismatch: mu {mu.shape} vs f {f.shape}")
    return np.sum(mu * f, axis=1)


def soft_bellman_residual(mdp: TabularMdp, r, v) -> np.ndarray:
    """Residual of the soft Bellman condition; zero iff (r, v) is feasible."""
    r = _table(r, mdp, "r")
    v = _table(v, mdp, "v")
    return v - apply_P(mdp, logsumexp_actions(r + mdp.gamma * v))


def policy_Q(mdp: TabularMdp, r, pi1) -> np.ndarray:
    """Q-function of policy pi1 under reward r, by one dense linear solve."""
    r = _table(r, mdp, "r")
    pi1 = check_distribution(pi1, (mdp.n_states, mdp.n_actions), "pi1")
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
    pi1 = check_distribution(pi1, (mdp.n_states, mdp.n_actions), "pi1")
    return expect_mu(pi1, policy_Q(mdp, r, pi1))


def stationary_distribution(mdp: TabularMdp, mu, tol: float = 1e-12,
                            max_iter: int = 100_000) -> np.ndarray:
    """Stationary state distribution of the chain s -> a~mu -> s', by power iteration."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    kernel = state_kernel(mdp, check_distribution(mu, (mdp.n_states, mdp.n_actions), "mu"))
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


def lambda_mu_weights(mdp: TabularMdp, mu, tol: float = 1e-12) -> np.ndarray:
    """Joint stationary weights lambda(s) * mu(a|s) used by the L2 diagnostics."""
    mu = check_distribution(mu, (mdp.n_states, mdp.n_actions), "mu")
    lam = stationary_distribution(mdp, mu, tol=tol)
    return lam[:, None] * mu


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


def shape(r, v, c, mdp: TabularMdp):
    """Potential shaping: (r + c - gamma Pc, v + Pc) preserves feasibility
    and likelihood for any state potential c."""
    r = np.asarray(r, dtype=float)
    v = np.asarray(v, dtype=float)
    if r.shape != v.shape or r.shape != (mdp.n_states, mdp.n_actions):
        raise ValueError(f"shape mismatch: r {r.shape}, v {v.shape}")
    pc = apply_P(mdp, np.asarray(c, dtype=float))
    return r + np.asarray(c, dtype=float)[:, None] - mdp.gamma * pc, v + pc


def maxent_loglik_and_grad(mdp: TabularMdp, phi, theta, weights):
    """Mean per-decision log-likelihood and its exact gradient in theta,
    for a joint (S, A) weight table with positive mass (normalized here).
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape[:2] != (mdp.n_states, mdp.n_actions):
        raise ValueError(f"feature shape {phi.shape} does not match the MDP")
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (phi.shape[2],):
        raise ValueError(f"theta has shape {theta.shape}, expected ({phi.shape[2]},)")
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (mdp.n_states, mdp.n_actions) or not weights.sum() > 0:
        raise ValueError(f"need an ({mdp.n_states}, {mdp.n_actions}) weight table with mass")
    weights = weights / weights.sum()
    phi_flat = phi.reshape(-1, phi.shape[2])
    r = (phi_flat @ theta).reshape(mdp.n_states, mdp.n_actions)
    _, _, pi = soft_value_iteration(mdp, r, tol=1e-12)
    return _loglik_and_grad(mdp, phi_flat, weights, pi)


def population_fixed_point(mdp: TabularMdp, pi, cfg, record_iterates=False):
    """`classify_then_regress` with both oracles exact, its infinite-data
    limit: the classifier returns pi and the regression map is the true
    kernel, so eta = 0. `cfg.K` must be an integer."""
    pi = check_distribution(pi, (mdp.n_states, mdp.n_actions), "pi")
    if np.any(pi <= 0.0):
        raise ValueError("behavior policy has zero entries (log undefined); floor it first")
    u = np.log(pi)
    mu_t = cfg.mu_table(mdp.n_states, mdp.n_actions, behavior=pi)
    n_cells = mdp.n_states * mdp.n_actions
    transition = mdp.transition.reshape(n_cells, mdp.n_states)
    support = np.nonzero(transition)
    no_records = np.zeros(0, dtype=np.int64)
    exact = FittedRegressor((*support, transition[support]),
                            (no_records, no_records, no_records), {"n_empty_cells": 0})
    return _fitted_fixed_point(cfg, u, mu_t, [exact] * int(cfg.K),
                               SolverDiagnostics(nu_proxy=0.0), record_iterates)


def plugin_fixed_point(dataset, cfg):
    """`classify_then_regress` at K = infinity, by one linear solve. Its loop
    is v <- M g with g = mu[gamma v - u], M the full sample's fitted map, so
    the fixed point's g = c solves (I - gamma mu M) c = -mu u and v = M c.
    Returns that solution and M as a dense (S*A, S) array."""
    ns, na = dataset.meta["n_states"], dataset.meta["n_actions"]
    u, mu_t, diag = _fit_policy(cfg, dataset, dataset.n)
    fitted = fit_regressor(dataset.states, dataset.actions, dataset.next_states, ns, na)
    rows, cols, values = fitted.kernel
    kernel = np.zeros((ns * na, ns))
    kernel[rows, cols] = values
    g = _solve_discounted(np.einsum("sa,san->sn", mu_t, kernel.reshape(ns, na, ns)), cfg.gamma,
                          -np.sum(mu_t * u, axis=1), "plug-in")
    v = (kernel @ g).reshape(ns, na)
    r, c = _assemble(u, v, mu_t, cfg.gamma)
    return IrlSolution(r, v, u, c, mu_t, cfg.gamma, diag), kernel


@dataclass
class DenseFit:
    """A fold's map g -> kernel @ g with dense (S*A, S) `kernel` and
    `counts` matrices."""

    kernel: np.ndarray
    counts: np.ndarray
    diagnostics: dict


def dense_fit_regressor(states, actions, next_states, n_states, n_actions):
    """`oracles.fit_regressor` on dense (S*A, S) arrays: the kernel is counts / cnt."""
    s, a, s2 = (np.asarray(x, dtype=np.int64) for x in (states, actions, next_states))
    n_cells = n_states * n_actions
    counts = np.bincount((s * n_actions + a) * n_states + s2,
                         minlength=n_cells * n_states).reshape(n_cells, n_states)
    cnt = counts.sum(axis=1)
    return DenseFit(counts / np.maximum(cnt, 1)[:, None], counts,
                    {"n_empty_cells": int(np.sum(cnt == 0)), "n_train": int(s.size)})


def dense_fit_regressor_folds(states, actions, next_states, n_states, n_actions, folds):
    """`oracles.fit_regressor_folds` as one `dense_fit_regressor` per fold."""
    size = len(states) // folds
    return [dense_fit_regressor(states[lo:lo + size], actions[lo:lo + size],
                                next_states[lo:lo + size], n_states, n_actions)
            for lo in range(0, folds * size, size)]


def dense_fitted_fixed_point(cfg, u, mu_t, maps, diag, record_iterates):
    """`solver._fitted_fixed_point` over `DenseFit` maps: v <- kernel @ g,
    with eta read off the dense counts' nonzeros."""
    v = np.zeros_like(u)
    for fitted in maps:
        rows, cols = np.nonzero(fitted.counts)
        weights = fitted.counts[rows, cols]
        g = expect_mu(mu_t, cfg.gamma * v - u)
        flat = fitted.kernel @ g
        diag.eta.append(float(np.sqrt(weights @ (flat[rows] - g[cols]) ** 2
                                      / max(int(weights.sum()), 1))))
        v = flat.reshape(u.shape)
    empty_seen = max((m.diagnostics["n_empty_cells"] for m in maps), default=0)
    if empty_seen:
        diag.warnings.append(
            f"up to {empty_seen} (s, a) cells unvisited per regression fold; each predicts 0"
        )
    r, c = _assemble(u, v, mu_t, cfg.gamma)
    return IrlSolution(r, v, u, c, mu_t, cfg.gamma, diag)


def write_dataset_per_record(dataset: TransitionDataset, path) -> None:
    """`envs.write_dataset` formatting each record with its own `%`."""
    m = dataset.meta
    with open(path, "w") as fh:
        fh.write(f"{_HEADER_PREFIX} seed={m.get('seed', 0)} env={m.get('env', '-') or '-'} "
                 f"n={dataset.n} n_states={m['n_states']} n_actions={m['n_actions']} "
                 f"regime={m.get('regime', 'iid-restart')}\n")
        for record in zip(dataset.states, dataset.actions, dataset.next_states):
            fh.write("%d,%d,%d\n" % record)


def read_dataset_per_line(path) -> TransitionDataset:
    """`envs.read_dataset` parsing each body line in Python with int()."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
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
            elif not val:
                raise ValueError(f"{path}:1: empty header value {tok!r}")
            meta[key] = val
        for key in ("n", "n_states", "n_actions"):
            if key not in meta:
                raise ValueError(f"{path}:1: header missing {key}")

        states, actions, next_states = [], [], []
        for lineno, line in enumerate(fh, start=2):
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
            if not 0 <= s < meta["n_states"] or not 0 <= s2 < meta["n_states"]:
                raise ValueError(f"{path}:{lineno}: state index out of range")
            if not 0 <= a < meta["n_actions"]:
                raise ValueError(f"{path}:{lineno}: action index out of range")
            states.append(s)
            actions.append(a)
            next_states.append(s2)

    if len(states) != meta["n"]:
        raise ValueError(f"{path}: header says n={meta['n']} but found {len(states)} records")
    dtype = index_dtype(meta["n_states"], meta["n_actions"])
    ds = TransitionDataset(np.array(states, dtype=dtype), np.array(actions, dtype=dtype),
                           np.array(next_states, dtype=dtype), meta)
    ds.validate()
    return ds


def savetxt_table(path, table, header: str) -> None:
    """`solver._write_table` as `np.savetxt`, which formats one row at a time."""
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=header, comments="")


def cold_build_env(spec):
    """`envs.build_env`'s (transition, r_true, phi) from a kernel filled one
    cell at a time and a rescale that starts every Newton solve from v = 0,
    with |pi.min() - min_action_prob| at each scale tried."""
    targets, ns = _move_targets(spec), spec.n_states
    transition = np.zeros((ns, N_ACTIONS, ns))
    for s in range(ns):
        for a in range(N_ACTIONS):
            transition[s, a, targets[s, a]] += 1.0 - spec.move_noise
            for b in range(N_ACTIONS):
                transition[s, a, targets[s, b]] += spec.move_noise / N_ACTIONS
    mdp = TabularMdp(transition, spec.gamma)
    raw, phi = _unit_reward(spec)
    scale, gaps = REWARD_SCALE, []
    r_true = scale * raw
    if spec.min_action_prob > 0.0:
        for _ in range(80):
            _, _, pi = _soft_policy_iteration(mdp, r_true, tol=1e-9)
            gaps.append(abs(pi.min() - spec.min_action_prob))
            if pi.min() >= spec.min_action_prob:
                break
            scale *= 0.9
            r_true = scale * raw
        else:
            raise RuntimeError("could not satisfy min_action_prob by rescaling")
    return transition, r_true, phi, gaps


def dense_support_rows(transition: np.ndarray):
    """`envs._support_rows` from the dense (S, A, S) CDF, cut by a stable
    argsort to each row's support plus its last index; the padding's CDF is
    +inf and its indices are the first ones off the support."""
    trans_cdf = np.cumsum(transition, axis=-1)
    trans_cdf[..., -1] = np.inf
    keep = transition > 0
    keep[..., -1] = True
    idx = np.argsort(~keep, axis=-1, kind="stable")[..., :keep.sum(axis=-1).max()].copy()
    cdf = np.take_along_axis(trans_cdf, idx, axis=-1)
    cdf[~np.take_along_axis(keep, idx, axis=-1)] = np.inf
    return cdf, idx


def weighted_evaluate(mdp: TabularMdp, r_true, pi_expert, r_hat, v_hat=None) -> dict:
    """`metrics.evaluate` as a weighted sum over states with weights 1/S, and
    its correlation as a Pearson weighted by 1/S per (state, action) entry;
    the true Q-differences are those of log pi_expert."""
    pi_expert = np.asarray(pi_expert, dtype=float)
    if v_hat is not None:
        q_hat = np.asarray(r_hat, dtype=float) + mdp.gamma * np.asarray(v_hat, dtype=float)
    else:
        _, q_hat, _ = soft_value_iteration(mdp, np.asarray(r_hat, dtype=float))
    weights = np.full(mdp.n_states, 1.0 / mdp.n_states)
    keep = list(range(1, mdp.n_actions))
    d_true = qdiff(np.log(pi_expert))[:, keep]
    d_hat = qdiff(q_hat)[:, keep]
    rmse = float(np.sqrt(np.sum(weights[:, None] * (d_hat - d_true) ** 2) / len(keep)))
    x, y = d_true.reshape(-1), d_hat.reshape(-1)
    w = np.repeat(weights[:, None], len(keep), axis=1).reshape(-1)
    w = w / w.sum()
    mx, my = np.sum(w * x), np.sum(w * y)
    vx, vy = np.sum(w * (x - mx) ** 2), np.sum(w * (y - my) ** 2)
    corr = (float("nan") if vx <= 0 or vy <= 0
            else float(np.sum(w * (x - mx) * (y - my)) / np.sqrt(vx * vy)))
    pi_hat = softmax_actions(q_hat)
    with np.errstate(divide="ignore", invalid="ignore"):
        kl_terms = np.where(pi_expert > 0,
                            pi_expert * (np.log(np.maximum(pi_expert, 1e-300))
                                         - np.log(np.maximum(pi_hat, 1e-300))),
                            0.0)
    kl = float(np.sum(weights * kl_terms.sum(axis=1)))
    tv = float(np.sum(weights * 0.5 * np.abs(pi_expert - pi_hat).sum(axis=1)))
    top1 = float(np.sum(weights * (pi_hat.argmax(axis=1) == pi_expert.argmax(axis=1))))
    return {"rmse_qdiff": rmse, "corr_qdiff": corr, "kl": kl, "tv": tv, "top1": top1}
