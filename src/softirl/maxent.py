"""Linear-reward MaxEnt IRL baseline fit by exact-gradient ascent.

The conditional log-likelihood of the data under the softmax policy of
r_theta = <theta, phi> is maximized directly. The gradient is exact: the
Q-sensitivity dQ solves the linear fixed point dQ = phi + gamma P[pi dQ],
and the gradient dQ^T (w - expected) is computed by one adjoint solve with
the transposed (S*A x S*A) system and a single right-hand side per step, so
analytic and finite-difference gradients agree to numerical precision.
`maxent_fit_lockstep` runs the ascents of several datasets side by side on
one batched soft value iteration per epoch, each with the bits of its own
`maxent_fit`.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field

import numpy as np

from softirl.mdp import TabularMdp, _soft_value_iteration, joint_frequency
from softirl.mdp import soft_value_iteration  # noqa: F401 - perfbench/spans.py wraps it by name here

OPTIMIZERS = ("gd", "adam")
SCHEDULES = ("constant", "invsqrt")
GRAD_CLIP = 10.0  # largest gradient norm an ascent steps along
VI_TOL = 1e-8  # residual at which each epoch's soft value iteration stops


@dataclass
class MaxEntConfig:
    step_size: float = 1.0
    schedule: str = "invsqrt"
    max_epochs: int = 300
    patience: int = 50
    tol: float = 1e-8
    optimizer: str = "gd"


@dataclass
class MaxEntFit:
    theta: np.ndarray
    r_hat: np.ndarray
    loss_trace: list = field(default_factory=list)
    best_epoch: int = 0
    diagnostics: dict = field(default_factory=dict)


def _data_weights(data, n_states: int, n_actions: int) -> np.ndarray:
    if hasattr(data, "states") and hasattr(data, "actions"):
        return joint_frequency(data.states, data.actions, n_states, n_actions)
    w = np.asarray(data, dtype=float)
    if w.shape != (n_states, n_actions):
        raise ValueError(f"weight table has shape {w.shape}, expected ({n_states}, {n_actions})")
    total = w.sum()
    if total <= 0:
        raise ValueError("weight table has no mass")
    return w / total


@functools.lru_cache(maxsize=8)
def _identity(n: int) -> np.ndarray:
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def _loglik_and_grad(mdp: TabularMdp, phi_flat: np.ndarray, weights: np.ndarray,
                     pi: np.ndarray):
    """Mean log-likelihood of the weights under the soft-optimal policy pi of
    r_theta, and its gradient in theta."""
    ns, na = mdp.n_states, mdp.n_actions
    with np.errstate(divide="ignore"):
        log_pi = np.log(pi)
    ll = float(np.sum(weights * log_pi))

    # dQ^T (w - expected) = phi^T (I - gamma M)^-T (w - expected): one right-hand side.
    sa = ns * na
    m = (mdp.transition[:, :, :, None] * pi[None, None, :, :]).reshape(sa, sa)
    m *= mdp.gamma
    np.subtract(_identity(sa), m, out=m)
    state_w = weights.sum(axis=1)
    expected = (state_w[:, None] * pi).reshape(sa)
    adjoint = np.linalg.solve(m.T, weights.reshape(sa) - expected)
    return ll, phi_flat.T @ adjoint


def maxent_fit(mdp: TabularMdp, phi, data, cfg: MaxEntConfig) -> MaxEntFit:
    """Clipped gradient ascent on the conditional likelihood; returns the
    best-likelihood iterate."""
    weights = _data_weights(data, mdp.n_states, mdp.n_actions)
    (fit,) = maxent_fit_lockstep(mdp, phi, [weights], cfg)
    if isinstance(fit, Exception):
        raise fit
    return fit


class _Ascent:
    """One likelihood ascent of a lockstep fit: its iterate, optimizer state,
    loss trace and best iterate."""

    def __init__(self, weights: np.ndarray, theta: np.ndarray):
        self.weights = weights
        self.theta = theta
        self.adam_m = np.zeros_like(theta)
        self.adam_v = np.zeros_like(theta)
        self.grad = None
        self.trace = []
        self.best = None  # (loglik, theta, epoch)
        self.stall = 0

    def step(self, epoch: int, cfg: MaxEntConfig) -> None:
        """Move theta along the clipped gradient (or its Adam moments)."""
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        grad = self.grad
        norm = float(np.linalg.norm(grad))
        step_dir = grad if norm <= GRAD_CLIP else grad * (GRAD_CLIP / norm)
        step = cfg.step_size / np.sqrt(epoch) if cfg.schedule == "invsqrt" else cfg.step_size
        if cfg.optimizer == "adam":
            self.adam_m = beta1 * self.adam_m + (1 - beta1) * step_dir
            self.adam_v = beta2 * self.adam_v + (1 - beta2) * step_dir ** 2
            m_hat = self.adam_m / (1 - beta1 ** epoch)
            v_hat = self.adam_v / (1 - beta2 ** epoch)
            self.theta = self.theta + step * m_hat / (np.sqrt(v_hat) + eps)
        else:
            self.theta = self.theta + step * step_dir

    def record(self, epoch: int, ll: float, cfg: MaxEntConfig) -> bool:
        """Log the epoch's likelihood; True once patience runs out."""
        if epoch == 0:
            self.trace.append(-ll)
            self.best = (ll, self.theta.copy(), 0)
            return False
        if not np.isfinite(ll):
            raise RuntimeError(f"likelihood became non-finite at epoch {epoch}; "
                               f"loss trace: {self.trace}")
        self.trace.append(-ll)
        if ll > self.best[0] + cfg.tol:
            self.best = (ll, self.theta.copy(), epoch)
            self.stall = 0
            return False
        self.stall += 1
        return self.stall >= cfg.patience

    def fit(self, phi_flat: np.ndarray, shape) -> MaxEntFit:
        ll, theta, epoch = self.best
        return MaxEntFit(theta, (phi_flat @ theta).reshape(shape), self.trace, epoch,
                         {"best_loglik": ll, "epochs_run": len(self.trace) - 1})


def maxent_fit_lockstep(mdp: TabularMdp, phi, weights: list, cfg: MaxEntConfig) -> list:
    """`maxent_fit` for several joint (S, A) frequency tables at once.

    The ascents run in lockstep: each epoch solves the soft Bellman equation
    of every running ascent in one batched soft value iteration, and each
    ascent does the arithmetic of its own `maxent_fit` and stops at its own
    epoch. The tables are used as given, not renormalized. Returns, per
    table, its MaxEntFit or the exception its ascent raised.
    """
    if cfg.step_size <= 0:
        raise ValueError("step_size must be positive")
    if cfg.schedule not in SCHEDULES:
        raise ValueError(f"unknown schedule {cfg.schedule!r}")
    if cfg.optimizer not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer {cfg.optimizer!r}")
    phi = np.asarray(phi, dtype=float)
    d = phi.shape[2]
    phi_flat = phi.reshape(-1, d)
    shape = (mdp.n_states, mdp.n_actions)
    ascents = [_Ascent(w, np.zeros(d)) for w in weights]
    errors, v_warm = {}, {}
    running = list(range(len(ascents)))
    for epoch in range(cfg.max_epochs + 1):
        rewards = {}
        for i in running:
            try:
                if epoch:
                    ascents[i].step(epoch, cfg)
                rewards[i] = (phi_flat @ ascents[i].theta).reshape(shape)
            except Exception as exc:  # noqa: BLE001 - each ascent fails alone
                errors[i] = exc
        if not rewards:
            break
        v0 = np.stack([v_warm[i] for i in rewards]) if epoch else None
        solved = _soft_value_iteration(mdp, np.stack(list(rewards.values())), VI_TOL, v0)
        running = []
        for i, result in zip(rewards, solved):
            if isinstance(result, Exception):
                errors[i] = result
                continue
            v, _, pi = result
            try:
                ll, ascents[i].grad = _loglik_and_grad(mdp, phi_flat, ascents[i].weights, pi)
                if not ascents[i].record(epoch, ll, cfg):
                    running.append(i)
            except Exception as exc:  # noqa: BLE001 - each ascent fails alone
                errors[i] = exc
            v_warm[i] = v
    return [errors[i] if i in errors else ascent.fit(phi_flat, shape)
            for i, ascent in enumerate(ascents)]


def save_maxent(fit: MaxEntFit, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    np.savetxt(os.path.join(out_dir, "theta.csv"), fit.theta,
               fmt="%.17g", delimiter=",", header="theta", comments="")
    header = ",".join(str(a) for a in range(fit.r_hat.shape[1]))
    np.savetxt(os.path.join(out_dir, "r.csv"), fit.r_hat,
               fmt="%.17g", delimiter=",", header=header, comments="")
    np.savetxt(os.path.join(out_dir, "loss.csv"), np.asarray(fit.loss_trace),
               fmt="%.17g", delimiter=",", header="neg_loglik", comments="")
