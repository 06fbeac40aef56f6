"""Linear-reward MaxEnt IRL baseline fit by exact-gradient ascent.

The conditional log-likelihood of the data under the softmax policy of
r_theta = <theta, phi> is maximized directly. The gradient is exact: the
Q-sensitivity dQ solves the linear fixed point dQ = phi + gamma P[pi dQ],
and the gradient dQ^T (w - expected) is computed by one adjoint solve with
the transposed (S*A x S*A) system and a single right-hand side per step, so
analytic and finite-difference gradients agree to numerical precision.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field

import numpy as np

from softirl.mdp import TabularMdp, joint_frequency, soft_value_iteration

OPTIMIZERS = ("gd", "adam")
SCHEDULES = ("constant", "invsqrt")


@dataclass
class MaxEntConfig:
    step_size: float = 1.0
    schedule: str = "invsqrt"
    grad_clip: float = 10.0
    max_epochs: int = 300
    patience: int = 50
    tol: float = 1e-8
    vi_tol: float = 1e-8
    init: str = "zeros"
    init_seed: int = 0
    init_scale: float = 0.01
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


def _loglik_and_grad(mdp: TabularMdp, phi_flat: np.ndarray, theta: np.ndarray,
                     weights: np.ndarray, vi_tol: float, v0=None):
    ns, na = mdp.n_states, mdp.n_actions
    r = (phi_flat @ theta).reshape(ns, na)
    v, q, pi = soft_value_iteration(mdp, r, tol=vi_tol, v0=v0)
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
    return ll, phi_flat.T @ adjoint, v


def maxent_loglik_and_grad(mdp: TabularMdp, phi, theta, data):
    """Mean per-decision log-likelihood and its exact gradient in theta.

    `data` is a TransitionDataset-like object or a joint (S, A) weight table.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape[:2] != (mdp.n_states, mdp.n_actions):
        raise ValueError(f"feature shape {phi.shape} does not match the MDP")
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (phi.shape[2],):
        raise ValueError(f"theta has shape {theta.shape}, expected ({phi.shape[2]},)")
    weights = _data_weights(data, mdp.n_states, mdp.n_actions)
    phi_flat = phi.reshape(-1, phi.shape[2])
    ll, grad, _ = _loglik_and_grad(mdp, phi_flat, theta, weights, vi_tol=1e-12)
    return ll, grad


def maxent_fit(mdp: TabularMdp, phi, data, cfg: MaxEntConfig) -> MaxEntFit:
    """Clipped gradient ascent on the conditional likelihood; returns the
    best-likelihood iterate."""
    if cfg.step_size <= 0 or cfg.grad_clip <= 0:
        raise ValueError("step_size and grad_clip must be positive")
    if cfg.schedule not in SCHEDULES:
        raise ValueError(f"unknown schedule {cfg.schedule!r}")
    if cfg.optimizer not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer {cfg.optimizer!r}")
    phi = np.asarray(phi, dtype=float)
    d = phi.shape[2]
    phi_flat = phi.reshape(-1, d)
    weights = _data_weights(data, mdp.n_states, mdp.n_actions)

    if cfg.init == "zeros":
        theta = np.zeros(d)
    elif cfg.init == "gaussian":
        theta = cfg.init_scale * np.random.default_rng(cfg.init_seed).normal(size=d)
    else:
        raise ValueError(f"unknown init {cfg.init!r}")

    adam_m = np.zeros(d)
    adam_v = np.zeros(d)
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    ll, grad, v_warm = _loglik_and_grad(mdp, phi_flat, theta, weights, cfg.vi_tol)
    trace = [-ll]
    best_ll, best_theta, best_epoch = ll, theta.copy(), 0
    stall = 0
    for epoch in range(1, cfg.max_epochs + 1):
        norm = float(np.linalg.norm(grad))
        step_dir = grad if norm <= cfg.grad_clip else grad * (cfg.grad_clip / norm)
        step = cfg.step_size / np.sqrt(epoch) if cfg.schedule == "invsqrt" else cfg.step_size
        if cfg.optimizer == "adam":
            adam_m = beta1 * adam_m + (1 - beta1) * step_dir
            adam_v = beta2 * adam_v + (1 - beta2) * step_dir ** 2
            m_hat = adam_m / (1 - beta1 ** epoch)
            v_hat = adam_v / (1 - beta2 ** epoch)
            theta = theta + step * m_hat / (np.sqrt(v_hat) + eps)
        else:
            theta = theta + step * step_dir
        ll, grad, v_warm = _loglik_and_grad(mdp, phi_flat, theta, weights,
                                            cfg.vi_tol, v0=v_warm)
        if not np.isfinite(ll):
            raise RuntimeError(f"likelihood became non-finite at epoch {epoch}; "
                               f"loss trace: {trace}")
        trace.append(-ll)
        if ll > best_ll + cfg.tol:
            best_ll, best_theta, best_epoch = ll, theta.copy(), epoch
            stall = 0
        else:
            stall += 1
            if stall >= cfg.patience:
                break

    r_hat = (phi_flat @ best_theta).reshape(mdp.n_states, mdp.n_actions)
    return MaxEntFit(best_theta, r_hat, trace, best_epoch,
                     diagnostics={"best_loglik": best_ll, "epochs_run": len(trace) - 1})


def save_maxent(fit: MaxEntFit, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    np.savetxt(os.path.join(out_dir, "theta.csv"), fit.theta,
               fmt="%.17g", delimiter=",", header="theta", comments="")
    header = ",".join(str(a) for a in range(fit.r_hat.shape[1]))
    np.savetxt(os.path.join(out_dir, "r.csv"), fit.r_hat,
               fmt="%.17g", delimiter=",", header=header, comments="")
    np.savetxt(os.path.join(out_dir, "loss.csv"), np.asarray(fit.loss_trace),
               fmt="%.17g", delimiter=",", header="neg_loglik", comments="")
