"""Linear-reward MaxEnt IRL baseline fit by exact-gradient ascent.

The conditional log-likelihood of the data under the softmax policy of
r_theta = <theta, phi> is maximized directly. The gradient is exact: the
Q-sensitivity dQ solves the linear fixed point dQ = phi + gamma P[pi dQ],
and dQ^T (w - expected) takes one adjoint solve on the S x S state system
of pi, so analytic and finite-difference gradients agree to numerical
precision. One ascent is the generator `ascent`: it yields each epoch's
reward table and is sent that table's soft Bellman solution. `run_lockstep`
drives such jobs side by side on one batched soft value iteration per round,
each with the bits it has alone; `maxent_fit` drives one ascent.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from softirl.mdp import (TabularMdp, _soft_value_iteration, _solve_discounted, joint_frequency,
                         state_kernel)
from softirl.mdp import soft_value_iteration  # noqa: F401 - perfbench/spans.py wraps it by name here

GRAD_CLIP = 10.0  # largest gradient norm an ascent steps along
VI_TOL = 1e-8  # residual at which each epoch's soft value iteration stops


@dataclass
class MaxEntConfig:
    """Adam at a constant step; stops after `patience` epochs without a `tol` gain."""

    step_size: float = 0.05
    max_epochs: int = 300
    patience: int = 40
    tol: float = 1e-8

    def __post_init__(self):
        if not self.step_size > 0:
            raise ValueError(f"step_size: must be positive, got {self.step_size}")
        if self.max_epochs < 0:
            raise ValueError(f"max_epochs: must be nonnegative, got {self.max_epochs}")


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


def _loglik_and_grad(mdp: TabularMdp, phi_flat: np.ndarray, weights: np.ndarray,
                     pi: np.ndarray):
    """Mean log-likelihood of the weights under the soft-optimal policy pi of
    r_theta, and its gradient in theta."""
    with np.errstate(divide="ignore"):
        ll = float(np.sum(weights * np.log(pi)))

    # dQ^T b = phi^T (I - gamma P~ Pi)^-T b with b = w - expected, where P~ is the
    # (S*A x S) kernel and Pi the (S x S*A) policy map. By the push-through identity
    # (I - gamma P~ Pi)^-T b = b + gamma Pi^T (I - gamma K_pi)^-T P~^T b, K_pi = Pi P~,
    # so the one adjoint solve is on the S x S state system.
    b = weights - weights.sum(axis=1)[:, None] * pi
    y = _solve_discounted(state_kernel(mdp, pi).T, mdp.gamma,
                          mdp.transition.reshape(-1, mdp.n_states).T @ b.reshape(-1), "adjoint")
    return ll, phi_flat.T @ (b + mdp.gamma * pi * y[:, None]).reshape(-1)


def ascent(mdp: TabularMdp, phi, weights: np.ndarray, cfg: MaxEntConfig):
    """One ascent on the joint (S, A) frequency table `weights`, used as
    given, from theta = 0: each epoch yields r_theta, is sent its (v, Q, pi),
    and takes one Adam step along the clipped gradient. Returns the
    best-likelihood iterate once `patience` epochs bring no `tol` gain or
    `max_epochs` steps are taken."""
    phi_flat = np.asarray(phi, dtype=float).reshape(mdp.n_states * mdp.n_actions, -1)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    theta = np.zeros(phi_flat.shape[1])
    adam_m, adam_v = np.zeros_like(theta), np.zeros_like(theta)
    trace, stall = [], 0
    for epoch in range(cfg.max_epochs + 1):
        if epoch:
            norm = float(np.linalg.norm(grad))
            step_dir = grad if norm <= GRAD_CLIP else grad * (GRAD_CLIP / norm)
            adam_m = beta1 * adam_m + (1 - beta1) * step_dir
            adam_v = beta2 * adam_v + (1 - beta2) * step_dir ** 2
            m_hat = adam_m / (1 - beta1 ** epoch)
            v_hat = adam_v / (1 - beta2 ** epoch)
            theta = theta + cfg.step_size * m_hat / (np.sqrt(v_hat) + eps)
        _, _, pi = yield (phi_flat @ theta).reshape(weights.shape)
        ll, grad = _loglik_and_grad(mdp, phi_flat, weights, pi)
        if epoch and not np.isfinite(ll):
            raise RuntimeError(f"likelihood became non-finite at epoch {epoch}; "
                               f"loss trace: {trace}")
        trace.append(-ll)
        if epoch == 0 or ll > best[0] + cfg.tol:
            best, stall = (ll, theta.copy(), epoch), 0
        else:
            stall += 1
            if stall >= cfg.patience:
                break
    ll, theta, epoch = best
    return MaxEntFit(theta, (phi_flat @ theta).reshape(weights.shape), trace, epoch,
                     {"best_loglik": ll, "epochs_run": len(trace) - 1})


def run_lockstep(mdp: TabularMdp, jobs: list) -> list:
    """Run jobs, generators such as `ascent` that yield reward tables and
    are sent each table's (v, Q, pi). Each round stacks the pending tables
    into one soft value iteration at VI_TOL, warm-started from each job's
    last v, so each job gets the bits it would alone. Returns, per job, the
    value it returns or the exception it raises; a job whose solve comes
    back as a RuntimeError gets that error and is closed."""
    results, rewards, v0 = [None] * len(jobs), {}, None

    def advance(i, solved) -> bool:
        """Send job i its solve; False once it has returned or raised."""
        try:
            rewards[i] = jobs[i].send(solved)
            return True
        except StopIteration as stop:
            results[i] = stop.value
        except Exception as exc:  # noqa: BLE001 - each job fails alone
            results[i] = exc
        return False

    for i in range(len(jobs)):
        advance(i, None)
    while rewards:
        batch, rewards, warm = rewards, {}, []
        solved = _soft_value_iteration(mdp, np.stack(list(batch.values())), VI_TOL, v0)
        for i, result in zip(batch, solved):
            if isinstance(result, Exception):
                results[i] = result
                jobs[i].close()
            elif advance(i, result):
                warm.append(result[0])
        v0 = np.stack(warm) if warm else None
    return results


def maxent_fit(mdp: TabularMdp, phi, data, cfg: MaxEntConfig) -> MaxEntFit:
    """Clipped Adam ascent on the conditional likelihood; returns the
    best-likelihood iterate."""
    weights = _data_weights(data, mdp.n_states, mdp.n_actions)
    (fit,) = run_lockstep(mdp, [ascent(mdp, phi, weights, cfg)])
    if isinstance(fit, Exception):
        raise fit
    return fit


def save_maxent(fit: MaxEntFit, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    np.savetxt(os.path.join(out_dir, "theta.csv"), fit.theta,
               fmt="%.17g", delimiter=",", header="theta", comments="")
    header = ",".join(str(a) for a in range(fit.r_hat.shape[1]))
    np.savetxt(os.path.join(out_dir, "r.csv"), fit.r_hat,
               fmt="%.17g", delimiter=",", header=header, comments="")
    np.savetxt(os.path.join(out_dir, "loss.csv"), np.asarray(fit.loss_trace),
               fmt="%.17g", delimiter=",", header="neg_loglik", comments="")
