"""Linear-reward MaxEnt IRL baseline fit by exact-gradient ascent.

The conditional log-likelihood of the data under the softmax policy of
r_theta = <theta, phi> is maximized directly; phi None stands for one-hot
features, r_theta = theta. The gradient is exact: the
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
from softirl.solver import _write_table

STEP_SIZE = 0.05  # Adam's constant step
GAIN_TOL = 1e-8  # the least rise in log-likelihood that counts as a gain
PATIENCE = 40  # epochs without a gain after which an ascent stops
VI_TOL = 1e-8  # residual at which each epoch's soft value iteration stops


@dataclass
class MaxEntConfig:
    """Adam at STEP_SIZE; stops after PATIENCE epochs without a GAIN_TOL gain."""

    max_epochs: int = 300

    def __post_init__(self):
        if isinstance(self.max_epochs, bool) or not isinstance(self.max_epochs, (int, np.integer)):
            raise ValueError(f"max_epochs: must be an integer, got {self.max_epochs!r}")
        if self.max_epochs < 0:
            raise ValueError(f"max_epochs: must be nonnegative, got {self.max_epochs}")


@dataclass
class MaxEntFit:
    theta: np.ndarray
    r_hat: np.ndarray
    loss_trace: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)


def _loglik_and_grad(mdp: TabularMdp, phi_flat: np.ndarray, weights: np.ndarray,
                     pi: np.ndarray):
    """Mean log-likelihood of the weights under the soft-optimal policy pi of
    r_theta, and its gradient in theta (per cell if `phi_flat` is None)."""
    with np.errstate(divide="ignore"):
        ll = float(np.sum(weights * np.log(pi)))

    # dQ^T b = phi^T (I - gamma P~ Pi)^-T b with b = w - expected, where P~ is the
    # (S*A x S) kernel and Pi the (S x S*A) policy map. By the push-through identity
    # (I - gamma P~ Pi)^-T b = b + gamma Pi^T (I - gamma K_pi)^-T P~^T b, K_pi = Pi P~,
    # so the one adjoint solve is on the S x S state system.
    b = weights - weights.sum(axis=1)[:, None] * pi
    y = _solve_discounted(state_kernel(mdp, pi).T, mdp.gamma,
                          mdp.transition.reshape(-1, mdp.n_states).T @ b.reshape(-1), "adjoint")
    grad = (b + mdp.gamma * pi * y[:, None]).reshape(-1)
    return ll, grad if phi_flat is None else phi_flat.T @ grad


def ascent(mdp: TabularMdp, phi, weights: np.ndarray, cfg: MaxEntConfig):
    """One ascent on the joint (S, A) frequency table `weights`, used as
    given, from theta = 0: each epoch yields r_theta, is sent its (v, Q, pi),
    and takes one Adam step along the gradient. Returns the
    best-likelihood iterate once PATIENCE epochs bring no GAIN_TOL gain or
    `max_epochs` steps are taken.

    `phi` None stands for one-hot features: r_theta is theta and the gradient
    the per-cell vector. On finite values the (S*A)^2 identity's matvecs give
    these bits but turn -0.0 into +0.0, which moves nothing: theta and Adam's
    moments start at +0.0 and are never -0.0 (a sum is -0.0 only if both
    terms are), so a gradient's -0.0 adds to them as +0.0 does."""
    n_cells = mdp.n_states * mdp.n_actions
    phi_flat = None if phi is None else np.asarray(phi, dtype=float).reshape(n_cells, -1)
    reward = np.copy if phi_flat is None else phi_flat.__matmul__  # theta -> r_theta per cell
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    theta = np.zeros(n_cells if phi_flat is None else phi_flat.shape[1])
    adam_m, adam_v = np.zeros_like(theta), np.zeros_like(theta)
    trace, stall = [], 0
    for epoch in range(cfg.max_epochs + 1):
        if epoch:
            adam_m = beta1 * adam_m + (1 - beta1) * grad
            adam_v = beta2 * adam_v + (1 - beta2) * grad ** 2
            m_hat = adam_m / (1 - beta1 ** epoch)
            v_hat = adam_v / (1 - beta2 ** epoch)
            theta = theta + STEP_SIZE * m_hat / (np.sqrt(v_hat) + eps)
        _, _, pi = yield reward(theta).reshape(weights.shape)
        ll, grad = _loglik_and_grad(mdp, phi_flat, weights, pi)
        if epoch and not np.isfinite(ll):
            raise RuntimeError(f"likelihood became non-finite at epoch {epoch}; "
                               f"loss trace: {trace}")
        trace.append(-ll)
        if epoch == 0 or ll > best[0] + GAIN_TOL:
            best, stall = (ll, theta.copy()), 0
        else:
            stall += 1
            if stall >= PATIENCE:
                break
    ll, theta = best
    return MaxEntFit(theta, reward(theta).reshape(weights.shape), trace,
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


def maxent_fit(mdp: TabularMdp, phi, dataset, cfg: MaxEntConfig) -> MaxEntFit:
    """Adam ascent on the conditional likelihood of a dataset's (s, a)
    records; returns the best-likelihood iterate. A dataset whose header
    names another state or action count than the MDP's is a ValueError. A
    frequency table goes to `ascent` directly."""
    dataset.check_shape(mdp.n_states, mdp.n_actions)
    weights = joint_frequency(dataset.states, dataset.actions, mdp.n_states, mdp.n_actions)
    (fit,) = run_lockstep(mdp, [ascent(mdp, phi, weights, cfg)])
    if isinstance(fit, Exception):
        raise fit
    return fit


def save_maxent(fit: MaxEntFit, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    actions = ",".join(str(a) for a in range(fit.r_hat.shape[1]))
    for stem, table, header in (("theta", fit.theta, "theta"), ("r", fit.r_hat, actions),
                                ("loss", np.asarray(fit.loss_trace), "neg_loglik")):
        _write_table(os.path.join(out_dir, f"{stem}.csv"), table, header)
