"""Recovery metrics: Q-difference RMSE/correlation and policy KL/TV/top-1.

Q-differences Q(s, a) - Q(s, ref) are invariant to state-potential shaping,
so they compare reward recovery without fixing a normalization. All five
metrics are weighted by a state distribution (uniform by default).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from softirl.mdp import TabularMdp, check_distribution, soft_value_iteration, softmax_actions

METRIC_NAMES = ("rmse_qdiff", "corr_qdiff", "kl", "tv", "top1")


@dataclass
class MetricsReport:
    rmse_qdiff: float
    corr_qdiff: float
    kl: float
    tv: float
    top1: float
    corr_defined: bool = True

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in METRIC_NAMES}


def qdiff(q, ref_action: int = 0) -> np.ndarray:
    """Q(s, a) - Q(s, ref_action); the reference column is identically zero."""
    q = np.asarray(q, dtype=float)
    if q.ndim != 2:
        raise ValueError(f"Q table must be 2-d, got shape {q.shape}")
    if not 0 <= ref_action < q.shape[1]:
        raise IndexError(f"ref_action {ref_action} out of range for {q.shape[1]} actions")
    return q - q[:, ref_action][:, None]


def _weighted_pearson(x: np.ndarray, y: np.ndarray, w: np.ndarray):
    w = w / w.sum()
    mx, my = np.sum(w * x), np.sum(w * y)
    vx = np.sum(w * (x - mx) ** 2)
    vy = np.sum(w * (y - my) ** 2)
    if vx <= 0 or vy <= 0:
        return float("nan"), False
    return float(np.sum(w * (x - mx) * (y - my)) / np.sqrt(vx * vy)), True


def evaluate(mdp: TabularMdp, r_true, pi_expert, r_hat, v_hat=None,
             weights=None, ref_action: int = 0, q_true=None) -> MetricsReport:
    """Score an estimate against the ground truth.

    The estimated Q is r_hat + gamma v_hat when v_hat is given, otherwise it
    is recomputed by soft value iteration on r_hat (the natural choice for
    baselines that only model a reward). `weights` is a state distribution;
    None means uniform. The reference action's identically-zero column is
    excluded from the RMSE/correlation support. `q_true`, when given, must be
    the Q of `soft_value_iteration(mdp, r_true)` at its default tol, as
    `envs.truth` returns it for callers scoring many estimates.
    """
    if q_true is None:
        _, q_true, _ = soft_value_iteration(mdp, np.asarray(r_true, dtype=float))
    q_true = np.asarray(q_true, dtype=float)
    if v_hat is not None:
        q_hat = np.asarray(r_hat, dtype=float) + mdp.gamma * np.asarray(v_hat, dtype=float)
    else:
        _, q_hat, _ = soft_value_iteration(mdp, np.asarray(r_hat, dtype=float))
    if q_hat.shape != q_true.shape:
        raise ValueError(f"estimate shape {q_hat.shape} != truth shape {q_true.shape}")

    if weights is None:
        weights = np.full(mdp.n_states, 1.0 / mdp.n_states)
    weights = check_distribution(weights, (mdp.n_states,), "weights")

    d_true = qdiff(q_true, ref_action)
    d_hat = qdiff(q_hat, ref_action)
    keep = [a for a in range(mdp.n_actions) if a != ref_action]
    delta = d_hat[:, keep] - d_true[:, keep]
    rmse = float(np.sqrt(np.sum(weights[:, None] * delta ** 2) / len(keep)))
    w_flat = np.repeat(weights[:, None], len(keep), axis=1).reshape(-1)
    corr, corr_defined = _weighted_pearson(d_true[:, keep].reshape(-1),
                                           d_hat[:, keep].reshape(-1), w_flat)

    pi_expert = np.asarray(pi_expert, dtype=float)
    pi_hat = softmax_actions(q_hat)
    with np.errstate(divide="ignore", invalid="ignore"):
        kl_terms = np.where(pi_expert > 0,
                            pi_expert * (np.log(np.maximum(pi_expert, 1e-300))
                                         - np.log(np.maximum(pi_hat, 1e-300))),
                            0.0)
    kl = float(np.sum(weights * kl_terms.sum(axis=1)))
    tv = float(np.sum(weights * 0.5 * np.abs(pi_expert - pi_hat).sum(axis=1)))
    # argmax takes a tie's lowest index; Ours' q_hat is u - mu w only up to rounding
    top1 = float(np.sum(weights * (pi_hat.argmax(axis=1) == pi_expert.argmax(axis=1))))
    return MetricsReport(rmse, corr, kl, tv, top1, corr_defined)
