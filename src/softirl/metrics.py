"""Recovery metrics: Q-difference RMSE/correlation and policy KL/TV/top-1.

Q-differences Q(s, a) - Q(s, 0) are invariant to state-potential shaping,
so they compare reward recovery without fixing a normalization. All five
metrics average over states uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from softirl.mdp import (TabularMdp, check_distribution, row_kl, soft_value_iteration,
                         softmax_actions)

METRIC_NAMES = ("rmse_qdiff", "corr_qdiff", "kl", "tv", "top1")


@dataclass
class MetricsReport:
    rmse_qdiff: float
    corr_qdiff: float
    kl: float
    tv: float
    top1: float

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in METRIC_NAMES}


def qdiff(q) -> np.ndarray:
    """Q(s, a) - Q(s, 0); the reference column 0 is identically zero."""
    q = np.asarray(q, dtype=float)
    if q.ndim != 2:
        raise ValueError(f"Q table must be 2-d, got shape {q.shape}")
    return q - q[:, 0][:, None]


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation; NaN when either side has zero variance."""
    dx, dy = x - np.mean(x), y - np.mean(y)
    vx, vy = np.mean(dx ** 2), np.mean(dy ** 2)
    if vx <= 0 or vy <= 0:
        return float("nan")
    return float(np.mean(dx * dy) / np.sqrt(vx * vy))


def evaluate(mdp: TabularMdp, r_true, pi_expert, r_hat, v_hat=None) -> MetricsReport:
    """Score an estimate against the ground truth: each metric is a plain mean over states.

    `pi_expert` must be `r_true`'s soft-optimal policy on `mdp`, as
    `expert_policy(mdp, r_true)` gives. Then Q*(s, a) - Q*(s, 0) =
    log pi*(a|s) - log pi*(0|s), so the true Q-differences are read from
    log pi_expert and nothing is solved for the truth. The estimated Q is
    r_hat + gamma v_hat when v_hat is given, otherwise soft value iteration
    on r_hat (for baselines that only model a reward). pi_expert is checked
    as a distribution with every entry above 0, and r_true, r_hat and a
    given v_hat must have shape (S, A). The RMSE and correlation skip
    action 0's identically-zero column; a correlation with a zero-variance
    side is NaN.
    """
    shape = (mdp.n_states, mdp.n_actions)
    pi_expert = check_distribution(pi_expert, shape, "pi_expert")
    if not np.all(pi_expert > 0):
        raise ValueError("pi_expert entries must be above 0: the true Q-differences are "
                         "its log-odds")
    for what, table in (("r_true", r_true), ("r_hat", r_hat), ("v_hat", v_hat)):
        if np.shape(table) != shape and not (what == "v_hat" and table is None):
            raise ValueError(f"{what} has shape {np.shape(table)}, expected {shape}")
    if v_hat is not None:
        q_hat = np.asarray(r_hat, dtype=float) + mdp.gamma * np.asarray(v_hat, dtype=float)
    else:
        _, q_hat, _ = soft_value_iteration(mdp, np.asarray(r_hat, dtype=float))

    # columns taken by a fancy index: its column-major copy sets the order of the RMSE's sum
    keep = list(range(1, mdp.n_actions))
    d_true, d_hat = (qdiff(q)[:, keep] for q in (np.log(pi_expert), q_hat))
    rmse = float(np.sqrt(np.mean((d_hat - d_true) ** 2)))
    corr = _pearson(d_true.reshape(-1), d_hat.reshape(-1))

    pi_hat = softmax_actions(q_hat)
    kl = float(np.mean(row_kl(pi_expert, pi_hat)))
    tv = float(np.mean(0.5 * np.abs(pi_expert - pi_hat).sum(axis=1)))
    # argmax takes a tie's lowest index; Ours' q_hat is u - mu w only up to rounding
    top1 = float(np.mean(pi_hat.argmax(axis=1) == pi_expert.argmax(axis=1)))
    return MetricsReport(rmse, corr, kl, tv, top1)
