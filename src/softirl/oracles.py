"""Blackbox probabilistic classification and regression oracles.

Classifiers estimate the behavior policy from (s, a) pairs. Regressors
estimate conditional means E[g(s') | s, a] for a next-state function g; both
shipped regressor classes are linear in their targets, so one fit on a fold
is a linear map from g to the (s, a) table, reused for every g. The map is
held sparsely, as (row, col, value) triples over cells s * A + a and next
states s': a tabular fold of m records has at most m of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from softirl.mdp import check_records, softmax_actions

CLASSIFIER_KINDS = ("tabular-count", "multinomial-logistic")
REGRESSOR_KINDS = ("tabular-mean", "ridge")


@dataclass(frozen=True)
class ClassifierSpec:
    """Configuration for fit_classifier.

    prob_floor must be positive so the fitted log-policy stays bounded.
    The logistic kind runs at most `epochs` full-batch gradient steps of
    size 0.5 / (1 + L), L the largest squared norm of a state's features,
    and stops once the loss moves by less than 1e-9; `state_features` is an
    (S, d) matrix (None means one-hot states).
    """

    kind: str = "tabular-count"
    smoothing_alpha: float = 0.0
    prob_floor: float = 1e-6
    epochs: int = 500
    state_features: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in CLASSIFIER_KINDS:
            raise ValueError(f"kind: must be one of {CLASSIFIER_KINDS}, got {self.kind!r}")
        if self.smoothing_alpha < 0:
            raise ValueError(f"smoothing_alpha: must be nonnegative, got {self.smoothing_alpha}")
        if not self.prob_floor > 0:
            raise ValueError(f"prob_floor: must be positive, got {self.prob_floor}")
        if self.epochs < 1:
            raise ValueError(f"epochs: must be at least 1, got {self.epochs}")


@dataclass(frozen=True)
class RegressorSpec:
    """Configuration for fit_regressor.

    `fallback` fills unvisited (s, a) cells of the tabular kind; `features`
    is the (S, A, d) table the ridge kind regresses on.
    """

    kind: str = "tabular-mean"
    ridge_lambda: float = 0.0
    fallback: float = 0.0
    features: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in REGRESSOR_KINDS:
            raise ValueError(f"kind: must be one of {REGRESSOR_KINDS}, got {self.kind!r}")
        if self.ridge_lambda < 0:
            raise ValueError(f"ridge_lambda: must be nonnegative, got {self.ridge_lambda}")
        if not np.isfinite(self.fallback):
            raise ValueError(f"fallback: must be finite, got {self.fallback}")


@dataclass
class FittedClassifier:
    """Floored, renormalized policy estimate and the (S, A) record counts
    it was fitted to."""

    probs: np.ndarray
    counts: np.ndarray


@dataclass
class FittedRegressor:
    """The fitted regression g -> offset + M g, flattened over cells s * A + a.

    `kernel` is the (rows, cols, values) triples of M's nonzero entries
    M[s * A + a, s'], `offset` is (S*A,), and `counts` is the (rows, cols, n)
    triples of the fold's nonzero (s, a, s') record counts, in row-major order.
    """

    kernel: tuple
    offset: np.ndarray
    counts: tuple
    diagnostics: dict = field(default_factory=dict)


def fit_classifier(spec: ClassifierSpec, states, actions,
                   n_states: int, n_actions: int) -> FittedClassifier:
    """Estimate the behavior policy pi(a|s) from observed (s, a) pairs."""
    if not spec.prob_floor < 1.0 / n_actions:
        raise ValueError(f"prob_floor must lie below 1/{n_actions}")
    s, a = check_records(n_states, n_actions, states, actions)
    if s.size == 0:
        raise ValueError("empty training data")
    counts = np.bincount(s * n_actions + a,
                         minlength=n_states * n_actions).reshape(n_states, n_actions)
    state_counts = counts.sum(axis=1)

    if spec.kind == "tabular-count":
        alpha = spec.smoothing_alpha
        denom = state_counts + alpha * n_actions
        probs = np.full((n_states, n_actions), 1.0 / n_actions)
        seen = denom > 0
        probs[seen] = (counts[seen] + alpha) / denom[seen, None]
    else:
        probs = _fit_logistic(spec, counts, state_counts, n_states, n_actions)

    # a clamped row sums to under 1 + A * floor < 2, so every entry stays >= floor / 2
    probs = np.maximum(probs, spec.prob_floor)
    probs /= probs.sum(axis=1, keepdims=True)
    return FittedClassifier(probs, counts)


def _fit_logistic(spec: ClassifierSpec, counts, state_counts, n_states, n_actions):
    """Full-batch gradient descent on cross-entropy over linear-in-feature logits."""
    phi = spec.state_features
    phi = np.eye(n_states) if phi is None else np.asarray(phi, dtype=float)
    if phi.shape[0] != n_states:
        raise ValueError(f"state_features first axis must be {n_states}")
    n = state_counts.sum()
    state_w = state_counts / n

    weights = np.zeros((phi.shape[1], n_actions))
    step = 0.5 / (1.0 + float(np.max(np.sum(phi ** 2, axis=1))))
    trace = []
    for _ in range(spec.epochs):
        p = softmax_actions(phi @ weights)
        loss = float(-np.sum(counts * np.log(np.maximum(p, 1e-300))) / n)
        if not np.isfinite(loss):
            raise RuntimeError(f"logistic training diverged; loss trace: {trace}")
        if trace and abs(trace[-1] - loss) < 1e-9:
            break
        trace.append(loss)
        weights -= step * (phi.T @ (state_w[:, None] * p - counts / n))
    return softmax_actions(phi @ weights)


def fit_regressor(spec: RegressorSpec, states, actions, next_states,
                  n_states: int, n_actions: int) -> FittedRegressor:
    """Least-squares fit of the next-state indicator on (s, a) over the
    configured class: regressing any target g(s') on the same records gives
    offset + M g, with M held as triples (see FittedRegressor)."""
    s, a, s2 = check_records(n_states, n_actions, states, actions, next_states)
    if s.size == 0:
        raise ValueError("empty training data")

    n_cells = n_states * n_actions
    counts = np.bincount((s * n_actions + a) * n_states + s2, minlength=n_cells * n_states)
    support = np.flatnonzero(counts > 0)  # a bool mask scans faster than int64
    rows, cols = np.divmod(support, n_states)
    n = counts[support]
    cnt = np.bincount(rows, n, minlength=n_cells)

    if spec.kind == "tabular-mean":
        kernel = (rows, cols, n / cnt[rows])
        offset = np.where(cnt > 0, 0.0, spec.fallback)
    else:
        if spec.features is None:
            raise ValueError("ridge regression needs a feature table")
        phi = np.asarray(spec.features, dtype=float)
        if phi.shape[:2] != (n_states, n_actions):
            raise ValueError(f"features shape {phi.shape} does not match ({n_states}, {n_actions}, d)")
        phi_flat = phi.reshape(n_cells, -1)
        d = phi_flat.shape[1]
        gram = (phi_flat * cnt[:, None]).T @ phi_flat + spec.ridge_lambda * np.eye(d)
        try:
            np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            raise ValueError(
                "normal equations are rank-deficient; set ridge_lambda > 0"
            ) from None
        product = phi_flat @ np.linalg.solve(gram, phi_flat.T @ counts.reshape(n_cells, n_states))
        nonzero = np.nonzero(product)
        kernel = (*nonzero, product[nonzero])
        offset = np.zeros(n_cells)

    diagnostics = {"n_empty_cells": int(np.sum(cnt == 0)), "n_train": int(s.size)}
    return FittedRegressor(kernel, offset, (rows, cols, n), diagnostics)
