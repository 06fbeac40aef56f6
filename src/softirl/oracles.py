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

from softirl.mdp import _count_keys, check_records, softmax_actions

CLASSIFIER_KINDS = ("tabular-count", "multinomial-logistic")
REGRESSOR_KINDS = ("tabular-mean", "ridge")
PROB_FLOOR = 1e-6  # least fitted probability, so the log-policy stays bounded
LOGISTIC_EPOCHS = 500  # the logistic classifier's cap on gradient steps


@dataclass(frozen=True)
class ClassifierSpec:
    """Configuration for fit_classifier, which floors every probability at
    PROB_FLOOR. `smoothing_alpha` is the tabular kind's Laplace count. The
    logistic kind runs at most LOGISTIC_EPOCHS full-batch gradient steps of
    size 0.5 / (1 + L), L the largest squared norm of a state's features,
    and stops once the loss moves by less than 1e-9; `state_features` is an
    (S, d) matrix (None means one-hot states).
    """

    kind: str = "tabular-count"
    smoothing_alpha: float = 0.0
    state_features: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in CLASSIFIER_KINDS:
            raise ValueError(f"kind: must be one of {CLASSIFIER_KINDS}, got {self.kind!r}")
        alpha = self.smoothing_alpha
        if not 0 <= alpha < np.inf or alpha and self.kind != "tabular-count":
            raise ValueError("smoothing_alpha: must be finite and nonnegative, and 0 for the "
                             f"logistic kind, got {alpha}")


@dataclass(frozen=True)
class RegressorSpec:
    """Configuration for fit_regressor: `features` is the (S, A, d) table
    the ridge kind regresses on."""

    kind: str = "tabular-mean"
    ridge_lambda: float = 0.0
    features: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in REGRESSOR_KINDS:
            raise ValueError(f"kind: must be one of {REGRESSOR_KINDS}, got {self.kind!r}")
        if self.ridge_lambda < 0:
            raise ValueError(f"ridge_lambda: must be nonnegative, got {self.ridge_lambda}")


@dataclass
class FittedClassifier:
    """Floored, renormalized policy estimate and the (S, A) record counts
    it was fitted to."""

    probs: np.ndarray
    counts: np.ndarray


@dataclass
class FittedRegressor:
    """The fitted regression g -> M g, flattened over cells s * A + a.

    `kernel` is the (rows, cols, values) triples of M's nonzero entries
    M[s * A + a, s'], so a tabular cell without records has no triple and
    predicts 0; `counts` is the (rows, cols, n) triples of the fold's nonzero
    (s, a, s') record counts, in row-major order.
    """

    kernel: tuple
    counts: tuple
    diagnostics: dict = field(default_factory=dict)


def fit_classifier(spec: ClassifierSpec, states, actions,
                   n_states: int, n_actions: int) -> FittedClassifier:
    """Estimate the behavior policy pi(a|s) from observed (s, a) pairs."""
    if not PROB_FLOOR < 1.0 / n_actions:
        raise ValueError(f"PROB_FLOOR must lie below 1/{n_actions}")
    s, a = check_records(n_states, n_actions, states, actions)
    if s.size == 0:
        raise ValueError("empty training data")
    counts = _count_keys(lambda lo, hi: s[lo:hi] * n_actions + a[lo:hi], s.size,
                         n_states * n_actions).reshape(n_states, n_actions)
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
    probs = np.maximum(probs, PROB_FLOOR)
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
    for _ in range(LOGISTIC_EPOCHS):
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
    M g, with M held as triples (see FittedRegressor). The one-fold case of
    fit_regressor_folds."""
    return next(fit_regressor_folds(spec, states, actions, next_states, n_states, n_actions, 1))


def fit_regressor_folds(spec: RegressorSpec, states, actions, next_states,
                        n_states: int, n_actions: int, folds: int):
    """Yield fit_regressor's fit of each of `folds` equal consecutive folds
    of the records in turn, from one check and one count of the (fold,
    s * A + a, s') keys: when their range is at most the record count, a
    dense bincount of one chunk of records at a time (`mdp._count_keys`), so
    no key array of the record count exists; else a sort of all keys. Each
    fold's count and tabular triples are views into the shared sorted
    counts. The check and count run when the first fold is taken and a
    ridge fold's solve when it is, so a failure surfaces at its fold."""
    s, a, s2 = check_records(n_states, n_actions, states, actions, next_states)
    if s.size == 0:
        raise ValueError("empty training data")
    if folds < 1 or s.size % folds:
        raise ValueError(f"{s.size} records do not split into {folds} equal folds")
    n_cells = n_states * n_actions
    if spec.kind == "ridge":
        if spec.features is None:
            raise ValueError("ridge regression needs a feature table")
        phi = np.asarray(spec.features, dtype=float)
        if phi.shape[:2] != (n_states, n_actions):
            raise ValueError(f"features shape {phi.shape} does not match ({n_states}, {n_actions}, d)")
        phi = phi.reshape(n_cells, -1)

    span, size = n_cells * n_states, s.size // folds  # keys and records per fold

    def keys(lo, hi):  # the (fold, s * A + a, s') keys of records lo:hi
        fold = np.arange(lo, hi) // size if folds > 1 else 0
        return (fold * n_cells + s[lo:hi] * n_actions + a[lo:hi]) * n_states + s2[lo:hi]

    if folds * span <= s.size:
        counts = _count_keys(keys, s.size, folds * span)
        support = np.flatnonzero(counts > 0)  # a bool mask scans faster than int64
        n = counts[support]
    else:
        support, n = np.unique(keys(0, s.size), return_counts=True)
    cells, cols = np.divmod(support, n_states)  # cells = fold * S * A + s * A + a
    cnt = np.bincount(cells, n, minlength=folds * n_cells)
    rows, values = cells % n_cells, n / cnt[cells]
    cnt = cnt.reshape(folds, n_cells)
    empty = np.count_nonzero(cnt == 0, axis=1).tolist()
    bounds = np.searchsorted(support, np.arange(folds + 1) * span).tolist()

    for fold in range(folds):
        lo, hi = bounds[fold], bounds[fold + 1]
        if spec.kind == "tabular-mean":
            kernel = rows[lo:hi], cols[lo:hi], values[lo:hi]
        else:
            fold_counts = np.zeros(span, dtype=n.dtype)
            fold_counts[support[lo:hi] - fold * span] = n[lo:hi]
            gram = (phi * cnt[fold, :, None]).T @ phi + spec.ridge_lambda * np.eye(phi.shape[1])
            try:
                np.linalg.cholesky(gram)
            except np.linalg.LinAlgError:
                raise ValueError(
                    "normal equations are rank-deficient; set ridge_lambda > 0"
                ) from None
            product = phi @ np.linalg.solve(gram, phi.T @ fold_counts.reshape(n_cells, n_states))
            nonzero = np.nonzero(product)
            kernel = (*nonzero, product[nonzero])
        diagnostics = {"n_empty_cells": empty[fold], "n_train": size}
        yield FittedRegressor(kernel, (rows[lo:hi], cols[lo:hi], n[lo:hi]), diagnostics)
