"""Blackbox probabilistic classification and regression oracles.

The classifier estimates the behavior policy from (s, a) pairs by the
tabular count; fit_classifier is where another kind would plug in. The
regressor estimates conditional means E[g(s') | s, a] for a next-state
function g by the tabular mean, which is linear in its targets, so one fit
on a fold is a linear map from g to the (s, a) table, reused for every g. The map is held sparsely, as (row, col,
value) triples over cells s * A + a and next states s': a fold of m records
has at most m of them. All folds of a split are fitted at once, as a list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from softirl.mdp import _cell_keys, _count_keys, check_records

PROB_FLOOR = 1e-6  # least fitted probability, so the log-policy stays bounded


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
    M[s * A + a, s'], so a cell without records has no triple and
    predicts 0; `counts` is the (rows, cols, n) triples of the fold's nonzero
    (s, a, s') record counts, in row-major order, on the kernel's rows and cols,
    and `n_records` their sum. An `exact` map has one count triple per visited
    cell, so its values are n / n = 1.0 and it has no misfit on its records.
    """

    kernel: tuple
    counts: tuple
    n_cells: int
    n_records: int
    diagnostics: dict = field(default_factory=dict)
    exact: bool = field(init=False)

    def __post_init__(self):
        self.exact = len(self.counts[0]) == self.n_cells - self.n_empty_cells

    @property
    def n_empty_cells(self) -> int:
        return self.diagnostics["n_empty_cells"]

    def step(self, g) -> tuple[np.ndarray, float]:
        """(v, eta): v = M g as a flat (S * A,) table, and eta its root-mean-square
        misfit on the fold's records, off the same gather of g where the kernel and
        count triples share their cols. An exact map sums g[col], with eta 0.0."""
        rows, cols, values = self.kernel
        g_cols = g.take(cols)
        if self.exact:
            return np.bincount(rows, g_cols, minlength=self.n_cells), 0.0
        v = np.bincount(rows, values * g_cols, minlength=self.n_cells)
        rows, count_cols, n = self.counts
        d = v.take(rows) - (g_cols if count_cols is cols else g.take(count_cols))
        d *= d
        return v, math.sqrt(float(n @ d) / max(self.n_records, 1))


def fit_classifier(cfg, states, actions, n_states: int, n_actions: int) -> FittedClassifier:
    """Estimate the behavior policy pi(a|s) from observed (s, a) pairs, adding
    the `SolverConfig` cfg's smoothing_alpha to every count; floored at PROB_FLOOR."""
    if not PROB_FLOOR < 1.0 / n_actions:
        raise ValueError(f"PROB_FLOOR must lie below 1/{n_actions}")
    s, a = check_records(n_states, n_actions, states, actions)
    if s.size == 0:
        raise ValueError("empty training data")
    counts = _count_keys(lambda lo, hi: _cell_keys(s[lo:hi], a[lo:hi], n_actions), s.size,
                         n_states * n_actions).reshape(n_states, n_actions)
    alpha = cfg.smoothing_alpha
    denom = counts.sum(axis=1) + alpha * n_actions
    probs = np.full((n_states, n_actions), 1.0 / n_actions)
    seen = denom > 0
    probs[seen] = (counts[seen] + alpha) / denom[seen, None]
    # a clamped row sums to under 1 + A * floor < 2, so every entry stays >= floor / 2
    probs = np.maximum(probs, PROB_FLOOR)
    probs /= probs.sum(axis=1, keepdims=True)
    return FittedClassifier(probs, counts)


def fit_regressor(states, actions, next_states, n_states: int, n_actions: int) -> FittedRegressor:
    """Tabular mean of the next-state indicator per (s, a) cell, its
    least-squares fit: regressing any target g(s') on the same records gives
    M g, with M held as triples (see FittedRegressor). The one-fold case of
    fit_regressor_folds."""
    return fit_regressor_folds(states, actions, next_states, n_states, n_actions, 1)[0]


def fit_regressor_folds(states, actions, next_states, n_states: int, n_actions: int,
                        folds: int) -> list[FittedRegressor]:
    """fit_regressor's fit of each of `folds` equal consecutive folds of the
    records, in order, from one check and one count of the (fold, s * A + a,
    s') keys: when their range is at most the record count, a dense bincount
    of one chunk of records at a time (`mdp._count_keys`), so no key array of
    the record count exists; else a sort of all keys. Each fold's count and
    kernel triples are views into the shared sorted counts."""
    s, a, s2 = check_records(n_states, n_actions, states, actions, next_states)
    if s.size == 0:
        raise ValueError("empty training data")
    if folds < 1 or s.size % folds:
        raise ValueError(f"{s.size} records do not split into {folds} equal folds")
    n_cells = n_states * n_actions
    span, size = n_cells * n_states, s.size // folds  # keys and records per fold

    def keys(lo, hi):  # the (fold, s * A + a, s') keys of records lo:hi, built in place
        key = _cell_keys(s[lo:hi], a[lo:hi], n_actions)
        if folds > 1:
            key += np.arange(lo, hi) // size * n_cells
        key *= n_states
        key += s2[lo:hi]
        return key

    if folds * span <= s.size:
        counts = _count_keys(keys, s.size, folds * span)
        support = np.flatnonzero(counts > 0)  # a bool mask scans faster than int64
        n = counts[support]
    else:
        support, n = np.unique(keys(0, s.size), return_counts=True)
    cells, cols = np.divmod(support, n_states)  # cells = fold * S * A + s * A + a
    cnt = np.bincount(cells, n, minlength=folds * n_cells)
    rows, values = cells % n_cells, n / cnt[cells]
    empty = np.count_nonzero(cnt.reshape(folds, n_cells) == 0, axis=1).tolist()
    bounds = np.searchsorted(support, np.arange(folds + 1) * span).tolist()

    return [FittedRegressor((*at, values[lo:hi]), (*at, n[lo:hi]), n_cells, size,
                            {"n_empty_cells": n_empty, "n_train": size})
            for lo, hi, n_empty in zip(bounds, bounds[1:], empty)
            for at in [(rows[lo:hi], cols[lo:hi])]]  # one rows and cols view for both
