"""Blackbox probabilistic classification and regression oracles.

The classifier estimates the behavior policy by the tabular frequency in the (S, A)
table of record counts (`mdp.cell_counts`); another kind would plug in at fit_classifier,
which fits from that table. The regressor estimates conditional means E[g(s') | s, a]
for a next-state function g by the tabular mean, which is linear in its targets, so
one fit on a fold is a linear map from g to the (s, a) table, reused for every g. The
map is held sparsely, as (row, col, value) triples over cells s * A + a and next states
s', with the record count of each: a fold of m records has at most m of them. All folds
of a split are fitted at once, in memory that grows with their records, not folds * S * A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from softirl.mdp import _cell_keys, _count_keys, check_records

PROB_FLOOR = 1e-6  # least fitted probability, so the log-policy stays bounded


@dataclass
class FittedRegressor:
    """The fitted regression g -> M g, flattened over cells s * A + a.

    `kernel` is the (rows, cols, values) triples of M's nonzero entries
    M[s * A + a, s'], in row-major order, so a cell without records has no
    triple and predicts 0; `n` is the fold's record count of each (s, a, s')
    triple, and `n_records` their sum. An `exact` map has one triple per
    visited cell, so its values are n / n = 1.0 and it has no misfit on its
    records.
    """

    kernel: tuple
    n: np.ndarray
    n_cells: int
    n_records: int
    diagnostics: dict = field(default_factory=dict)
    exact: bool = field(init=False)

    def __post_init__(self):
        self.exact = len(self.n) == self.n_cells - self.n_empty_cells

    @property
    def n_empty_cells(self) -> int:
        return self.diagnostics["n_empty_cells"]

    @property
    def cell_counts(self) -> np.ndarray:
        """The fold's record count of each cell s * A + a, a flat (S * A,) table."""
        return np.bincount(self.kernel[0], self.n, minlength=self.n_cells).astype(np.intp)

    def step(self, g) -> tuple[np.ndarray, float]:
        """(v, eta): v = M g as a flat (S * A,) table, and eta its root-mean-square
        misfit on the fold's records, off the one gather of g at the triples' cols.
        An exact map sums g[col], with eta 0.0."""
        rows, cols, values = self.kernel
        g_cols = g.take(cols)
        if self.exact:
            return np.bincount(rows, g_cols, minlength=self.n_cells), 0.0
        v = np.bincount(rows, values * g_cols, minlength=self.n_cells)
        d = v.take(rows) - g_cols
        d *= d
        return v, math.sqrt(float(self.n @ d) / max(self.n_records, 1))


def fit_classifier(cfg, counts) -> np.ndarray:
    """Estimate the (S, A) behavior policy pi(a|s) from the (S, A) table of
    record counts, adding the `SolverConfig` cfg's smoothing_alpha to every
    count; floored at PROB_FLOOR and renormalized."""
    n_actions = counts.shape[1]
    if not PROB_FLOOR < 1.0 / n_actions:
        raise ValueError(f"PROB_FLOOR must lie below 1/{n_actions}")
    alpha = cfg.smoothing_alpha
    denom = counts.sum(axis=1) + alpha * n_actions
    probs = np.full(counts.shape, 1.0 / n_actions)
    seen = denom > 0
    probs[seen] = (counts[seen] + alpha) / denom[seen, None]
    # a clamped row sums to under 1 + A * floor < 2, so every entry stays >= floor / 2
    probs = np.maximum(probs, PROB_FLOOR)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs


def fit_regressor(states, actions, next_states, n_states: int, n_actions: int) -> FittedRegressor:
    """Tabular mean of the next-state indicator per (s, a) cell, its
    least-squares fit: regressing any target g(s') on the same records gives
    M g, with M held as triples (see FittedRegressor). The one-fold case of
    fit_regressor_folds."""
    return fit_regressor_folds(states, actions, next_states, n_states, n_actions, 1)[0]


def fit_regressor_folds(states, actions, next_states, n_states: int, n_actions: int,
                        folds: int) -> list[FittedRegressor]:
    """fit_regressor's fit of each of `folds` equal consecutive folds of the records, in
    order, from one check and one count of their (fold, s * A + a, s') keys: fold by fold
    by a chunked bincount (`mdp._count_keys`) if a fold has at least as many records as
    keys, else by one in-place sort. Cell totals and empty cells come from the keys' runs,
    so memory grows with the records; the folds' triples are views into shared arrays."""
    s, a, s2 = check_records(n_states, n_actions, states, actions, next_states)
    if s.size == 0:
        raise ValueError("empty training data")
    if folds < 1 or s.size % folds:
        raise ValueError(f"{s.size} records do not split into {folds} equal folds")
    n_cells = n_states * n_actions
    span, size = n_cells * n_states, s.size // folds  # keys and records per fold

    def keys(lo, hi):  # the (s * A + a, s') keys of records lo:hi, built in place
        key = _cell_keys(s[lo:hi], a[lo:hi], n_actions)
        key *= n_states
        key += s2[lo:hi]
        return key

    def starts(x):  # one bool mask, True at the first entry of each run of sorted x
        start = np.ones(len(x), dtype=bool)
        np.not_equal(x[1:], x[:-1], out=start[1:])
        return start

    if span <= size:
        parts = []
        for at in range(0, s.size, size):  # each fold's count, kept as its visited keys
            counts = _count_keys(lambda lo, hi: keys(at + lo, at + hi), size, span)
            support = np.flatnonzero(counts > 0)  # a bool mask scans faster than int64
            parts.append((support + at // size * span, counts[support]))
        support, n = (np.concatenate(part) for part in zip(*parts))
    else:  # fold k's keys gain k * span in one broadcast over whole folds
        support = keys(0, s.size)
        support.reshape(folds, size)[...] += np.arange(folds)[:, None] * span
        support.sort()
        first = np.flatnonzero(starts(support))
        support, n = support[first], np.diff(first, append=s.size)
    bounds = np.searchsorted(support, np.arange(folds + 1) * span)
    run = np.cumsum(starts(support // n_states)) - 1  # each triple's visited (fold, cell)
    values = n / np.bincount(run, n)[run]
    empty = (n_cells - 1 - run[bounds[1:] - 1] + run[bounds[:-1]]).tolist()
    rows, cols = np.divmod(support % span, n_states)

    return [FittedRegressor((rows[lo:hi], cols[lo:hi], values[lo:hi]), n[lo:hi], n_cells, size,
                            {"n_empty_cells": n_empty, "n_train": size})
            for lo, hi, n_empty in zip(bounds.tolist(), bounds[1:].tolist(), empty)]
