"""Reward and soft-value recovery from behavior data.

The population maximum-likelihood solution is a potential shaping of the
trivial pair (log pi, 0), pinned down by requiring the reward to integrate to
zero against a reference conditional measure mu. That potential solves an
n_states-dimensional linear system, which `exact_population_solver` solves
densely. The two data-driven variants replace the exact ingredients with a
classification oracle for pi and an iterated regression oracle for the value
fixed point. The regression oracle is the tabular mean, which is linear in
its targets, so each regression fold is fitted once as a linear map over
next-state functions and applied at every step that uses it:
`classify_then_regress` fits the full sample once, classifies from that
map's cell counts and applies it at every step; `split_classify_regress`
classifies from the counts of half the data and regresses step k on fold k
of K equal folds of the other half, all fitted from one count of that half.

Both variants return rewards through the same closed form r = w - mu w with
w = u - gamma v, which satisfies the normalization identically (and exactly
at the reference action for point-mass mu) regardless of oracle quality.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from softirl.mdp import (
    TabularMdp,
    _solve_discounted,
    apply_P,
    cell_counts,
    check_distribution,
    row_kl,
    state_kernel,
)
from softirl.oracles import fit_classifier, fit_regressor, fit_regressor_folds

MAX_AUTO_K = 500
MEASURES = ("uniform", "point-mass", "behavior-policy")


@dataclass(frozen=True)
class SolverConfig:
    """Settings of a data-driven solve. K sets the fitted fixed-point step
    count and, for a split solve, the regression fold count: step k
    regresses on fold k of the second half. The reward integrates to zero
    against the measure `mu` (a point mass at `mu_ref_action`, if so), and
    `smoothing_alpha` is the classifier's Laplace count."""

    gamma: float = 0.97
    K: int | str = "auto"
    mu: str = "uniform"
    mu_ref_action: int = 0
    smoothing_alpha: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma: must lie in [0, 1), got {self.gamma}")
        K = self.K
        if K != "auto" and (isinstance(K, bool) or not isinstance(K, (int, np.integer)) or K < 0):
            raise ValueError(f"K: must be 'auto' or a nonnegative integer, got {K!r}")
        if self.mu not in MEASURES:
            raise ValueError(f"mu: must be one of {MEASURES}, got {self.mu!r}")
        action = self.mu_ref_action
        if isinstance(action, bool) or not isinstance(action, (int, np.integer)):
            raise ValueError(f"mu_ref_action: must be an integer, got {action!r}")
        if not 0 <= self.smoothing_alpha < np.inf:
            raise ValueError("smoothing_alpha: must be finite and nonnegative, "
                             f"got {self.smoothing_alpha}")

    def steps(self, n: int) -> int:
        """Fitted fixed-point steps on n records: K, where 'auto' picks
        ceil(ln n / ln(1/gamma)) capped at MAX_AUTO_K, so the remaining
        iteration error gamma^K is about 1/n."""
        if self.K != "auto":
            return int(self.K)
        if self.gamma <= 0.0:
            return 1
        return min(max(1, math.ceil(math.log(n) / math.log(1.0 / self.gamma))), MAX_AUTO_K)

    def mu_table(self, n_states: int, n_actions: int, behavior=None) -> np.ndarray:
        """The (S, A) measure table; the behavior-policy measure is `behavior`
        as given, which callers pass as a checked policy table."""
        if self.mu == "uniform":
            return np.full((n_states, n_actions), 1.0 / n_actions)
        if self.mu == "point-mass":
            if not 0 <= self.mu_ref_action < n_actions:
                raise ValueError(f"mu_ref_action {self.mu_ref_action} out of range")
            table = np.zeros((n_states, n_actions))
            table[:, self.mu_ref_action] = 1.0
            return table
        if behavior is None:
            raise ValueError("behavior-policy measure needs a realized policy table")
        return behavior


@dataclass
class SolverDiagnostics:
    """Error-budget quantities observed during a solve.

    eta[k] is the root-mean-square misfit of the k-th regression on its own
    fitting fold; nu_proxy is the train KL between the empirical conditional
    and the fitted classifier; kappa_hat is the largest ratio of (empirical
    state marginal x mu) to empirical (s, a) mass over the visited support
    of the whole sample, whose (S, A) record counts are sample_counts.
    iterations is len(eta); a traced solve's iterates is the (K + 1, S, A) array of v_0 .. v_K.
    """

    eta: list = field(default_factory=list)
    nu_proxy: float | None = None
    kappa_hat: float | None = None
    warnings: list = field(default_factory=list)
    iterates: np.ndarray | None = None
    sample_counts: np.ndarray | None = field(default=None, compare=False)

    @property
    def iterations(self) -> int:
        return len(self.eta)


@dataclass
class IrlSolution:
    r: np.ndarray
    v: np.ndarray
    u: np.ndarray
    c: np.ndarray
    mu_table: np.ndarray
    gamma: float
    diagnostics: SolverDiagnostics = field(default_factory=SolverDiagnostics)


def _assemble(u: np.ndarray, v: np.ndarray, mu_t: np.ndarray, gamma: float):
    """Closed-form return line shared by both algorithms.

    With w = u - gamma v, the reward w - mu w integrates to zero against mu
    by construction, and exactly cancels at the reference action when mu is
    a point mass.
    """
    w = u - gamma * v
    mu_w = np.sum(mu_t * w, axis=1)
    r = w - mu_w[:, None]
    return r, -mu_w


def check_normalization(r, mu_table) -> float:
    """Largest per-state magnitude of the integral of r against the (S, A) mu_table."""
    return float(np.max(np.abs(np.sum(mu_table * r, axis=1))))


def exact_population_solver(mdp: TabularMdp, pi, cfg: SolverConfig) -> IrlSolution:
    """Unique normalized maximum-likelihood solution given the true policy,
    normalized against `cfg`'s measure and discounted with the MDP's gamma.

    Solves (I - gamma K_mu) c = -mu log(pi) densely for the state potential
    (K_mu the state kernel under mu), then v = Pc and r via the shaping form.
    """
    pi = check_distribution(pi, (mdp.n_states, mdp.n_actions), "pi")
    if np.any(pi <= 0.0):
        raise ValueError(
            "behavior policy has zero entries (log undefined); floor it first"
        )
    mu_t = cfg.mu_table(mdp.n_states, mdp.n_actions, behavior=pi)
    u = np.log(pi)
    kernel = state_kernel(mdp, mu_t)
    rhs = -np.sum(mu_t * u, axis=1)
    v = apply_P(mdp, _solve_discounted(kernel, mdp.gamma, rhs, "potential"))
    r, c = _assemble(u, v, mu_t, mdp.gamma)
    return IrlSolution(r, v, u, c, mu_t, mdp.gamma, SolverDiagnostics(nu_proxy=0.0))


def _classifier_train_kl(probs: np.ndarray, counts: np.ndarray) -> float:
    """KL of the fitted policy from the empirical conditional, weighted by
    empirical state frequency (finite because the fit is floored), clamped at
    0 against the +-1e-17 terms of a fit equal to the empirical rows up to rounding."""
    state_counts = counts.sum(axis=1)
    seen = state_counts > 0
    emp = counts[seen] / state_counts[seen, None]
    return max(0.0, float(np.sum(state_counts[seen] / state_counts.sum()
                                 * row_kl(emp, probs[seen]))))


def _empirical_kappa(freq: np.ndarray, mu_t: np.ndarray, warnings: list) -> float:
    """Density ratio of (empirical state marginal x mu) to the empirical
    joint, over the visited support; uncovered cells become a warning."""
    state_marginal = freq.sum(axis=1)
    target = state_marginal[:, None] * mu_t
    visited = freq > 0
    uncovered = np.sum((target > 0) & ~visited)
    if uncovered:
        warnings.append(f"{int(uncovered)} (s, a) cells carry mu mass but were never visited")
    return float(np.max(target[visited] / freq[visited]))


def _fit_policy(cfg: SolverConfig, counts: np.ndarray, sample_counts: np.ndarray):
    """Classifier stage shared by the data-driven variants: fit pi on the (S, A)
    record counts `counts`, then record nu_proxy on them and kappa_hat on the
    whole sample's `sample_counts`, with a warning for each coverage gap."""
    probs = fit_classifier(cfg, counts)
    mu_t = cfg.mu_table(*counts.shape, behavior=probs)
    diag = SolverDiagnostics(nu_proxy=_classifier_train_kl(probs, counts),
                             sample_counts=sample_counts)
    unvisited = np.count_nonzero(counts.sum(axis=1) == 0)
    if unvisited:
        diag.warnings.append(
            f"{unvisited} states never visited; classifier rows default to uniform there")
    diag.kappa_hat = _empirical_kappa(sample_counts / sample_counts.sum(), mu_t, diag.warnings)
    return np.log(probs), mu_t, diag  # the floor keeps the log finite


def _fitted_fixed_point(cfg: SolverConfig, u, mu_t, maps: list, diag: SolverDiagnostics,
                        record_iterates: bool) -> IrlSolution:
    """The fitted fixed-point loop v <- M_k g with g = mu[gamma v - u], one step per
    map M_k = maps[k], on flat (S * A,) tables: M_k.step(g) gives v and eta[k], the
    root-mean-square misfit of v on that map's records, and the warning reads each
    map's n_empty_cells. work is a view of flat_work, whatever the memory order of u.
    """
    v, flat_work, g = np.zeros(u.size), np.empty(u.size), np.empty(len(u))
    work, flat_u, flat_mu = flat_work.reshape(u.shape), u.ravel(), mu_t.ravel()
    diag.iterates = np.zeros((len(maps) + 1, *u.shape)) if record_iterates else None
    for k, step_map in enumerate(maps, 1):
        np.subtract(np.multiply(v, cfg.gamma, out=flat_work), flat_u, out=flat_work)
        np.multiply(flat_work, flat_mu, out=flat_work)
        np.add.reduce(work, axis=1, out=g)
        v, eta = step_map.step(g)
        diag.eta.append(eta)
        if record_iterates:
            diag.iterates[k] = v.reshape(u.shape)
    empty_seen = max((m.n_empty_cells for m in maps), default=0)
    if empty_seen:
        diag.warnings.append(
            f"up to {empty_seen} (s, a) cells unvisited per regression fold; each predicts 0"
        )
    r, c = _assemble(u, v.reshape(u.shape), mu_t, cfg.gamma)
    return IrlSolution(r, v.reshape(u.shape), u, c, mu_t, cfg.gamma, diag)


def classify_then_regress(data, cfg: SolverConfig, *,
                          record_iterates: bool = False) -> IrlSolution:
    """Fitted fixed-point recovery on the full sample: fit its one regression
    map, classify the behavior policy from that map's cell counts, then iterate
    regressions of mu[gamma v - u](s') on (s, a) through the map."""
    if data.n < 1:
        raise ValueError("empty dataset")
    n_states, n_actions = data.meta["n_states"], data.meta["n_actions"]
    fitted = fit_regressor(data.states, data.actions, data.next_states, n_states, n_actions)
    counts = fitted.cell_counts.reshape(n_states, n_actions)
    u, mu_t, diag = _fit_policy(cfg, counts, counts)
    return _fitted_fixed_point(cfg, u, mu_t, [fitted] * cfg.steps(data.n), diag,
                               record_iterates)


def split_classify_regress(data, cfg: SolverConfig) -> IrlSolution:
    """Sample-split variant: the classifier sees the first half of the data
    and regression step k fits on fold k of K equal folds of the second
    half; folds smaller than the state count get a warning."""
    half = data.n // 2
    if half < 1:
        raise ValueError("need at least 2 records to split")
    k_steps = cfg.steps(data.n)
    fold_size = half // max(k_steps, 1)
    if fold_size == 0:
        raise ValueError(f"fold size is 0: half={half}, folds={k_steps}")
    n_states, n_actions = data.meta["n_states"], data.meta["n_actions"]
    counts = cell_counts(data.states[:half], data.actions[:half], n_states, n_actions)
    u, mu_t, diag = _fit_policy(cfg, counts, counts + cell_counts(
        data.states[half:], data.actions[half:], n_states, n_actions))
    if fold_size < n_states:
        diag.warnings.append(f"fold size {fold_size} is below the state count; "
                             "coverage gaps likely")
    regress = slice(half, half + k_steps * fold_size)
    maps = fit_regressor_folds(data.states[regress], data.actions[regress],
                               data.next_states[regress], n_states, n_actions,
                               k_steps) if k_steps else []
    return _fitted_fixed_point(cfg, u, mu_t, maps, diag, False)


# (file stem, IrlSolution field) of each <stem>.csv a solution directory holds: c.csv
# is the (S,) potential under a "c" header, the rest (S, A) under action indices
_TABLES = (("r", "r"), ("v", "v"), ("u", "u"), ("c", "c"), ("mu", "mu_table"))
# the SolverDiagnostics fields diagnostics.json holds, beside gamma and iterations
_DIAGNOSTICS = ("eta", "nu_proxy", "kappa_hat", "warnings")


def _write_table(path, table: np.ndarray, header: str) -> None:
    """`np.savetxt(path, table, fmt="%.17g", delimiter=",", header=header,
    comments="")` in one `%` call: a 1-d table is one value per line."""
    line = ",".join(["%.17g"] * (1 if table.ndim == 1 else table.shape[1])) + "\n"
    text = (line * len(table)) % tuple(table.ravel().tolist())
    with open(path, "w") as fh:
        fh.write(f"{header}\n{text}")


def save_solution(solution: IrlSolution, out_dir) -> None:
    """Write the `_TABLES` tables as CSV plus diagnostics.json."""
    os.makedirs(out_dir, exist_ok=True)
    actions = ",".join(str(a) for a in range(solution.r.shape[1]))
    for stem, name in _TABLES:
        table = getattr(solution, name)
        _write_table(os.path.join(out_dir, f"{stem}.csv"), table,
                     stem if table.ndim == 1 else actions)
    d = solution.diagnostics
    payload = {key: getattr(d, key) for key in _DIAGNOSTICS}
    payload.update(gamma=solution.gamma, iterations=d.iterations)
    with open(os.path.join(out_dir, "diagnostics.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_solution(out_dir) -> IrlSolution:
    """Read a `save_solution` directory; a diagnostics key missing from its JSON
    gets the SolverDiagnostics default. A JSON that is not an object, a gamma missing
    or not a real number, or a table malformed, empty or not of r.csv's (S, A)
    ((S,) for c.csv), is a ValueError naming its path."""
    tables = {}
    for stem, name in _TABLES:
        path = os.path.join(out_dir, f"{stem}.csv")
        with open(path) as fh:  # `_write_table`'s header line, then rows of values joined by ","
            rows = [row.split(",") for row in fh.read().splitlines()[1:]]
        if not rows:
            raise ValueError(f"{path}: no rows")
        try:  # a ragged row is numpy's ValueError too
            table = np.array(rows, dtype=float)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        if stem == "c" and table.shape[1] == 1:  # one value per line
            table = table[:, 0]
        shape = tables["r"].shape if tables else table.shape
        if table.shape != (shape[:1] if stem == "c" else shape):
            raise ValueError(f"{path}: shape {table.shape} does not match r.csv's (S, A) = {shape}")
        tables[name] = table
    path = os.path.join(out_dir, "diagnostics.json")
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(payload).__name__}")
    if "gamma" not in payload:
        raise ValueError(f"{path}: missing key 'gamma'")
    gamma = payload["gamma"]
    if isinstance(gamma, bool) or not isinstance(gamma, (int, float)):
        raise ValueError(f"{path}: gamma must be a number, got {gamma!r}")
    diag = SolverDiagnostics(**{key: payload[key] for key in _DIAGNOSTICS if key in payload})
    return IrlSolution(**tables, gamma=gamma, diagnostics=diag)
