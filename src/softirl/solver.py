"""Reward and soft-value recovery from behavior data.

The population maximum-likelihood solution is a potential shaping of the
trivial pair (log pi, 0), pinned down by requiring the reward to integrate to
zero against a reference conditional measure mu. That potential solves an
n_states-dimensional linear system, which `exact_population_solver` solves
densely. The two data-driven variants replace the exact ingredients with a
classification oracle for pi and an iterated regression oracle for the value
fixed point. Both shipped regressors are linear in their targets, so each
regression fold is fitted once as a linear map over next-state functions
and applied at every step that uses it: `classify_then_regress` fits the
full sample once and applies that map at every step, `split_classify_regress`
dedicates half the data to classification and regresses step k on fold k of
K equal folds of the other half, all fitted from one count of that half.

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
    check_distribution,
    joint_frequency,
    state_kernel,
)
from softirl.oracles import (
    ClassifierSpec,
    RegressorSpec,
    fit_classifier,
    fit_regressor,
    fit_regressor_folds,
)

MAX_AUTO_K = 500
MEASURES = ("uniform", "point-mass", "behavior-policy")


@dataclass(frozen=True)
class NormalizationMeasure:
    """Reference conditional measure the recovered reward integrates to zero against."""

    kind: str = "uniform"
    ref_action: int = 0

    def __post_init__(self):
        if self.kind not in MEASURES:
            raise ValueError(f"kind: must be one of {MEASURES}, got {self.kind!r}")

    def materialize(self, n_states: int, n_actions: int, behavior=None) -> np.ndarray:
        """The (S, A) measure table; the behavior-policy measure is `behavior`
        as given, which callers pass as a checked policy table."""
        if self.kind == "uniform":
            return np.full((n_states, n_actions), 1.0 / n_actions)
        if self.kind == "point-mass":
            if not 0 <= self.ref_action < n_actions:
                raise ValueError(f"ref_action {self.ref_action} out of range")
            table = np.zeros((n_states, n_actions))
            table[:, self.ref_action] = 1.0
            return table
        if behavior is None:
            raise ValueError("behavior-policy measure needs a realized policy table")
        return behavior


@dataclass
class SolverConfig:
    """Settings of a data-driven solve. K sets the fitted fixed-point step
    count and, for a split solve, the regression fold count: step k
    regresses on fold k of the second half."""

    gamma: float = 0.97
    K: int | str = "auto"
    mu: NormalizationMeasure = field(default_factory=NormalizationMeasure)
    classifier: ClassifierSpec = field(default_factory=ClassifierSpec)
    regressor: RegressorSpec = field(default_factory=RegressorSpec)

    def __post_init__(self):
        if self.K != "auto" and (isinstance(self.K, str) or self.K < 0):
            raise ValueError(f"K: must be 'auto' or nonnegative, got {self.K!r}")

    def steps(self, n: int) -> int:
        """Fitted fixed-point steps on n records: K, where 'auto' picks
        ceil(ln n / ln(1/gamma)) capped at MAX_AUTO_K, so the remaining
        iteration error gamma^K is about 1/n."""
        if self.K != "auto":
            return int(self.K)
        if self.gamma <= 0.0:
            return 1
        return min(max(1, math.ceil(math.log(n) / math.log(1.0 / self.gamma))), MAX_AUTO_K)


@dataclass
class SolverDiagnostics:
    """Error-budget quantities observed during a solve.

    eta[k] is the root-mean-square misfit of the k-th regression on its own
    fitting fold; nu_proxy is the train KL between the empirical conditional
    and the fitted classifier; kappa_hat is the largest ratio of (empirical
    state marginal x mu) to empirical (s, a) mass over the visited support,
    and freq is that (S, A) joint frequency table of the whole sample.
    iterations is len(eta); iterates holds v_0 .. v_K when a solve records them.
    """

    eta: list = field(default_factory=list)
    nu_proxy: float | None = None
    kappa_hat: float | None = None
    freq: np.ndarray | None = None
    warnings: list = field(default_factory=list)
    iterates: list | None = None

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


def exact_population_solver(mdp: TabularMdp, pi, mu: NormalizationMeasure) -> IrlSolution:
    """Unique normalized maximum-likelihood solution given the true policy.

    Solves (I - gamma K_mu) c = -mu log(pi) densely for the state potential
    (K_mu the state kernel under mu), then v = Pc and r via the shaping form.
    """
    pi = check_distribution(pi, (mdp.n_states, mdp.n_actions), "pi")
    if np.any(pi <= 0.0):
        raise ValueError(
            "behavior policy has zero entries (log undefined); floor it first"
        )
    mu_t = mu.materialize(mdp.n_states, mdp.n_actions, behavior=pi)
    u = np.log(pi)
    kernel = state_kernel(mdp, mu_t)
    rhs = -np.sum(mu_t * u, axis=1)
    v = apply_P(mdp, _solve_discounted(kernel, mdp.gamma, rhs, "potential"))
    r, c = _assemble(u, v, mu_t, mdp.gamma)
    return IrlSolution(r, v, u, c, mu_t, mdp.gamma, SolverDiagnostics(nu_proxy=0.0))


def _classifier_train_kl(probs: np.ndarray, counts: np.ndarray) -> float:
    """KL of the fitted policy from the empirical conditional, weighted by
    empirical state frequency (finite because the fit is floored)."""
    state_counts = counts.sum(axis=1)
    seen = state_counts > 0
    emp = counts[seen] / state_counts[seen, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(emp > 0, emp * (np.log(np.maximum(emp, 1e-300)) - np.log(probs[seen])), 0.0)
    return float(np.sum(state_counts[seen] / state_counts.sum() * terms.sum(axis=1)))


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


def _fit_policy(cfg: SolverConfig, data, n_train: int):
    """Classifier stage shared by the data-driven variants: fit pi on the
    first `n_train` records, then record nu_proxy on them and kappa_hat on
    all records, with a warning for each coverage gap."""
    n_states = data.meta["n_states"]
    n_actions = data.meta["n_actions"]
    states = np.asarray(data.states)
    actions = np.asarray(data.actions)
    clf = fit_classifier(cfg.classifier, states[:n_train], actions[:n_train],
                         n_states, n_actions)
    mu_t = cfg.mu.materialize(n_states, n_actions, behavior=clf.probs)
    diag = SolverDiagnostics(nu_proxy=_classifier_train_kl(clf.probs, clf.counts))
    unvisited = np.count_nonzero(clf.counts.sum(axis=1) == 0)
    if unvisited:
        diag.warnings.append(
            f"{unvisited} states never visited; classifier rows default to uniform there")
    # the classifier counted every record unless the sample is split
    diag.freq = (clf.counts / n_train if n_train == len(states)
                 else joint_frequency(states, actions, n_states, n_actions))
    diag.kappa_hat = _empirical_kappa(diag.freq, mu_t, diag.warnings)
    return np.log(clf.probs), mu_t, diag  # the floor keeps the log finite


def _fitted_fixed_point(cfg: SolverConfig, u, mu_t, k_steps: int, maps,
                        diag: SolverDiagnostics, record_iterates: bool) -> IrlSolution:
    """The fitted fixed-point loop v <- M_k g with g = mu[gamma v - u].

    M_k is the k-th map the iterator `maps` yields, taken when step k is
    reached and unpacked only when it is a new map; each step is one
    product, M_k g summed over its (row, col, value) triples. eta[k] is the
    root-mean-square misfit of v on that map's records, read off its count
    triples (0 for the population map, which has none).
    """
    v = np.zeros_like(u)
    diag.iterates = [v] if record_iterates else None
    fitted, empty_seen = None, 0
    for k in range(k_steps):
        try:
            step_map = next(maps)
        except Exception as exc:
            raise RuntimeError(f"regression oracle failed at iteration {k + 1}: {exc}") from exc
        if step_map is not fitted:
            fitted = step_map
            map_rows, map_cols, map_values = fitted.kernel
            rows, cols, weights = fitted.counts
            n_records = max(int(weights.sum()), 1)
            empty_seen = max(empty_seen, fitted.diagnostics["n_empty_cells"])
        g = np.sum(mu_t * (cfg.gamma * v - u), axis=1)
        flat = np.bincount(map_rows, map_values * g[map_cols], minlength=u.size)
        diag.eta.append(float(np.sqrt(weights @ (flat[rows] - g[cols]) ** 2 / n_records)))
        v = flat.reshape(u.shape)
        if record_iterates:
            diag.iterates.append(v)
    if empty_seen:
        diag.warnings.append(
            f"up to {empty_seen} (s, a) cells unvisited per regression fold; each predicts 0"
        )
    r, c = _assemble(u, v, mu_t, cfg.gamma)
    return IrlSolution(r, v, u, c, mu_t, cfg.gamma, diag)


def _every_step(*args):
    """fit_regressor's one map of the records `args`, fitted when first taken, at every step."""
    fitted = fit_regressor(*args)
    while True:
        yield fitted


def classify_then_regress(data, cfg: SolverConfig, *,
                          record_iterates: bool = False) -> IrlSolution:
    """Fitted fixed-point recovery: classify the behavior policy, then
    iterate regressions of mu[gamma v - u](s') on (s, a), all on the full
    sample through one fitted map."""
    if data.n < 1:
        raise ValueError("empty dataset")
    u, mu_t, diag = _fit_policy(cfg, data, data.n)
    maps = _every_step(cfg.regressor, data.states, data.actions, data.next_states,
                       data.meta["n_states"], data.meta["n_actions"])
    return _fitted_fixed_point(cfg, u, mu_t, cfg.steps(data.n), maps, diag, record_iterates)


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
    u, mu_t, diag = _fit_policy(cfg, data, half)
    if fold_size < n_states:
        diag.warnings.append(f"fold size {fold_size} is below the state count; "
                             "coverage gaps likely")
    regress = slice(half, half + k_steps * fold_size)
    maps = fit_regressor_folds(cfg.regressor, data.states[regress], data.actions[regress],
                               data.next_states[regress], n_states, n_actions, k_steps)
    return _fitted_fixed_point(cfg, u, mu_t, k_steps, maps, diag, False)


def save_solution(solution: IrlSolution, out_dir) -> None:
    """Write r/v/u/c tables as CSV (action-index header) plus diagnostics.json."""
    os.makedirs(out_dir, exist_ok=True)
    header = ",".join(str(a) for a in range(solution.r.shape[1]))
    for name, table in (("r", solution.r), ("v", solution.v), ("u", solution.u)):
        np.savetxt(os.path.join(out_dir, f"{name}.csv"), table,
                   fmt="%.17g", delimiter=",", header=header, comments="")
    np.savetxt(os.path.join(out_dir, "c.csv"), solution.c,
               fmt="%.17g", delimiter=",", header="c", comments="")
    np.savetxt(os.path.join(out_dir, "mu.csv"), solution.mu_table,
               fmt="%.17g", delimiter=",", header=header, comments="")
    d = solution.diagnostics
    payload = {
        "gamma": solution.gamma,
        "eta": d.eta,
        "nu_proxy": d.nu_proxy,
        "kappa_hat": d.kappa_hat,
        "iterations": d.iterations,
        "warnings": d.warnings,
    }
    with open(os.path.join(out_dir, "diagnostics.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_solution(out_dir) -> IrlSolution:
    tables = {}
    for name in ("r", "v", "u", "mu"):
        tables[name] = np.loadtxt(os.path.join(out_dir, f"{name}.csv"),
                                  delimiter=",", skiprows=1, ndmin=2)
    c = np.loadtxt(os.path.join(out_dir, "c.csv"), delimiter=",", skiprows=1, ndmin=1)
    with open(os.path.join(out_dir, "diagnostics.json")) as fh:
        payload = json.load(fh)
    diag = SolverDiagnostics(eta=payload.get("eta", []),
                             nu_proxy=payload.get("nu_proxy"),
                             kappa_hat=payload.get("kappa_hat"),
                             warnings=payload.get("warnings", []))
    return IrlSolution(tables["r"], tables["v"], tables["u"], c,
                       tables["mu"], payload["gamma"], diag)
