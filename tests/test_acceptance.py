"""Acceptance suite: one test (or test group) per criterion, each printing a
PASS/FAIL line. The desk-scale benchmark (criterion 7) runs three
environments at R=20 reruns, n=50k and is shared through a session fixture.
"""

import sys
import time

import numpy as np
import pytest

from softirl.envs import build_env, expert_policy, sample_transitions
from softirl.harness import builtin_experiment, run_experiment
from softirl.solver import (
    NormalizationMeasure,
    SolverConfig,
    classify_then_regress,
    exact_population_solver,
    split_classify_regress,
)

from conftest import CRITERION_LINES, random_mdp, random_policy
from reference import (
    conditional_loglik,
    maxent_loglik_and_grad,
    plugin_fixed_point,
    policy_value,
    population_fixed_point,
    shape,
    soft_bellman_residual,
    sup_norm,
)


def _report(criterion: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}"
    print(line, file=sys.__stdout__, flush=True)
    CRITERION_LINES.append(line)


def _fifty_mdps():
    """The shared pool: 50 random MDPs cycling through the measure kinds."""
    rng = np.random.default_rng(2024)
    pool = []
    kinds = ("uniform", "point-mass", "behavior-policy")
    for i in range(50):
        ns = int(rng.integers(3, 11))
        na = int(rng.integers(2, 6))
        gamma = float(rng.uniform(0.3, 0.97))
        mdp = random_mdp(rng, ns, na, gamma)
        pi = random_policy(rng, ns, na)
        mu = NormalizationMeasure(kinds[i % 3])
        pool.append((mdp, pi, mu))
    return pool


def test_criterion_1_exact_solver_correctness():
    t0 = time.time()
    worst_bellman = worst_norm = 0.0
    for mdp, pi, mu in _fifty_mdps():
        sol = exact_population_solver(mdp, pi, mu)
        worst_bellman = max(worst_bellman,
                            sup_norm(soft_bellman_residual(mdp, sol.r, sol.v)))
        worst_norm = max(worst_norm,
                         float(np.max(np.abs(np.sum(sol.mu_table * sol.r, axis=1)))))
    elapsed = time.time() - t0
    ok = worst_bellman <= 1e-9 and worst_norm <= 1e-10 and elapsed < 5.0
    _report("1", ok, f"bellman {worst_bellman:.2e}, normalization {worst_norm:.2e}, "
                     f"{elapsed:.1f}s over 50 MDPs")
    assert worst_bellman <= 1e-9
    assert worst_norm <= 1e-10
    assert elapsed < 5.0


def test_criterion_2_exact_oracle_equivalence():
    # With exact oracles the K-step iterate's remaining v-error is a nearly
    # constant gamma^K-sized offset that the reward assembly cancels, so the
    # recovered rewards are compared.
    t0 = time.time()
    worst = 0.0
    for mdp, pi, mu in _fifty_mdps():
        exact = exact_population_solver(mdp, pi, mu)
        cfg = SolverConfig(gamma=mdp.gamma, K=200, mu=mu)
        sol = population_fixed_point(mdp, pi, cfg)
        worst = max(worst, sup_norm(sol.r - exact.r))
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed < 30.0
    _report("2", ok, f"max reward gap {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed < 30.0


def test_criterion_3_contraction_rate():
    rng = np.random.default_rng(7)
    worst_excess = 0.0
    for _ in range(10):
        mdp = random_mdp(rng, int(rng.integers(3, 8)), int(rng.integers(2, 5)),
                         float(rng.uniform(0.3, 0.97)))
        pi = random_policy(rng, mdp.n_states, mdp.n_actions)
        exact = exact_population_solver(mdp, pi, NormalizationMeasure("uniform"))
        cfg = SolverConfig(gamma=mdp.gamma, K=50)
        sol = population_fixed_point(mdp, pi, cfg, record_iterates=True)
        v_star_norm = sup_norm(exact.v)
        for k, v_k in enumerate(sol.diagnostics.iterates):
            excess = sup_norm(v_k - exact.v) - (mdp.gamma ** k * v_star_norm + 1e-12)
            worst_excess = max(worst_excess, excess)
    ok = worst_excess <= 0.0
    _report("3", ok, f"max excess over gamma^k bound {worst_excess:.2e}")
    assert worst_excess <= 0.0


@pytest.mark.parametrize("name", ["easy", "ident", "hard"])
def test_criterion_3_data_level_contraction(name):
    # On a sample the loop contracts toward its own K = infinity limit: the
    # tabular map M is sub-stochastic (a cell without records is a zero row),
    # so |v_k - v_plug| <= gamma^k |v_plug| at every k. n = 2k leaves cells
    # unvisited, so the zero rows are exercised too.
    experiment = builtin_experiment(name)
    mdp, r_true, _ = build_env(experiment.env)
    pi, gamma = expert_policy(mdp, r_true), experiment.solver.gamma
    worst_excess = worst_ratio = 0.0
    for n, seed in ((50_000, 1), (2_000, 1), (2_000, 2)):
        data = sample_transitions(mdp, pi, n, seed=seed, env_id=name)
        sol = classify_then_regress(data, experiment.solver, record_iterates=True)
        plug, _ = plugin_fixed_point(data, experiment.solver)
        unvisited = any("unvisited per regression" in w for w in sol.diagnostics.warnings)
        assert unvisited == (n == 2_000)
        v_plug_norm = sup_norm(plug.v)
        for k, v_k in enumerate(sol.diagnostics.iterates):
            gap, bound = sup_norm(v_k - plug.v), gamma ** k * v_plug_norm
            worst_excess = max(worst_excess, gap - (bound + 1e-9))
            worst_ratio = max(worst_ratio, gap / bound if k else 0.0)
    ok = worst_excess <= 0.0
    _report(f"3 ({name}, data)", ok, f"max excess over gamma^k bound {worst_excess:.2e}, "
                                     f"largest ratio over k >= 1 {worst_ratio:.4f}")
    assert worst_excess <= 0.0


def test_criterion_4_shaping_and_identification():
    rng = np.random.default_rng(11)
    worst_feas = worst_ll = worst_vd = 0.0
    for _ in range(20):
        mdp = random_mdp(rng, int(rng.integers(3, 8)), int(rng.integers(2, 5)),
                         float(rng.uniform(0.3, 0.95)))
        ns, na = mdp.n_states, mdp.n_actions
        pi = random_policy(rng, ns, na)
        r, v = np.log(pi), np.zeros((ns, na))
        c = rng.normal(size=ns)
        r2, v2 = shape(r, v, c, mdp)
        worst_feas = max(worst_feas, sup_norm(soft_bellman_residual(mdp, r2, v2)))
        w = rng.dirichlet(np.ones(ns))[:, None] * pi
        worst_ll = max(worst_ll, abs(conditional_loglik(w, r, v, mdp.gamma)
                                     - conditional_loglik(w, r2, v2, mdp.gamma)))
        pi1 = random_policy(rng, ns, na)
        pi2 = random_policy(rng, ns, na)
        d1 = policy_value(mdp, r, pi1) - policy_value(mdp, r, pi2)
        d2 = policy_value(mdp, r2, pi1) - policy_value(mdp, r2, pi2)
        worst_vd = max(worst_vd, sup_norm(d1 - d2))
    ok = worst_feas <= 1e-10 and worst_ll <= 1e-10 and worst_vd <= 1e-8
    _report("4", ok, f"feasibility {worst_feas:.2e}, likelihood {worst_ll:.2e}, "
                     f"value-diff {worst_vd:.2e}")
    assert worst_feas <= 1e-10
    assert worst_ll <= 1e-10
    assert worst_vd <= 1e-8


def test_criterion_5_trivial_solution_optimality():
    rng = np.random.default_rng(13)
    mdp = random_mdp(rng, 6, 4, 0.9)
    pi = random_policy(rng, 6, 4)
    u = np.log(pi)
    zero = np.zeros((6, 4))
    residual = sup_norm(soft_bellman_residual(mdp, u, zero))
    w = rng.dirichlet(np.ones(6))[:, None] * pi
    ll_trivial = conditional_loglik(w, u, zero, mdp.gamma)
    n_beaten = 0
    for _ in range(100):
        r_p = u + 0.3 * rng.normal(size=(6, 4))
        v_p = 0.3 * rng.normal(size=(6, 4))
        if ll_trivial > conditional_loglik(w, r_p, v_p, mdp.gamma):
            n_beaten += 1
    ok = residual <= 1e-12 and n_beaten == 100
    _report("5", ok, f"residual {residual:.2e}, beat {n_beaten}/100 perturbations")
    assert residual <= 1e-12
    assert n_beaten == 100


def test_criterion_6_maxent_gradient_check():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(5):
        mdp = random_mdp(rng, int(rng.integers(3, 6)), int(rng.integers(2, 5)),
                         float(rng.uniform(0.5, 0.95)))
        ns, na = mdp.n_states, mdp.n_actions
        d = int(rng.integers(3, 7))
        phi = rng.normal(size=(ns, na, d))
        theta = rng.normal(size=d)
        weights = random_policy(rng, ns, na) * rng.dirichlet(np.ones(ns))[:, None]
        _, grad = maxent_loglik_and_grad(mdp, phi, theta, weights)
        h = 1e-5
        for j in range(d):
            e = np.zeros(d)
            e[j] = h
            lp, _ = maxent_loglik_and_grad(mdp, phi, theta + e, weights)
            lm, _ = maxent_loglik_and_grad(mdp, phi, theta - e, weights)
            fd = (lp - lm) / (2 * h)
            worst = max(worst, abs(grad[j] - fd) / max(1.0, abs(fd)))
    ok = worst <= 1e-4
    _report("6", ok, f"max relative gradient mismatch {worst:.2e}")
    assert worst <= 1e-4


# --- criterion 7: desk-scale benchmark reproduction ------------------------

N_RERUNS = 20


@pytest.fixture(scope="session")
def desk_scale():
    """Run the three packaged benchmarks once at R=20 reruns, n=50k."""
    results = {}
    t0 = time.time()
    for name in ("easy", "ident", "hard"):
        cfg = builtin_experiment(name, reruns=N_RERUNS, base_seed=100)
        assert cfg.n == 50_000
        rows, summary = run_experiment(cfg, quiet=True)
        results[name] = (rows, summary)
    results["elapsed"] = time.time() - t0
    return results


def _mean(summary, method, metric):
    return summary[(method, metric)][0]


def test_criterion_7_easy_row(desk_scale):
    _, summary = desk_scale["easy"]
    ours_corr = _mean(summary, "Ours", "corr_qdiff")
    maxent_corr = _mean(summary, "MaxEnt", "corr_qdiff")
    ours_kl = _mean(summary, "Ours", "kl")
    ok = ours_corr >= 0.98 and maxent_corr >= 0.98 and ours_kl <= 0.01
    _report("7/easy", ok, f"Ours corr {ours_corr:.4f}, MaxEnt corr {maxent_corr:.4f}, "
                          f"Ours KL {ours_kl:.5f}")
    assert ours_corr >= 0.98
    assert maxent_corr >= 0.98
    assert ours_kl <= 0.01


def test_criterion_7_ident_rmse_band(desk_scale):
    """Stated band: Ours RMSE <= 0.05 at n=50k.

    A per-state multinomial log-odds estimate at 50k records over 64 states
    has an information floor above this band, and Ours sits on it:
    `test_criterion_7_ours_rmse_sits_on_the_delta_method_floor` computes it
    (about 0.18 on ident; see the sample-size sweep script for the
    dependence on n). So this band is expected to fail at the pinned n; it is
    asserted as stated rather than weakened.
    """
    _, summary = desk_scale["ident"]
    ours_rmse = _mean(summary, "Ours", "rmse_qdiff")
    ok = ours_rmse <= 0.05
    _report("7/ident-rmse", ok, f"Ours RMSE {ours_rmse:.4f} (band 0.05)")
    assert ours_rmse <= 0.05


def test_criterion_7_ident_corr_band(desk_scale):
    """Stated band: Ours Corr >= 0.99 at n=50k; the information floor of the
    RMSE band applies (`test_criterion_7_ours_rmse_sits_on_the_delta_method_floor`)."""
    _, summary = desk_scale["ident"]
    ours_corr = _mean(summary, "Ours", "corr_qdiff")
    ok = ours_corr >= 0.99
    _report("7/ident-corr", ok, f"Ours corr {ours_corr:.4f} (band 0.99)")
    assert ours_corr >= 0.99


def test_criterion_7_ident_beats_maxent(desk_scale):
    rows, _ = desk_scale["ident"]
    wins = 0
    for rerun in range(N_RERUNS):
        vals = {method: value for (i, method, metric, value) in rows
                if i == rerun and metric == "rmse_qdiff"}
        wins += vals["Ours"] < vals["MaxEnt"]
    ok = wins >= 0.9 * N_RERUNS
    _report("7/ident-vs-maxent", ok, f"Ours RMSE wins {wins}/{N_RERUNS} reruns")
    assert wins >= 0.9 * N_RERUNS


def test_criterion_7_hard_row(desk_scale):
    _, summary = desk_scale["hard"]
    ours_corr = _mean(summary, "Ours", "corr_qdiff")
    maxent_corr = _mean(summary, "MaxEnt", "corr_qdiff")
    ours_kl = _mean(summary, "Ours", "kl")
    ok = ours_corr >= 0.90 and maxent_corr <= 0.75 and ours_kl <= 0.01
    _report("7/hard", ok, f"Ours corr {ours_corr:.4f}, MaxEnt corr {maxent_corr:.4f}, "
                          f"Ours KL {ours_kl:.5f}")
    assert ours_corr >= 0.90
    assert maxent_corr <= 0.75
    assert ours_kl <= 0.01


@pytest.mark.parametrize("name", ["easy", "ident", "hard"])
def test_criterion_7_ours_rmse_sits_on_the_delta_method_floor(desk_scale, name):
    """ROADMAP item 2: a per-state log-odds estimate from N_s visits has
    delta-method variance (1/pi_a + 1/pi_ref) / N_s, so the table RMSE has
    the floor sqrt(mean of that over states and non-reference actions), with
    pi the expert policy and N_s counted in each rerun's sample. Ours' mean
    RMSE must lie within 3 SE of the floors' mean."""
    cfg = builtin_experiment(name, reruns=N_RERUNS, base_seed=100)
    mdp, r_true, _ = build_env(cfg.env)
    pi = expert_policy(mdp, r_true)
    odds_var = 1 / np.delete(pi, cfg.ref_action, axis=1) + 1 / pi[:, [cfg.ref_action]]
    floors = []
    for rerun in range(N_RERUNS):
        data = sample_transitions(mdp, pi, cfg.n, regime=cfg.regime,
                                  seed=cfg.base_seed + rerun, env_id=name)
        visits = np.bincount(data.states, minlength=mdp.n_states)
        floors.append(np.sqrt(np.mean(odds_var / visits[:, None])))
    _, summary = desk_scale[name]
    ours_rmse, se, _ = summary[("Ours", "rmse_qdiff")]
    gap = (ours_rmse - np.mean(floors)) / se
    ok = abs(gap) <= 3.0
    _report(f"7/{name}-floor", ok, f"Ours RMSE {ours_rmse:.4f} +- {se:.4f}, "
                                   f"floor {np.mean(floors):.4f} ({gap:+.2f} SE)")
    assert abs(gap) <= 3.0


def test_criterion_7_runtime(desk_scale):
    elapsed = desk_scale["elapsed"]
    ok = elapsed < 900.0
    _report("7/runtime", ok, f"three benchmarks took {elapsed:.0f}s")
    assert elapsed < 900.0


def test_criterion_8_split_variant_sanity():
    # identical oracles and K for both variants; distances are measured on
    # the value iterate against the exact population solution
    cfg_env = builtin_experiment("ident").env
    mdp, r_true, _ = build_env(cfg_env)
    pi = expert_policy(mdp, r_true)
    dataset = sample_transitions(mdp, pi, 200_000, seed=5, env_id="ident")
    exact = exact_population_solver(mdp, pi, NormalizationMeasure("uniform"))
    cfg = SolverConfig(gamma=cfg_env.gamma, K=3)
    sol_full = classify_then_regress(dataset, cfg)
    sol_split = split_classify_regress(dataset, cfg)
    dist_full = sup_norm(sol_full.v - exact.v)
    dist_split = sup_norm(sol_split.v - exact.v)
    ok = dist_split <= 3.0 * dist_full
    _report("8", ok, f"split {dist_split:.3f} vs full {dist_full:.3f} "
                     f"(ratio {dist_split / dist_full:.2f})")
    assert dist_split <= 3.0 * dist_full


def test_criterion_9_reproduce_determinism(tmp_path):
    from softirl.cli import main

    out1, out2 = str(tmp_path / "run1"), str(tmp_path / "run2")
    assert main(["reproduce", "ident", "--reruns", "3", "--seed", "7",
                 "--out", out1, "--quiet"]) == 0
    assert main(["reproduce", "ident", "--reruns", "3", "--seed", "7",
                 "--out", out2, "--quiet"]) == 0
    raw1 = (tmp_path / "run1" / "raw.csv").read_bytes()
    raw2 = (tmp_path / "run2" / "raw.csv").read_bytes()
    ok = raw1 == raw2
    _report("9", ok, f"raw.csv byte-identical across runs ({len(raw1)} bytes)")
    assert raw1 == raw2
    # markdown table has two method rows and five metric columns
    table = (tmp_path / "run1" / "table.md").read_text().strip().splitlines()
    assert len(table) == 4
    assert table[0].count("|") == 8
