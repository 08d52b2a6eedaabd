"""Acceptance battery: ten end-to-end criteria, one PASS/FAIL line each.

Each test prints its verdict line even under capture so a full run yields
a ten-line scoreboard, then asserts so pytest bookkeeping matches it.
"""

import csv
import math
import time

import numpy as np
import pytest

from covertjam.covertness import (
    band_affinity,
    eta,
    hellinger_bound,
    kl_divergence,
    limit_kl,
    pinsker_budget,
    solve_chi_star,
    tv_limit,
    tv_upper_bound,
    zeta,
)
from covertjam.detection import simulate_detection
from covertjam.experiments import default_spec, run_experiment
from covertjam.fast_varying import (
    ao_solve,
    chi_given_tau,
    ergodic_sum_rate,
    es_solve,
    tau_given_chi,
    zeta_vector,
)
from covertjam.quasi_static import (
    QuasiStaticParams,
    closed_form_solve,
    effective_rate,
    poa_solve,
    sca_solve,
    single_receiver_gamma,
)
from covertjam.scenario import (
    ScenarioConfig,
    derive_fast_varying,
    derive_quasi_static,
    sample_scenario,
)

from model_facts import tv_numeric_k1, tv_numeric_product


@pytest.fixture
def report(capsys):
    def emit(num, ok, detail):
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}",
                  flush=True)
    return emit


def test_criterion_01_tv_closed_form(report):
    start = time.perf_counter()
    worst = 0.0
    for chi in np.arange(0.1, 0.95, 0.1):
        tv = tv_numeric_k1(float(chi))
        worst = max(worst, abs(tv - float(eta(chi))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 1.0
    report(1, ok, f"max |tv_numeric - chi^(1/(1-chi))| = {worst:.2e} "
                  f"over 9 chi values in {elapsed:.2f} s")
    assert ok


def test_criterion_02_bound_soundness(report):
    grid = (0.1, 0.3, 0.5, 0.7, 0.9)
    kls = {c: limit_kl(c) for c in grid}
    start = time.perf_counter()
    sound = True
    tighter = True
    worst_slack = np.inf
    for i, c1 in enumerate(grid):
        for j, c2 in enumerate(grid):
            tv, ci = tv_numeric_product([c1, c2], samples=10**6,
                                        seed=17 + 5 * i + j)
            bound = float(eta(c1) + eta(c2))
            worst_slack = min(worst_slack, bound + 3.0 * ci - tv)
            sound = sound and tv <= bound + 3.0 * ci
            if c1 <= 0.5 and c2 <= 0.5:
                pin = pinsker_budget([kls[c1], kls[c2]], 1)
                tighter = tighter and bound < pin
    elapsed = time.perf_counter() - start
    ok = sound and tighter and elapsed < 120.0
    report(2, ok, f"25-point MC TV vs sum-eta slack >= {worst_slack:.4f}, "
                  f"tighter than Pinsker on the chi<=0.5 subgrid, "
                  f"{elapsed:.0f} s at 1e6 samples/point")
    assert ok


def test_criterion_02_exact_tv_within_the_bounds():
    # The deterministic companion of criterion 2, on its 25 pairs with no
    # CI slack: a marginal's TV cannot exceed the joint's, so
    # max(eta1, eta2) <= TV <= eta1 + eta2, and TV lies under the Pinsker
    # and Hellinger bounds. The smallest margins are about 0.017, 0.024,
    # 0.12 and 0.081.
    grid = (0.1, 0.3, 0.5, 0.7, 0.9)
    for c1 in grid:
        for c2 in grid:
            tv = tv_limit([c1, c2])
            e1, e2 = eta(c1), eta(c2)
            pinsker = pinsker_budget([limit_kl(c1), limit_kl(c2)], 1)
            hellinger = hellinger_bound(band_affinity(c1) * band_affinity(c2))
            assert max(e1, e2) <= tv <= e1 + e2, (c1, c2, tv)
            assert tv <= pinsker and tv <= hellinger, (c1, c2, tv)


def test_criterion_03_detection_oracle(report):
    inst = sample_scenario(ScenarioConfig(K=1), 0)
    start = time.perf_counter()
    est = simulate_detection(inst, [0.9], 500, 1, trials=10**5, seed=1,
                             detector_kind="lrt")
    elapsed = time.perf_counter() - start
    target = 1.0 - 0.348678
    gap = abs(est.sum_error - target)
    ok = gap <= 3.0 * est.ci_half_width and elapsed < 60.0
    report(3, ok, f"min sum error {est.sum_error:.4f} vs limit {target:.4f} "
                  f"(|gap| {gap:.4f} <= 3 CI {3 * est.ci_half_width:.4f}), "
                  f"{elapsed:.0f} s for 1e5 trials")
    assert ok


def test_criterion_04_lrt_optimality(report):
    inst = sample_scenario(ScenarioConfig(K=2), 4)
    lrt = simulate_detection(inst, [0.2, 0.6], 20, 1, trials=10**5, seed=2,
                             detector_kind="lrt")
    energy = simulate_detection(inst, [0.2, 0.6], 20, 1, trials=10**5,
                                seed=2, detector_kind="energy")
    margin = 2.0 * (lrt.ci_half_width + energy.ci_half_width)
    ok = lrt.sum_error <= energy.sum_error + margin
    report(4, ok, f"LRT sum error {lrt.sum_error:.4f} <= energy detector "
                  f"{energy.sum_error:.4f} + 2 CI ({margin:.4f}) "
                  f"on K=2, chi=(0.2, 0.6)")
    assert ok


def _projected_gradient_powers(g, e, f, zetas, budget, iters=4000):
    """Independent first-order solve of the fixed-tau power problem.

    Whitening u_k = sqrt(zeta_k / 2) chi_k turns the quadratic budget into
    a Euclidean ball, where clip-then-rescale is the exact projection onto
    the ball intersected with the nonnegative orthant.
    """
    c = np.sqrt(2.0 / zetas)
    radius = math.sqrt(budget)

    def project(u):
        u = np.maximum(u, 0.0)
        nrm = math.sqrt(float(np.dot(u, u)))
        return u * (radius / nrm) if nrm > radius else u

    def value(u):
        x = c * u
        return float(np.sum(np.log1p(g * x / (e * x + f))))

    u = project(np.full(len(g), radius / math.sqrt(len(g))))
    best = value(u)
    step = 1.0
    for _ in range(iters):
        x = c * u
        grad = c * g * f / (((g + e) * x + f) * (e * x + f))
        improved = False
        while step >= 1e-18:
            cand = project(u + step * grad)
            cval = value(cand)
            if cval > best:
                u, best = cand, cval
                improved = True
                break
            step *= 0.5
        if not improved:
            break
        step *= 4.0
    return best


def test_criterion_05_stationary_oracles(report):
    # a) closed-form SINR threshold against a dense gamma grid
    start = time.perf_counter()
    qp = derive_quasi_static(sample_scenario(ScenarioConfig(K=1), 2),
                             0.005)
    a1, b1 = float(qp.A[0]), float(qp.B[0])
    cap = solve_chi_star(0.005)
    g_star = single_receiver_gamma(a1, b1, cap)
    g_max = a1 * cap / math.log(b1)
    grid = np.geomspace(g_max * 1e-5, g_max * (1.0 - 1e-9), 1000)
    rate_star = float(effective_rate(cap, g_star, a1, b1))
    rate_grid = float(np.max(effective_rate(cap, grid, a1, b1)))
    t_a = time.perf_counter() - start
    ok_a = rate_star >= rate_grid and t_a < 5.0

    # b) dual-bisection powers against a projected-gradient solve
    start = time.perf_counter()
    fp = derive_fast_varying(sample_scenario(ScenarioConfig(K=4), 11),
                             100, 1, 0.005)
    tau = 0.3
    zetas = zeta_vector(fp, 70.0)
    budget = 2.0 * fp.epsilon ** 2 / fp.L
    chis, _ = chi_given_tau(tau, fp, zetas, budget)
    obj = ergodic_sum_rate(chis, tau, fp)
    g_t = tau * fp.Gk
    e_t = tau * fp.Ek + fp.mu_tilde
    f_t = tau * fp.F1 + fp.F2
    pg = (1.0 - tau) * _projected_gradient_powers(g_t, e_t, f_t, zetas,
                                                  budget)
    gap_b = abs(obj - pg)
    t_b = time.perf_counter() - start
    ok_b = gap_b <= 1e-6 * max(1.0, abs(obj)) and t_b < 5.0

    # c) pilot-fraction root against a dense tau grid
    start = time.perf_counter()
    tau_star = tau_given_chi(chis, fp)
    rate_tau = ergodic_sum_rate(chis, tau_star, fp)
    t_grid = np.linspace(1e-3, 1.0 - 1e-3, 1000)
    rate_t_grid = max(ergodic_sum_rate(chis, t, fp) for t in t_grid)
    t_c = time.perf_counter() - start
    ok_c = rate_tau >= rate_t_grid and t_c < 5.0

    ok = ok_a and ok_b and ok_c
    report(5, ok, f"gamma* >= 1e3-pt grid by {rate_star - rate_grid:.2e}, "
                  f"power solve vs projected gradient gap {gap_b:.2e}, "
                  f"tau* >= 1e3-pt grid by {rate_tau - rate_t_grid:.2e} "
                  f"({t_a:.1f}/{t_b:.1f}/{t_c:.1f} s)")
    assert ok


def test_criterion_06_global_local_gap(report):
    rng = np.random.default_rng(7)
    worst_ratio = np.inf
    worst_grid_gap = np.inf
    certified = 0
    for i in range(20):
        k = 2 if i < 10 else 3
        a = 10.0 ** rng.uniform(0.5, 3.5, k)
        b = 1.0 + 10.0 ** rng.uniform(-3.0, 0.3, k)
        epsilon = 10.0 ** rng.uniform(-2.7, -2.0)
        params = QuasiStaticParams(A=a, B=b, epsilon=epsilon)
        local = sca_solve(params)
        delta = 1e-4 if k == 2 else 1e-3
        best = poa_solve(params, delta=delta, warm_start=local.chi)
        certified += best.converged
        if best.objective > 0.0:
            worst_ratio = min(worst_ratio, local.objective / best.objective)
        if k == 2:
            # Ray t gives the bands the shares (t, 1 - t) of epsilon; a
            # zero share carries zero rate. One call per kernel covers all
            # 401 x 2 shares, with the arithmetic of the per-ray loop.
            t = np.linspace(0.0, 1.0, 401)
            e = np.stack([t, 1.0 - t]) * epsilon
            a_k, b_k = np.broadcast_arrays(a[:, None], b[:, None], e)[:2]
            live = e > 0.0
            chi = solve_chi_star(e[live])
            gam = single_receiver_gamma(a_k[live], b_k[live], chi)
            rate = np.zeros(e.shape)
            rate[live] = effective_rate(chi, gam, a_k[live], b_k[live])
            grid_best = float(np.max((0.0 + rate[0]) + rate[1]))
            worst_grid_gap = min(worst_grid_gap,
                                 best.objective - (grid_best - delta))
    ok = worst_ratio >= 0.95 and worst_grid_gap >= -1e-9 and certified == 20
    report(6, ok, f"SCA/POA ratio >= {worst_ratio:.4f} over 20 scenarios; "
                  f"{certified}/20 POA optima certified; "
                  f"POA vs 401-ray boundary grid slack >= "
                  f"{worst_grid_gap:.2e} on K=2")
    assert ok


def test_criterion_07_es_ao_gap(report):
    worst_ratio = np.inf
    converged_fast = 0
    for seed in range(100, 120):
        fp = derive_fast_varying(
            sample_scenario(ScenarioConfig(K=4), seed), 100, 1, 0.005)
        exhaustive = es_solve(fp)
        alt = ao_solve(fp)
        worst_ratio = min(worst_ratio, alt.objective / exhaustive.objective)
        objs = [row["objective"] for row in alt.trace[:-1]]
        for i in range(1, len(objs)):
            if abs(objs[i] - objs[i - 1]) <= 1e-4 * abs(objs[i - 1]):
                if i <= 10:
                    converged_fast += 1
                break
    ok = worst_ratio >= 0.99 and converged_fast >= 18
    report(7, ok, f"AO/ES ratio >= {worst_ratio:.4f} over 20 K=4 scenarios; "
                  f"{converged_fast}/20 converged (rel change < 1e-4) "
                  f"within 10 outer iterations")
    assert ok


def test_criterion_08_quadratic_kl_limit(report):
    # Fixed small signal power p = 1e-3; the quadratic coefficient is
    # already normalized by q^2, so the window checks the n-uniform
    # remainder rather than a fixed power-to-jamming ratio.
    p = 1e-3
    ratios = []
    for q, n in ((1.0, 10.0), (5.0, 50.0), (10.0, 90.0)):
        d = kl_divergence(p, q, n)
        ratios.append(d / (zeta(q, n) * p * p / (2.0 * q * q)))
    ok = all(0.99 <= r <= 1.0 for r in ratios)
    report(8, ok, "KL / quadratic-term ratios "
                  + ", ".join(f"{r:.5f}" for r in ratios)
                  + " all in [0.99, 1.0] at p = 1e-3")
    assert ok


def _summary_means(run_dir, method):
    with open(run_dir / "summary.csv", newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["method"] == method]
    pairs = sorted((float(r["sweep_value"]), float(r["mean_objective"]))
                   for r in rows)
    return [m for _, m in pairs]


def test_criterion_09_figure_trends(report, tmp_path):
    start = time.perf_counter()
    runs = {}
    for fig in ("fig4_rate_vs_Q", "fig5_rate_vs_M", "fig8_rate_vs_Q_fast",
                "fig9_rate_vs_eps"):
        spec = default_spec(fig, seed=0, output_dir=str(tmp_path / fig))
        runs[fig] = run_experiment(spec)
    q_means = _summary_means(runs["fig4_rate_vs_Q"], "poa")
    m_means = _summary_means(runs["fig5_rate_vs_M"], "sca")
    qf_means = _summary_means(runs["fig8_rate_vs_Q_fast"], "ao")
    eps_means = _summary_means(runs["fig9_rate_vs_eps"], "ao")
    elapsed = time.perf_counter() - start

    ok_q = all(b >= a - 1e-12 for a, b in zip(q_means, q_means[1:]))
    ok_m = all(b >= a - 1e-12 for a, b in zip(m_means, m_means[1:]))
    # decreasing in 1 - epsilon means increasing in epsilon
    ok_eps = all(b > a for a, b in zip(eps_means, eps_means[1:]))
    diffs = np.diff(qf_means)
    ok_qf = len(diffs) == 2 and diffs[0] * diffs[1] < 0.0
    ok = ok_q and ok_m and ok_eps and ok_qf and elapsed < 1800.0
    report(9, ok, f"rate vs Q {'non-decreasing' if ok_q else 'BROKEN'}, "
                  f"vs M {'non-decreasing' if ok_m else 'BROKEN'}, "
                  f"vs eps {'increasing' if ok_eps else 'BROKEN'}, "
                  f"fast rate vs Q non-monotone={bool(ok_qf)} "
                  f"({elapsed:.0f} s, 20 scenarios/point)")
    assert ok


def test_criterion_10_property_suites(report, tmp_path):
    xs = np.linspace(1e-6, 1.0 - 1e-6, 4001)
    ys = eta(xs)
    ok_eta = bool(np.all(ys <= xs) and np.all(ys >= 0.0)
                  and np.all(ys[:-2] - 2.0 * ys[1:-1] + ys[2:] <= 1e-12))

    qp = derive_quasi_static(sample_scenario(ScenarioConfig(K=2), 3),
                             0.005)
    res_poa = poa_solve(qp, delta=1e-3)
    res_cf = closed_form_solve(
        derive_quasi_static(sample_scenario(ScenarioConfig(K=1), 2),
                            0.005))
    res_ao = ao_solve(derive_fast_varying(
        sample_scenario(ScenarioConfig(K=4), 5), 100, 100, 0.05))
    residuals = (
        abs(0.005 - tv_upper_bound(res_poa.chi)) / 0.005,
        abs(0.005 - tv_upper_bound(res_cf.chi)) / 0.005,
        abs(res_ao.budget_used - res_ao.budget) / res_ao.budget,
    )
    ok_resid = max(residuals) <= 1e-10

    kwargs = dict(sweep=(25.0,), scenarios_per_point=2, seed=6)
    first = run_experiment(default_spec(
        "fig4_rate_vs_Q", output_dir=str(tmp_path / "a"), **kwargs))
    second = run_experiment(default_spec(
        "fig4_rate_vs_Q", output_dir=str(tmp_path / "b"), **kwargs))
    ok_bytes = all(
        (first / name).read_bytes() == (second / name).read_bytes()
        for name in ("points.csv", "summary.csv"))

    worst_split = 0.0
    for m in (1, 2, 5, 20, 40, 400):
        fp = derive_fast_varying(
            sample_scenario(ScenarioConfig(K=1, M=m), 1), 20, 10, 0.05)
        worst_split = max(worst_split,
                          abs(fp.G_const + fp.E_const - m) / m)
    ok_split = worst_split <= 1e-12

    ok = ok_eta and ok_resid and ok_bytes and ok_split
    report(10, ok, f"eta grid checks {'ok' if ok_eta else 'BROKEN'}; "
                   f"activity residuals <= {max(residuals):.1e}; "
                   f"rerun byte-identical={ok_bytes}; "
                   f"gain split |G+E-M|/M <= {worst_split:.1e}")
    assert ok
