"""Pilot/power allocation under fast fading: fixed-tau solver, ES, AO."""

import math

import numpy as np
import pytest

from covertjam import covertness, experiments, fast_varying
from covertjam.fast_varying import (
    _ES_PRUNE_MARGIN,
    FvSolveResult,
    ao_solve,
    chi_given_tau,
    ergodic_sum_rate,
    es_solve,
    tau_given_chi,
    zeta_vector,
)
from covertjam.quadrature import log_phi_exact
from covertjam.scenario import FastVaryingParams, ScenarioConfig, \
    derive_fast_varying, sample_scenario


def _unit_params():
    # Hand-sized instance where every constant is 1: at tau = 1/2 and
    # chi = 1 the average SNR is (0.5)/(1.5 + 1.5) = 1/6.
    return FastVaryingParams(N=2, L=1,
                             Gk=np.array([1.0]), Ek=np.array([1.0]),
                             mu_tilde=np.array([1.0]), F1=np.array([1.0]),
                             F2=np.array([1.0]), q_norm=np.array([1.0]),
                             epsilon=0.05)


def _scenario_params(seed=11, k=4, n=100, blocks=1, eps=0.005):
    inst = sample_scenario(ScenarioConfig(K=k), seed)
    return derive_fast_varying(inst, n, blocks, eps)


def test_unit_rate_value():
    params = _unit_params()
    rate = ergodic_sum_rate(np.array([1.0]), 0.5, params)
    assert abs(rate - 0.5 * math.log(7.0 / 6.0)) < 1e-15


def test_rate_validates_inputs():
    params = _unit_params()
    with pytest.raises(ValueError):
        ergodic_sum_rate(np.array([1.0]), 0.0, params)
    with pytest.raises(ValueError):
        ergodic_sum_rate(np.array([-1.0]), 0.5, params)


def test_chi_given_tau_budget_active():
    params = _scenario_params()
    z = zeta_vector(params, 70)
    chis, lam = chi_given_tau(0.3, params, z, params.budget)
    used = 0.5 * float(np.dot(z, chis * chis))
    assert abs(used - params.budget) <= 1e-10 * params.budget
    assert lam > 0.0
    assert np.all(chis > 0.0)


def test_chi_given_tau_frozen_oracle():
    # Values cross-checked against a long projected-gradient run on the
    # same instance (objective agreement to 1e-12, coordinates to 4e-15).
    params = _scenario_params(seed=11)
    z = zeta_vector(params, 70)
    chis, lam = chi_given_tau(0.3, params, z, params.budget)
    assert abs(lam - 8167.51207256666) < 1e-6
    expected = np.array([1.2467877273020616e-04, 1.2539921329212834e-04,
                         8.1274099895961723e-05, 9.4803658375718709e-05])
    assert np.allclose(chis, expected, rtol=1e-9)
    obj = ergodic_sum_rate(chis, 0.3, params)
    assert abs(obj - 0.6538227634278369) < 1e-12


def test_chi_given_tau_dominates_equal_split():
    # The stationarity solution must beat naive equal budget sharing.
    params = _scenario_params(seed=13)
    z = zeta_vector(params, 70)
    chis, _ = chi_given_tau(0.3, params, z, params.budget)
    equal = np.sqrt(2.0 * params.budget / (params.K * z))
    assert ergodic_sum_rate(chis, 0.3, params) >= \
        ergodic_sum_rate(equal, 0.3, params) - 1e-12


def test_batched_chi_given_tau_equals_scalar_calls():
    # Each row of a batched call follows the scalar arithmetic bit for bit,
    # with a per-row zeta matrix and with one zeta row shared by every tau.
    params = _scenario_params(seed=11)
    taus = np.array([1.0 / params.N, 0.3, 0.5, (params.N - 1.0) / params.N])
    rows = np.array([zeta_vector(params, params.N - round(t * params.N))
                     for t in taus])
    shared = zeta_vector(params, 70)
    for z in (rows, shared):
        chis, lams = chi_given_tau(taus, params, z, params.budget)
        assert chis.shape == (taus.size, params.K)
        assert lams.shape == (taus.size,)
        for tau, z_row, chi_row, lam in zip(taus, np.broadcast_to(
                z, chis.shape), chis, lams):
            chi, lam_scalar = chi_given_tau(float(tau), params, z_row,
                                            params.budget)
            assert isinstance(chi, np.ndarray) and chi.shape == (params.K,)
            assert isinstance(lam_scalar, float)
            assert np.array_equal(chi, chi_row)
            assert np.array_equal(lam_scalar, lam)


def test_batched_chi_given_tau_validates():
    params = _scenario_params(seed=11)
    z = zeta_vector(params, 70)
    taus = np.array([0.2, 0.4, 0.6])
    with pytest.raises(ValueError, match="do not match"):
        chi_given_tau(taus, params, np.tile(z, (2, 1)), params.budget)
    with pytest.raises(ValueError, match="do not match"):
        chi_given_tau(taus, params, z[:-1], params.budget)
    for bad in (np.array([0.2, 1.0]), np.array([0.0, 0.5]),
                np.array([0.5, np.nan])):
        with pytest.raises(ValueError, match="tau must lie"):
            chi_given_tau(bad, params, z, params.budget)
    with pytest.raises(ValueError, match="1-D"):
        chi_given_tau(taus[None, :], params, z, params.budget)
    # Non-finite input once returned wrong answers: a NaN budget gave
    # chi ~ 206, a NaN zeta a NaN chi and an infinite zeta chi = 0.
    for budget in (np.nan, np.inf):
        with pytest.raises(ValueError, match="budget"):
            chi_given_tau(taus, params, z, budget)
    for value in (np.nan, np.inf):
        bad = z.copy()
        bad[1] = value
        with pytest.raises(ValueError, match="zeta values"):
            chi_given_tau(taus, params, bad, params.budget)


def test_batched_failure_names_the_pilot_fraction():
    # A budget that the bracket floor already meets fails only the rows
    # whose coefficients make it so, and the error lists their taus.
    params = _scenario_params(seed=11)
    z = np.tile(zeta_vector(params, 70), (3, 1))
    z[1] *= 1e40
    with pytest.raises(ArithmeticError,
                       match=r"bracket floor \(tau = \[0\.4\]\)"):
        chi_given_tau(np.array([0.2, 0.4, 0.6]), params, z, params.budget)
    # A budget that lambda = 2^61 still overspends on one row only.
    z[1] *= 1e-70
    with pytest.raises(ArithmeticError,
                       match=r"expansion failed \(tau = \[0\.4\]\)"):
        chi_given_tau(np.array([0.2, 0.4, 0.6]), params, z, 1e-30)


def test_band_cubic_residual_failure_names_the_pilot_fraction():
    # A zeta of 1e-300 overflows one row's right-hand side G F / (lam
    # zeta), so its band cubics read NaN after the Halley steps. The
    # residual check fails that row alone and lists its tau, where the
    # NaN would otherwise pass every later check and come back as chi.
    params = _scenario_params(seed=11)
    z = np.tile(zeta_vector(params, 70), (3, 1))
    z[1, 2] = 1e-300
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ArithmeticError,
                          match=r"rounding floor \(tau = \[0\.4\]\)"):
        chi_given_tau(np.array([0.2, 0.4, 0.6]), params, z, params.budget)


def test_chi_given_tau_without_the_cubic_term():
    # E_k = mu_k = 0 leaves the band equation the quadratic
    # chi (G chi + F) F = G F / (lam zeta), with G, F at tau: the cap must
    # not read the missing cubic term as a zero bound on the root.
    params = FastVaryingParams(
        N=10, L=1, Gk=np.array([1.0, 2.0, 5.0]),
        Ek=np.zeros(3), mu_tilde=np.zeros(3), F1=np.array([1.0, 0.5, 2.0]),
        F2=np.array([1.0, 1.0, 0.1]), q_norm=np.ones(3), epsilon=0.05)
    z = np.array([1.0, 2.0, 0.5])
    tau = 0.3
    chis, lam = chi_given_tau(tau, params, z, params.budget)
    used = 0.5 * float(np.dot(z, chis * chis))
    assert abs(used - params.budget) <= 1e-10 * params.budget
    g, f = tau * params.Gk, tau * params.F1 + params.F2
    closed = (np.sqrt(f * f + 4.0 * g * g / (lam * z)) - f) / (2.0 * g)
    assert np.allclose(chis, closed, rtol=1e-13, atol=0.0)


def test_budget_scales_quadratically_with_epsilon():
    inst = sample_scenario(ScenarioConfig(K=2), 0)
    full = derive_fast_varying(inst, 50, 1, 0.01)
    half = derive_fast_varying(inst, 50, 1, 0.005)
    assert abs(half.budget / full.budget - 0.25) < 1e-14


def _trace_bounds(params, trace):
    """Each unsolved pilot count's two rate bounds, from an ES trace.

    N_t -> (monotone, refined). The monotone bound is
    Obj(N_t) <= (N - N_t) Obj(b) / (N - b) for every solved b >= N_t; the
    refined one is N_t's own problem solved with the zeta row of the
    nearest solved b above it, one scalar chi_given_tau call per count.
    """
    n = params.N
    solved = {round(row["tau"] * n): row["objective"] for row in trace}
    bounds = {}
    for n_t in range(1, n):
        if n_t in solved:
            continue
        monotone = (n - n_t) * min(obj / (n - b) for b, obj in solved.items()
                                   if b >= n_t)
        b = min(m for m in solved if m > n_t)
        chis, _ = chi_given_tau(n_t / n, params, zeta_vector(params, n - b),
                                params.budget)
        bounds[n_t] = (monotone, ergodic_sum_rate(chis, n_t / n, params))
    return bounds


def test_es_exhaustive_over_pilot_grid():
    params = _scenario_params(seed=5, k=1, n=10)
    res = es_solve(params)
    assert res.method == "es"
    # Every grid point is solved or certified below the optimum by one of
    # its two bounds.
    bounds = _trace_bounds(params, res.trace)
    assert all(min(b) < res.objective * (1.0 - _ES_PRUNE_MARGIN)
               for b in bounds.values())
    assert res.N_t == 3
    assert abs(res.tau - 0.3) < 1e-15
    assert abs(res.objective - 0.39389563775740133) < 1e-12
    assert res.budget_used <= res.budget + 1e-18


def test_es_equals_one_scalar_solve_per_pilot_count():
    # Reference: the search as one scalar chi_given_tau call per N_t.
    params = _scenario_params(seed=21, k=3, n=12)
    rows = []
    for n_t in range(1, params.N):
        tau = n_t / params.N
        z = zeta_vector(params, params.N - n_t)
        chis, lam = chi_given_tau(tau, params, z, params.budget)
        rows.append((n_t, tau, chis, lam, ergodic_sum_rate(chis, tau, params),
                     0.5 * float(np.dot(z, chis * chis))))
    n_t, tau, chis, lam, obj, used = max(rows, key=lambda r: (r[4], -r[0]))
    res = es_solve(params)
    assert (res.N_t, res.tau, res.objective, res.lam, res.budget_used) == \
        (n_t, tau, obj, lam, used)
    assert res.chi.tobytes() == chis.tobytes()
    # The trace holds the reference rows of the solved counts, in N_t
    # order. Every other count's true objective lies at or below both its
    # bounds, recomputed from the trace alone, and the smaller bound lies
    # below the optimum.
    solved = [round(row["tau"] * params.N) for row in res.trace]
    assert solved == sorted(set(solved)) and len(solved) < params.N - 1
    assert res.trace == [{"tau": r[1], "objective": r[4], "lam": r[3]}
                         for r in rows if r[0] in solved]
    bounds = _trace_bounds(params, res.trace)
    assert sorted(bounds) == [r[0] for r in rows if r[0] not in solved]
    for r in rows:
        if r[0] not in solved:
            monotone, refined = bounds[r[0]]
            assert r[4] <= refined and r[4] <= monotone
            assert min(monotone, refined) < obj * (1.0 - _ES_PRUNE_MARGIN)


def test_es_ties_go_toward_fewer_pilots(monkeypatch):
    # With every objective equal, no bound rules a count out, so every
    # count is solved and the fewest pilots win.
    monkeypatch.setattr(fast_varying, "ergodic_sum_rate",
                        lambda chis, tau, params: 1.0)
    params = _scenario_params(seed=21, k=2, n=12)
    res = es_solve(params)
    assert res.N_t == 1 and len(res.trace) == params.N - 1


def test_tau_given_chi_beats_dense_grid():
    params = _scenario_params(seed=7, k=3, n=50)
    z = zeta_vector(params, 40)
    chis, _ = chi_given_tau(0.5, params, z, params.budget)
    tau = tau_given_chi(chis, params)
    grid = np.linspace(1e-4, 1.0 - 1e-4, 1000)
    grid_best = max(ergodic_sum_rate(chis, float(t), params) for t in grid)
    assert ergodic_sum_rate(chis, tau, params) >= grid_best - 1e-10


def test_tau_given_chi_validates():
    params = _scenario_params(seed=7, k=2, n=50)
    with pytest.raises(ValueError):
        tau_given_chi(np.zeros(params.K), params)
    # A NaN chi once gave tau = 2.9e-11.
    for value in (np.nan, np.inf):
        with pytest.raises(ValueError):
            tau_given_chi(np.array([value, 1e-4]), params)


def test_ao_monotone_trace_and_convergence():
    params = _scenario_params(seed=100)
    res = ao_solve(params)
    assert res.converged
    objs = [row["objective"] for row in res.trace[:-1]]  # pre-rounding
    assert all(b >= a - 1e-10 for a, b in zip(objs, objs[1:]))
    assert res.N_t == round(res.tau * params.N)
    assert 1 <= res.N_t <= params.N - 1


def test_ao_near_exhaustive_quality():
    for seed in (101, 102, 103):
        params = _scenario_params(seed=seed)
        ao = ao_solve(params)
        es = es_solve(params)
        assert ao.objective >= 0.99 * es.objective, seed


def test_ao_rounding_prefers_more_pilots_on_ties():
    # floor(tau N + 1/2) rounds .5 upward, i.e. toward more pilots.
    params = _scenario_params(seed=105, n=10)
    res = ao_solve(params)
    tau_n = res.trace[-2]["tau"] * params.N
    expected = int(min(max(math.floor(tau_n + 0.5), 1), params.N - 1))
    assert res.N_t == expected


def _cold_zeta_cache_counting_log_phi(monkeypatch) -> list:
    """Empty zeta's cache; return the list of sizes of its ln Phi calls."""
    calls = []

    def counted(x, z, n):
        calls.append(np.size(z))
        return log_phi_exact(x, z, n)

    monkeypatch.setattr(covertness, "log_phi_exact", counted)
    monkeypatch.setattr(covertness, "_ZETA_CACHE", {})
    return calls


def test_zeta_vector_cache(monkeypatch):
    calls = _cold_zeta_cache_counting_log_phi(monkeypatch)
    params = _scenario_params(seed=3, k=2, n=20)
    a = zeta_vector(params, 15)
    # A cold vector is one ln Phi call, with one cached zeta per distinct
    # jamming spread.
    assert len(calls) == 1
    assert len(covertness._ZETA_CACHE) == len(set(map(float, params.q_norm)))
    b = zeta_vector(params, 15)
    assert np.array_equal(a, b)
    # A repeated vector evaluates no ln Phi.
    assert len(calls) == 1
    # ln Phi has one evaluator, so zeta's leftover keyword selects nothing.
    with pytest.raises(TypeError):
        covertness.zeta(float(params.q_norm[0]), 15, rule=128)


@pytest.mark.parametrize("q_dbm", [15.0, 25.0, (15.0, 25.0, 15.0, 25.0)])
def test_zeta_grid_equals_single_pairs_on_a_cold_cache(monkeypatch, q_dbm):
    # Q = 15 dBm (fig8's low point, q ~ 31.6) takes the H0 rule route, the
    # stock 25 dBm (q ~ 316) the Gamma rule route, and the mixed bands
    # take both in one call. ES's (N - 1, K) pilot-grid matrix is one
    # ln Phi call, and each value has the bits of a single-pair zeta
    # evaluated on its own cold zeta cache.
    inst = sample_scenario(ScenarioConfig(K=4, Q_dBm=q_dbm), 5)
    params = derive_fast_varying(inst, 100, 1, 0.05)
    n_d = np.arange(99, 0, -1)
    calls = _cold_zeta_cache_counting_log_phi(monkeypatch)
    grid = zeta_vector(params, n_d)
    assert grid.shape == (99, 4) and len(calls) == 1
    single = []
    for n in n_d:
        for q in params.q_norm:
            monkeypatch.setattr(covertness, "_ZETA_CACHE", {})
            single.append(covertness.zeta(q, n))
    assert np.array_equal(grid, np.reshape(single, grid.shape))
    assert len(calls) == 1 + grid.size


@pytest.mark.parametrize("seed", [1, 701, 710])
def test_cold_es_evaluates_few_pilot_counts(monkeypatch, seed):
    # The bench's fast_sweep scenario, stock fig7 at P_R = 5 dBm (K = 4,
    # N = 100): a cold ES evaluates ln Phi at no more than 25 % of the full
    # pilot grid's points, in at most three chi_given_tau calls: round 1,
    # the refined bounds, round 2. The solved counts are those of rounds 1
    # and 2, and the refined bounds solve no count.
    spec = experiments.default_spec("fig7_rate_vs_PR", sweep=(5.0,))
    config, problem = experiments._point(spec, 5.0)
    params = derive_fast_varying(
        sample_scenario(config, experiments._scenario_seed(seed, 0, 0)),
        problem["N"], problem["L"], problem["epsilon"])
    assert (params.K, params.N) == (4, 100)
    calls = _cold_zeta_cache_counting_log_phi(monkeypatch)
    zeta_vector(params, np.arange(params.N - 1, 0, -1))
    full = sum(calls)
    calls = _cold_zeta_cache_counting_log_phi(monkeypatch)
    solves = []

    def counted(*args):
        solves.append(np.atleast_1d(args[0]).tolist())
        return chi_given_tau(*args)

    monkeypatch.setattr(fast_varying, "chi_given_tau", counted)
    res = es_solve(params)
    assert sum(calls) <= 0.25 * full
    assert len(solves) <= 3
    assert sorted(solves[0] + (solves[2] if len(solves) == 3 else [])) == \
        [row["tau"] for row in res.trace]


def test_result_validation():
    with pytest.raises(ValueError):
        FvSolveResult(chi=np.array([0.1]), tau=0.0, N_t=1, objective=1.0,
                      lam=1.0, method="es", trace=[], budget=1.0,
                      budget_used=0.5)
    with pytest.raises(ValueError):
        FvSolveResult(chi=np.array([0.1]), tau=0.25, N_t=1, objective=1.0,
                      lam=1.0, method="es", trace=[], budget=1.0,
                      budget_used=2.0)
