"""Pilot/power allocation under fast fading: fixed-tau solver, ES, AO."""

import math

import numpy as np
import pytest

from covertjam.fast_varying import (
    FvSolveResult,
    ao_solve,
    chi_given_tau,
    ergodic_sum_rate,
    es_solve,
    tau_given_chi,
    zeta_vector,
)
from covertjam.scenario import FastVaryingParams, ScenarioConfig, \
    derive_fast_varying, sample_scenario


def _unit_params():
    # Hand-sized instance where every constant is 1: at tau = 1/2 and
    # chi = 1 the average SNR is (0.5)/(1.5 + 1.5) = 1/6.
    return FastVaryingParams(N=2, L=1, G_const=1.0, E_const=1.0,
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


def test_budget_scales_quadratically_with_epsilon():
    inst = sample_scenario(ScenarioConfig(K=2), 0)
    full = derive_fast_varying(inst, 50, 1, 0.01)
    half = derive_fast_varying(inst, 50, 1, 0.005)
    assert abs(half.budget / full.budget - 0.25) < 1e-14


def test_es_exhaustive_over_pilot_grid():
    params = _scenario_params(seed=5, k=1, n=10)
    res = es_solve(params)
    assert res.method == "es"
    assert len(res.trace) == params.N - 1
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
    assert res.trace == [{"tau": r[1], "objective": r[4], "lam": r[3]}
                         for r in rows]


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


def test_zeta_vector_cache():
    from covertjam.covertness import _zeta_cached, zeta
    params = _scenario_params(seed=3, k=2, n=20)
    a = zeta_vector(params, 15)
    hits = _zeta_cached.cache_info().hits
    b = zeta_vector(params, 15)
    assert np.array_equal(a, b)
    # One cached zeta per distinct jamming spread.
    assert _zeta_cached.cache_info().hits - hits == \
        len(set(map(float, params.q_norm)))
    # ln Phi has one evaluator, so zeta's leftover keyword selects nothing.
    with pytest.raises(TypeError):
        zeta(float(params.q_norm[0]), 15, rule=128)


def test_result_validation():
    with pytest.raises(ValueError):
        FvSolveResult(chi=np.array([0.1]), tau=0.0, N_t=1, objective=1.0,
                      lam=1.0, method="es", trace=[], budget=1.0,
                      budget_used=0.5)
    with pytest.raises(ValueError):
        FvSolveResult(chi=np.array([0.1]), tau=0.25, N_t=1, objective=1.0,
                      lam=1.0, method="es", trace=[], budget=1.0,
                      budget_used=2.0)
