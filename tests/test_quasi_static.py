"""Power/rate allocation under slow fading: closed form, budget split, SCA."""

import numpy as np
import pytest

from covertjam.covertness import eta, solve_chi_star, tv_upper_bound
from covertjam.quasi_static import (
    QsSolveResult,
    closed_form_solve,
    default_sca_state,
    effective_rate,
    poa_solve,
    sca_solve,
    sca_subproblem,
    single_receiver_gamma,
)
from covertjam.scenario import QuasiStaticParams, ScenarioConfig, \
    derive_quasi_static, sample_scenario


def _params_k1():
    inst = sample_scenario(ScenarioConfig(K=1), 2)
    return derive_quasi_static(inst, 0.005)


def _params_k2():
    inst = sample_scenario(ScenarioConfig(K=2), 3)
    return derive_quasi_static(inst, 0.005)


def test_effective_rate_basic_shape():
    a = np.array([100.0, 100.0])
    b = np.array([2.0, 2.0])
    chis = np.array([0.05, 0.0])
    gammas = np.array([1.0, 1.0])
    rates = effective_rate(chis, gammas, a, b)
    # Second band transmits nothing: zero rate.
    assert rates[1] == 0.0
    expected = (1.0 - 2.0 * np.exp(-100.0 * 0.05 / 1.0)) * np.log1p(1.0)
    assert abs(rates[0] - expected) < 1e-12


def test_effective_rate_clamps_certain_outage():
    # B e^{-A chi / gamma} >= 1 means the receiver never decodes.
    rates = effective_rate(np.array([1e-6]), np.array([10.0]),
                           np.array([1.0]), np.array([5.0]))
    assert rates[0] == 0.0


def test_single_receiver_gamma_beats_dense_grid():
    params = _params_k1()
    a1, b1 = float(params.A[0]), float(params.B[0])
    chi = solve_chi_star(params.epsilon)
    gamma = single_receiver_gamma(a1, b1, chi)
    best = effective_rate(np.array([chi]), np.array([gamma]),
                          params.A, params.B)[0]
    grid = np.geomspace(1e-4, 1e4, 100000)
    grid_best = effective_rate(np.full_like(grid, chi), grid,
                               np.full_like(grid, a1),
                               np.full_like(grid, b1)).max()
    assert best >= grid_best - 1e-12


def test_single_receiver_gamma_validates():
    with pytest.raises(ValueError):
        single_receiver_gamma(-1.0, 2.0, 0.005)
    with pytest.raises(ValueError):
        single_receiver_gamma(10.0, 0.5, 0.005)  # B must exceed 1
    with pytest.raises(ValueError):
        single_receiver_gamma(10.0, 2.0, 1.5)
    # NaN A or chi once gave a NaN gamma, and an infinite A an infinite one.
    for bad in ((np.nan, 2.0, 0.005), (np.inf, 2.0, 0.005),
                (10.0, np.nan, 0.005), (10.0, np.inf, 0.005),
                (10.0, 2.0, np.nan)):
        with pytest.raises(ValueError):
            single_receiver_gamma(*bad)


def test_single_receiver_gamma_extreme_chi_cap():
    # Tiny budgets push kappa* very large; the root-find must stay finite.
    gamma = single_receiver_gamma(1000.0, 1.5, 1e-150)
    assert gamma > 0.0
    assert np.isfinite(gamma)


def test_closed_form_frozen_instance():
    params = _params_k1()
    assert abs(float(params.A[0]) - 3325.3746805502033) < 1e-9
    assert abs(float(params.B[0]) - 2.6303717078276914) < 1e-12
    res = closed_form_solve(params)
    assert abs(float(res.chi[0]) - 0.005137982931285437) < 1e-12
    assert abs(float(res.gamma[0]) - 5.673653853689229) < 1e-9
    assert abs(res.objective - 1.6524074260026222) < 1e-9
    assert res.method == "closed_form"


def test_closed_form_requires_single_band():
    with pytest.raises(ValueError):
        closed_form_solve(_params_k2())


def test_poa_matches_closed_form_single_band():
    params = _params_k1()
    closed = closed_form_solve(params)
    res = poa_solve(params, delta=1e-6)
    assert res.converged
    assert abs(res.objective - closed.objective) < 1e-5
    assert res.constraint_slack >= -1e-9


def test_poa_certificate_beats_boundary_grid():
    """Global solver vs a dense sweep of the covertness boundary (K = 2)."""
    params = _params_k2()
    res = poa_solve(params, delta=1e-4)
    assert res.converged

    chi_cap = solve_chi_star(params.epsilon)
    best_grid = 0.0
    for w in np.linspace(0.0, 1.0, 400):
        # Split the eta budget between the bands, then invert per band.
        e1 = w * params.epsilon
        chi1 = solve_chi_star(e1) if e1 > 0 else 0.0
        chi2 = solve_chi_star(params.epsilon - e1) \
            if params.epsilon - e1 > 0 else 0.0
        chis = np.array([min(chi1, chi_cap), min(chi2, chi_cap)])
        gammas = np.array([
            single_receiver_gamma(float(params.A[k]), float(params.B[k]),
                                  max(float(chis[k]), 1e-300))
            if chis[k] > 0 else 0.0
            for k in range(2)])
        val = float(np.sum(effective_rate(chis, gammas,
                                          params.A, params.B)))
        best_grid = max(best_grid, val)
    assert res.objective >= best_grid - 1e-4 - 1e-9
    assert abs(res.objective - 3.2496921493220308) < 1e-6


def test_poa_certifies_three_bands():
    # Three bands at the fig4 settings: the certificate needs a share grid
    # of 8192 steps (bound 4.355098).
    params = derive_quasi_static(
        sample_scenario(ScenarioConfig(K=3), 3), 0.005)
    res = poa_solve(params, delta=1e-3)
    assert res.converged
    assert res.objective >= 4.35459 - 1e-3
    assert res.objective >= sca_solve(params).objective
    assert res.trace[-1]["bound"] - res.objective <= 1e-3
    assert res.constraint_slack >= 0.0


def test_poa_unreachable_delta_is_flagged():
    params = _params_k2()
    res = poa_solve(params, delta=1e-9)
    assert not res.converged
    assert res.trace[-1]["bound"] - res.objective > 1e-9
    assert res.constraint_slack >= 0.0
    assert res.objective >= 3.2496921493220308 - 1e-6


def test_poa_warm_start_never_hurts():
    params = _params_k2()
    sca = sca_solve(params)
    res = poa_solve(params, delta=1e-3, warm_start=sca.chi)
    assert res.objective >= sca.objective - 1e-12


def test_poa_warm_start_validated():
    params = _params_k2()
    with pytest.raises(ValueError):
        poa_solve(params, warm_start=np.array([0.5, 0.5]))  # budget blown


def test_tv_budget_definition():
    chis = np.array([0.002, 0.003])
    assert abs(tv_upper_bound(chis) - (eta(0.002) + eta(0.003))) < 1e-16


def test_sca_monotone_and_feasible():
    params = _params_k2()
    res = sca_solve(params)
    assert res.converged
    objs = [row["objective"] for row in res.trace]
    assert all(b >= a - 1e-9 for a, b in zip(objs, objs[1:]))
    assert res.constraint_slack >= -1e-9
    assert abs(res.objective - 3.2275329483891992) < 1e-6


def test_sca_close_to_global_at_small_epsilon():
    params = _params_k2()
    sca = sca_solve(params)
    poa = poa_solve(params, delta=1e-4)
    assert sca.objective >= 0.95 * poa.objective
    assert sca.objective <= poa.objective + 1e-6


def test_sca_subproblem_improves_surrogate():
    params = _params_k2()
    state = default_sca_state(params)
    assert state.feasibility_residual(params) <= 1e-8
    nxt = sca_subproblem(state, params)
    assert nxt.objective >= state.objective - 1e-12
    assert nxt.feasibility_residual(params) <= 1e-8


def test_sca_handles_dead_band():
    # One band is so weak that its rate floor freezes it at zero.
    params = QuasiStaticParams(A=np.array([3000.0, 1e-12]),
                               B=np.array([2.0, 1.0 + 1e-12]),
                               epsilon=0.005)
    res = sca_solve(params)
    assert res.objective > 0.0
    assert res.constraint_slack >= -1e-9


def test_solver_result_validation():
    with pytest.raises(ValueError):
        QsSolveResult(chi=np.array([-0.1]), gamma=np.array([1.0]),
                      objective=0.5, method="sca",
                      trace=[], constraint_slack=0.0)
    with pytest.raises(ValueError):
        QsSolveResult(chi=np.array([0.001]), gamma=np.array([1.0]),
                      objective=0.5, method="sca",
                      trace=[], constraint_slack=-1.0)
