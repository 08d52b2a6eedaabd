"""Power/rate allocation under slow fading: closed form, budget split, SCA."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertjam import quasi_static
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
from covertjam.roots import increasing_roots
from covertjam.scenario import QuasiStaticParams, ScenarioConfig, \
    derive_quasi_static, sample_scenario

from model_facts import feasibility_residual


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


def test_underflowing_a_chi_takes_its_limit_without_warnings():
    # Warnings are errors under this suite's settings. A chi = 1e-600
    # underflows to 0: the root's kappa = m / (A chi) is +inf, and gamma
    # takes the A chi -> 0 limit 0.
    assert single_receiver_gamma(1e-300, 2.0, 1e-300) == 0.0
    # In POA's grid A chi underflows to 0 or a subnormal, so the grid's
    # chi / gamma divides by zero or overflows; the band's rate is 0 and
    # the budget goes to the other band.
    for a in (1e-320, 5e-324):
        res = poa_solve(QuasiStaticParams(A=np.array([a, 1.0]),
                                          B=np.array([2.0, 2.0]),
                                          epsilon=0.005))
        assert res.chi[0] == 0.0 and res.gamma[0] == 0.0
        assert res.chi[1] > 0.0 and 0.0 < res.objective < np.inf


def test_poa_rejects_non_finite_bands():
    # POA's grid root solves skip single_receiver_gamma's check, so the
    # parameters must not admit a band that check would refuse.
    for a, b in ((np.inf, 2.0), (np.nan, 2.0), (10.0, np.inf),
                 (10.0, np.nan)):
        with pytest.raises(ValueError, match="finite"):
            QuasiStaticParams(A=np.array([a, 10.0]), B=np.array([b, 2.0]),
                              epsilon=0.005)


@pytest.mark.parametrize(
    "k, delta, warm, objective, chi, gamma, converged, rounds, trace_sha", [
        (2, 1e-4, False, 3.249692150634237,
         [0.002436987907738822, 0.0026397276012061245],
         [4.430557042502384, 6.977219334138968],
         True, 9, "b2afa4716ba0af5c"),
        (2, 1e-3, True, 3.2496920601041595,
         [0.0024379285585609724, 0.0026387852245480514],
         [4.432078355577883, 6.975031710915499],
         True, 6, "e57bb0c29b3a1da7"),
        (3, 1e-3, False, 4.35458765119812,
         [0.0017254126096233505, 0.001570432937562518,
          0.0017584308723946084],
         [5.0467939555991, 3.39709776107833, 5.540130293983791],
         True, 8, "1932d932f479650d"),
        (3, 1e-3, True, 4.35458765119812,
         [0.0017254126096233505, 0.001570432937562518,
          0.0017584308723946084],
         [5.0467939555991, 3.39709776107833, 5.540130293983791],
         True, 8, "1932d932f479650d"),
        (2, 1e-9, False, 3.249692151047638,
         [0.00243690952053618, 0.0026398061329554264],
         [4.4304302642584545, 6.97740163325484],
         False, 11, "82090c5b2e3b0fc7"),
    ], ids=["k2", "k2-warm-start", "k3", "k3-warm-start", "k2-grid-cap"])
def test_poa_results_are_frozen(k, delta, warm, objective, chi, gamma,
                                converged, rounds, trace_sha, monkeypatch):
    # The results were recorded when every round rebuilt its share grid and
    # rate table from scratch; the cached grid, the reused columns and the
    # pruned refinement keep every bit. The trace is pinned with its table
    # roots found from their right neighbours' (`_gamma_roots`), and checked
    # against a cold rebuild. Cold roots start at the closed-form bound,
    # which moved k2's returned gamma and objective by an ulp, and the
    # returned gamma is now read from the incumbent's table roots, which
    # moved k2-warm-start's and k2-grid-cap's by a few ulps.
    monkeypatch.setattr(quasi_static, "_SHARE_GRID", {})
    params = derive_quasi_static(sample_scenario(ScenarioConfig(K=k), 3),
                                 0.005)
    start = sca_solve(params).chi if warm else None
    for _ in ("cold", "warm"):
        res = poa_solve(params, delta=delta, warm_start=start)
        assert res.objective == objective
        assert res.chi.tolist() == chi
        assert res.gamma.tolist() == gamma
        assert res.converged is converged
        assert len(res.trace) == rounds
        assert hashlib.sha256(repr(res.trace).encode()).hexdigest()[:16] \
            == trace_sha
    assert list(quasi_static._SHARE_GRID) == [params.epsilon]
    kernel = quasi_static._gamma_roots
    monkeypatch.setattr(quasi_static, "_gamma_roots",
                        lambda a_chi, ln_b, start=None: kernel(a_chi, ln_b))
    cold = poa_solve(params, delta=delta, warm_start=start)
    assert len(cold.trace) == rounds
    for entry, ref in zip(res.trace, cold.trace):
        for key in ("bound", "best_feasible"):
            assert abs(entry[key] - ref[key]) <= 4.0 * math.ulp(ref[key])


def test_poa_solves_only_new_grid_points(monkeypatch):
    chi_sizes, gamma_sizes = [], []

    def counted(fn, sizes):
        def wrapper(*args):
            sizes.append(np.size(args[0]))
            return fn(*args)
        return wrapper

    monkeypatch.setattr(quasi_static, "_SHARE_GRID", {})
    monkeypatch.setattr(quasi_static, "solve_chi_star",
                        counted(solve_chi_star, chi_sizes))
    monkeypatch.setattr(quasi_static, "_gamma_roots",
                        counted(quasi_static._gamma_roots, gamma_sizes))
    params = derive_quasi_static(
        sample_scenario(ScenarioConfig(K=3), 3), 0.005)
    res = poa_solve(params, delta=1e-3)
    grids = [64 * 2**i for i in range(len(res.trace))]
    # Round 1 solves the 64 nonzero shares, round 2G at most the G odd
    # ones, here 19,716 thresholds in all (24,579 without pruning, with the
    # returned point's 3); the returned point reads its roots off the table.
    assert chi_sizes == [64] + [g // 2 for g in grids[1:]]
    assert len(gamma_sizes) == len(grids)
    assert gamma_sizes[0] == 3 * 64
    assert all(size <= 3 * g // 2
               for size, g in zip(gamma_sizes[1:], grids[1:]))
    assert sum(gamma_sizes) <= 20_500
    solved = list(gamma_sizes)
    chi_sizes.clear()
    gamma_sizes.clear()
    again = poa_solve(params, delta=1e-3)
    assert chi_sizes == []
    assert gamma_sizes == solved
    assert again.objective == res.objective
    # At K = 2 the reach of a split is exact: 416 thresholds (4098).
    gamma_sizes.clear()
    poa_solve(_params_k2(), delta=1e-3)
    assert sum(gamma_sizes) <= 450
    # A new epsilon replaces the cached grid rather than adding to it.
    quasi_static._share_grid(0.004, 64)
    assert list(quasi_static._SHARE_GRID) == [0.004]


def test_warm_started_root_solves_stay_within_their_counts(monkeypatch):
    # On this instance: 3.06 gamma* residual evaluations per root in POA's
    # refinement rounds, 5.0 per cold root (6.01 from ln B + 60) and 4.31
    # dual evaluations per SCA subproblem, where cold duals took 5.46. Each
    # ceiling is 10 % above its count.
    params = derive_quasi_static(
        sample_scenario(ScenarioConfig(K=3), 3), 0.005)
    solves = []  # [roots, residual element evaluations] per gamma* solve

    def roots(fn, y, lo, hi):
        solve = [np.size(y), 0]
        solves.append(solve)

        def counted(m, rows):
            solve[1] += rows.size
            return fn(m, rows)
        return increasing_roots(counted, y, lo, hi)

    monkeypatch.setattr(quasi_static, "_SHARE_GRID", {})
    monkeypatch.setattr(quasi_static, "increasing_roots", roots)
    res = poa_solve(params, delta=1e-3)
    # Round 1 starts cold; each refinement round makes one call, on the
    # columns it did not prune.
    assert len(solves) == len(res.trace)
    refined = np.sum(solves[1:], axis=0)
    assert refined[1] <= 3.35 * refined[0]
    assert solves[0][1] <= 5.5 * solves[0][0]

    duals = []
    subproblem = quasi_static._subproblem_at_lambda
    monkeypatch.setattr(quasi_static, "_subproblem_at_lambda",
                        lambda *args: duals.append(args) or subproblem(*args))
    sca = sca_solve(params)
    assert len(duals) <= 4.75 * (len(sca.trace) - 1)


@settings(deadline=None, max_examples=40)
@given(st.floats(min_value=1e-6, max_value=0.3678794),
       st.integers(min_value=6, max_value=10),
       st.floats(min_value=0.5, max_value=3.5),
       st.floats(min_value=-3.0, max_value=0.3),
       st.integers(min_value=0, max_value=2**10 - 1),
       st.integers(min_value=2, max_value=9))
def test_grid_kernels_work_element_by_element(epsilon, log_grid, log_a,
                                              log_bm1, point, stride):
    # The share-grid cache rests on these: a kernel call on any subset of
    # a grid has the bits of the whole-grid call at those points.
    grid = 2**log_grid
    shares = np.linspace(0.0, epsilon, 2 * grid + 1)
    assert np.array_equal(shares[::2], np.linspace(0.0, epsilon, grid + 1))
    chi = solve_chi_star(shares[1:])
    gamma = single_receiver_gamma(10.0**log_a, 1.0 + 10.0**log_bm1, chi)
    j = point % chi.size
    for part in (slice(j, j + 1), slice(0, None, 2), slice(1, None, 2),
                 slice(j, None, stride)):
        assert np.array_equal(solve_chi_star(shares[1:][part]), chi[part])
        assert np.array_equal(single_receiver_gamma(
            10.0**log_a, 1.0 + 10.0**log_bm1, chi[part]), gamma[part])
    assert solve_chi_star(float(shares[1:][j])) == chi[j]
    assert single_receiver_gamma(10.0**log_a, 1.0 + 10.0**log_bm1,
                                 float(chi[j])) == gamma[j]


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
    assert feasibility_residual(state, params) <= 1e-8
    nxt = sca_subproblem(state, params)
    assert nxt.objective >= state.objective - 1e-12
    assert feasibility_residual(nxt, params) <= 1e-8


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
