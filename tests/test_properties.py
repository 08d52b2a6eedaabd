"""Property-based checks: eta shape, constraint activity, solver residuals."""

import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize_scalar
from scipy.special import gammaln

from covertjam.covertness import eta, solve_chi_star, tv_upper_bound
from covertjam.fast_varying import (
    chi_given_tau,
    ergodic_sum_rate,
    tau_given_chi,
    zeta_vector,
)
from covertjam.quasi_static import (
    _band_optimum,
    closed_form_solve,
    poa_solve,
    single_receiver_gamma,
)
from covertjam.scenario import (
    ScenarioConfig,
    beamforming_stats,
    derive_fast_varying,
    derive_quasi_static,
    sample_scenario,
)

unit = st.floats(min_value=1e-9, max_value=1.0 - 1e-9)


@given(unit)
def test_eta_stays_below_identity(x):
    v = float(eta(x))
    assert 0.0 <= v <= 1.0
    assert v <= x


@given(unit, unit)
def test_eta_monotone_increasing(x, y):
    lo, hi = min(x, y), max(x, y)
    assume(hi - lo > 1e-12)
    assert float(eta(hi)) > float(eta(lo)) - 1e-15


@given(unit, unit)
def test_eta_midpoint_concave(x, y):
    mid = float(eta(0.5 * (x + y)))
    chord = 0.5 * (float(eta(x)) + float(eta(y)))
    assert mid >= chord - 1e-13


@given(st.floats(min_value=1e-6, max_value=0.99))
# Toward 1/e, W0(eps ln eps) / ln eps is ill-conditioned: here it misses
# the largest feasible chi by 1.5e8 ulps before the Newton polish.
@example(0.3678794349256178)
@example(0.36787944)
@example(0.3678794411712583)  # one ulp below eta(1 - 1e-12)
@example(0.36787944117125837)  # eta(1 - 1e-12): the returned cap
def test_chi_star_inverts_eta(epsilon):
    chi = solve_chi_star(epsilon)
    assert float(eta(chi)) <= epsilon
    if chi < 1.0 - 1e-9:
        assert float(eta(min(chi * (1.0 + 1e-9), 1.0 - 1e-15))) >= \
            epsilon - 1e-12


@given(st.floats(min_value=0.5, max_value=3.5),
       st.floats(min_value=-3.0, max_value=0.3),
       st.floats(min_value=-3.0, max_value=-0.05))
def test_threshold_stationarity_residual(log_a, log_bm1, log_chi):
    a = 10.0 ** log_a
    b = 1.0 + 10.0 ** log_bm1
    chi = 10.0 ** log_chi
    gamma = single_receiver_gamma(a, b, chi)
    kappa = 1.0 / gamma
    m = a * chi * kappa
    # Independent restatement of the optimality condition:
    # exp(A chi k) = B (A chi k) (1 + k) ln(1 + 1/k) at k = 1/gamma.
    xi = math.exp(m) - b * m * (1.0 + kappa) * math.log1p(1.0 / kappa)
    assert abs(xi - b) / math.exp(m) <= 1e-10
    # The vectorized kernel matches scalar calls element by element, here
    # with the extreme chi of test_single_receiver_gamma_extreme_chi_cap.
    points = [(a, b, chi), (1000.0, 1.5, 1e-150)]
    batch = single_receiver_gamma(*(np.array(v) for v in zip(*points)))
    for value, point in zip(batch, points):
        scalar = single_receiver_gamma(*point)
        assert abs(value - scalar) <= 1e-14 * scalar


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=1, max_value=5),
       st.floats(min_value=0.05, max_value=0.95),
       st.floats(min_value=0.005, max_value=0.2),
       st.integers(min_value=5, max_value=200))
def test_power_budget_activity(seed, k, tau, epsilon, n_d):
    params = derive_fast_varying(
        sample_scenario(ScenarioConfig(K=k), seed), 100, 100, epsilon)
    zetas = zeta_vector(params, float(n_d))
    budget = 2.0 * epsilon ** 2 / params.L
    chis, lam = chi_given_tau(tau, params, zetas, budget)
    assert lam > 0.0
    assert np.all(chis > 0.0)
    used = 0.5 * float(np.dot(zetas, chis * chis))
    assert abs(used - budget) <= 1e-10 * budget


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=1, max_value=4))
def test_pilot_fraction_local_optimality(seed, k):
    params = derive_fast_varying(
        sample_scenario(ScenarioConfig(K=k), seed), 50, 20, 0.05)
    rng = np.random.default_rng(seed + 1)
    chis = rng.uniform(1e-6, 1e-3, k)
    tau = tau_given_chi(chis, params)
    best = ergodic_sum_rate(chis, tau, params)
    for step in (1e-5, -1e-5):
        other = tau + step
        if 0.0 < other < 1.0:
            assert best >= ergodic_sum_rate(chis, other, params) \
                - 1e-12 * max(1.0, abs(best))


@settings(deadline=None, max_examples=10)
@given(st.integers(min_value=0, max_value=10**6))
def test_covertness_activity_at_optima(seed):
    inst = sample_scenario(ScenarioConfig(K=2), seed)
    params = derive_quasi_static(inst, 0.005)
    res = poa_solve(params, delta=1e-3)
    assert 0.0 <= params.epsilon - tv_upper_bound(res.chi) <= 1e-10 * params.epsilon
    single = sample_scenario(ScenarioConfig(K=1), seed)
    closed = closed_form_solve(derive_quasi_static(single, 0.005))
    assert abs(tv_upper_bound(closed.chi) - 0.005) <= 1e-10 * 0.005


@given(st.integers(min_value=1, max_value=10**4),
       st.floats(min_value=1.0, max_value=1e4),
       st.floats(min_value=0.0, max_value=1e4))
def test_gain_variance_split(m, n_t, mu):
    g, e = beamforming_stats(m, n_t, mu)
    total = (n_t * m + mu) / (n_t + mu)
    assert abs(g + e - total) <= 1e-12 * total
    # The variance share M - G grows from 1 - pi/4 at M = 1 toward 1/4,
    # which pins down the log-gamma route at both ends.
    g_const = math.exp(2.0 * (gammaln(m + 0.5) - gammaln(m)))
    assert 1.0 - math.pi / 4.0 - 1e-12 <= m - g_const <= 0.25 + 1e-6


def _band_value(x, y, rho, lam_l1, lam_l2, a, ln_b):
    """The SCA per-band objective that `_band_optimum` minimizes."""
    t = (ln_b - math.log1p(-x)) / a
    g = math.expm1(y)
    return (x - y) ** 2 - 2.0 * rho * (x + y) \
        + 0.5 * (lam_l1 * t * t + lam_l2 * g * g)


def _reference_band(rho, lam_l1, lam_l2, a, ln_b):
    """Independent nested 1-D solve of the same problem (x <= 1 - 1e-10).

    The inner y-minimizer at fixed x is a brentq root of the y-gradient;
    the outer x is a bounded scalar minimization, compared with the corner.
    """

    def best_y(x):
        f = lambda y: 2.0 * (y - x) - 2.0 * rho \
            + lam_l2 * math.expm1(y) * math.exp(y)
        hi = 1.0
        while f(hi) <= 0.0:
            hi *= 2.0
        return brentq(f, 0.0, hi, xtol=1e-300, rtol=1e-15)

    def value(x):
        return _band_value(x, best_y(x), rho, lam_l1, lam_l2, a, ln_b)

    res = minimize_scalar(value, bounds=(0.0, 1.0 - 1e-10), method="bounded",
                          options={"xatol": 1e-13, "maxiter": 500})
    x = 0.0 if value(0.0) <= res.fun else float(res.x)
    return x, best_y(x)


# A K = 2 SCA run with one dead band (A = 1e-12, B = 1 + 1e-12) solves
# these: rho ~ 1e-100 and lam l2 up to 4e102 put y0 near 1e-203.
_DEAD = (-99.875, -97.15, 102.6, -12.0, 1.000088900581841e-12)


@settings(deadline=None, max_examples=150)
@given(st.floats(min_value=-3.0, max_value=0.7),
       st.floats(min_value=-14.0, max_value=3.0),
       st.floats(min_value=-14.0, max_value=3.0),
       st.floats(min_value=0.0, max_value=3.5),
       st.floats(min_value=1e-4, max_value=2.0),
       st.floats(min_value=0.0, max_value=1.0))
@example(0.3, -1.0, 0.5, 1.0, 0.7, 0.5)  # interior
@example(-1.0, 3.0, 0.0, 0.5, 1.0, 0.5)  # corner x = 0
@example(0.3, -12.0, -12.0, 1.0, 0.7, 1.0)  # x pinned at lambda = 1e-12
@example(*_DEAD, 0.0)
@example(-99.875, -111.875, 87.875, -12.0, 1.000088900581841e-12, 1.0)
def test_band_optimum_matches_nested_reference(log_rho, log_l1, log_l2,
                                               log_a, ln_b, start):
    rho, lam_l1, lam_l2, a = (10.0 ** v for v in (log_rho, log_l1, log_l2,
                                                 log_a))
    x, y = _band_optimum(rho, lam_l1, lam_l2, a, ln_b, start * (rho + 1.0))
    assert 0.0 <= x <= 1.0 - 1e-12 and y >= 0.0
    value = _band_value(x, y, rho, lam_l1, lam_l2, a, ln_b)
    ref = _band_value(*_reference_band(rho, lam_l1, lam_l2, a, ln_b),
                      rho, lam_l1, lam_l2, a, ln_b)
    assert value <= ref + 1e-12 * (1.0 + abs(ref))
    # KKT: y-stationary; x-stationary inside, or the gradient points out
    # of the range at the corner or the cap. gx is resolved only to its
    # curvature times the rounding of x.
    t = (ln_b - math.log1p(-x)) / a
    tp = 1.0 / (a * (1.0 - x))
    p = lam_l1 * t * tp
    q = lam_l2 * math.expm1(y) * math.exp(y)
    gx = 2.0 * (x - y) - 2.0 * rho + p
    gy = 2.0 * (y - x) - 2.0 * rho + q
    assert abs(gy) <= 1e-12 * (2.0 * (x + y + rho) + q)
    tol = 1e-12 * (2.0 * (x + y + rho) + p) \
        + 1e-13 * (2.0 + lam_l1 * tp * (tp + t / (1.0 - x)))
    if x == 0.0:
        assert gx >= -tol
    elif x >= 1.0 - 1e-11:
        assert gx <= tol
    else:
        assert abs(gx) <= tol
