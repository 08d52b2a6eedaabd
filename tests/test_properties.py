"""Property-based checks: eta shape, constraint activity, solver residuals."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize_scalar
from scipy.special import gammaln

from covertjam import quasi_static
from covertjam.covertness import (
    band_affinity,
    eta,
    hellinger_bound,
    kl_divergence,
    likelihood_ratio_delta,
    limit_kl,
    pinsker_budget,
    solve_chi_star,
    tv_limit,
    tv_upper_bound,
    zeta,
    zeta_pairs,
)
from covertjam.detection import _BAND_GATE, _BandLogPsi
from covertjam.fast_varying import (
    _band_roots,
    chi_given_tau,
    ergodic_sum_rate,
    es_solve,
    tau_given_chi,
    zeta_vector,
)
from covertjam.quadrature import gamma_rules, log_phi_exact
from covertjam.quasi_static import (
    _band_optimum,
    _gamma_roots,
    closed_form_solve,
    default_sca_state,
    poa_solve,
    sca_subproblem,
    single_receiver_gamma,
)
from covertjam.roots import increasing_root
from covertjam.scenario import (
    ScenarioConfig,
    derive_fast_varying,
    derive_quasi_static,
    sample_scenario,
)

from model_facts import beamforming_stats

unit = st.floats(min_value=1e-9, max_value=1.0 - 1e-9)
log_unit = st.floats(min_value=math.log(1e-9),
                     max_value=math.log1p(-1e-9)).map(math.exp)


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


@given(log_unit, log_unit)
def test_limiting_law_tv_lies_between_its_affinity_and_kl_bounds(c1, c2):
    # One likelihood ratio, three functionals: Le Cam's 1 - rho below the
    # exact TV, the Hellinger and Pinsker bounds above it, and a zero band
    # leaves the other's eta.
    rho = band_affinity(c1) * band_affinity(c2)
    tv = tv_limit([c1, c2])
    upper = min(hellinger_bound(rho),
                pinsker_budget([limit_kl(c1), limit_kl(c2)], 1))
    assert 1.0 - rho <= tv * (1.0 + 1e-13)
    assert tv <= upper * (1.0 + 1e-13)
    for c in (c1, c2):
        assert abs(tv_limit([c, 0.0]) - eta(c)) <= 1e-14 * eta(c)


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


_LOG_CHI = st.floats(min_value=-12.0, max_value=-1e-3)


@settings(max_examples=300)
@given(st.floats(min_value=-2.0, max_value=6.0),
       st.floats(min_value=-3.0, max_value=3.0), _LOG_CHI, _LOG_CHI)
def test_gamma_root_rises_with_a_chi_and_starts_from_its_neighbour(
        log_a, log_bm1, log_chi1, log_chi2):
    # POA starts each new grid point's root at its right neighbour's. Below
    # B - 1 = 1e-3, F flattens at its root, and the stop rule |F| <= 1e-15 m
    # pins any root, cold or warm, only to about 1e-15 m / F'(m).
    a, b = 10.0 ** log_a, 1.0 + 10.0 ** log_bm1
    chi1, chi2 = sorted((10.0 ** log_chi1, 10.0 ** log_chi2))
    assume(chi1 < chi2)
    ln_b = np.log(np.full(2, b))
    m = _gamma_roots(a * np.array([chi1, chi2]), ln_b)
    assert m[0] <= m[1]
    warm = _gamma_roots(a * np.array([chi1]), ln_b[:1], m[1:])[0]
    assert abs(warm - m[0]) <= 1e-13 * m[0]
    assert b * math.exp(-warm) < 1.0


_DECADE = st.floats(min_value=-30.0, max_value=30.0)


@settings(deadline=None, max_examples=100)
@given(st.lists(st.tuples(_DECADE, _DECADE, _DECADE,
                          st.floats(min_value=-60.0, max_value=60.0),
                          st.booleans()), min_size=1, max_size=8))
@example([(0.0, 0.0, 0.0, 0.0, False), (0.0, 0.0, 0.0, 0.0, True)])
@example([(30.0, -30.0, 30.0, -60.0, False),
          (-30.0, 30.0, -30.0, 60.0, False),
          (-30.0, -30.0, 30.0, -60.0, False),
          (30.0, 30.0, -30.0, 60.0, True)])
def test_band_roots_reach_the_root_in_three_halley_steps(cubics):
    # Each row: log10 of the band cubic's coefficients c3, c2, c1 and of
    # its right-hand side, coefficients over 60 decades and rhs over 120,
    # and whether c3 is zero (E_k = mu_k = 0). The root lies within 6 eps
    # relative of the returned x, exactly: P(x (1 - 6 eps)) <= rhs <=
    # P(x (1 + 6 eps)) in rational arithmetic (three steps leave up to
    # about 3.9 eps on the most balanced cubics). Each residual is within
    # its rounding floor, and the slope is P' at x.
    c3, c2, c1, rhs = (10.0 ** np.array(v) for v in list(zip(*cubics))[:4])
    c3[[row[4] for row in cubics]] = 0.0
    x, slope, ok = _band_roots(c3, c2, c1, rhs)
    assert np.all(ok)
    assert np.array_equal(slope, (3.0 * c3 * x + 2.0 * c2) * x + c1)
    six_eps = Fraction(6, 2**52)
    for a3, a2, a1, r, root in zip(c3, c2, c1, rhs, x):
        def poly(v, a=(Fraction(a3), Fraction(a2), Fraction(a1))):
            return ((a[0] * v + a[1]) * v + a[2]) * v
        assert poly(Fraction(root) * (1 - six_eps)) <= Fraction(r) \
            <= poly(Fraction(root) * (1 + six_eps))


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


@settings(deadline=None, max_examples=15)
@given(st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=1, max_value=5),
       st.integers(min_value=2, max_value=120),
       st.integers(min_value=1, max_value=200),
       st.floats(min_value=0.001, max_value=0.3),
       st.floats(min_value=10.0, max_value=45.0),
       st.floats(min_value=-10.0, max_value=20.0))
def test_pruned_es_equals_exhaustive_search(seed, k, n, blocks, epsilon,
                                            q_dbm, p_r_dbm):
    inst = sample_scenario(ScenarioConfig(K=k, Q_dBm=q_dbm,
                                          P_R_dBm=p_r_dbm), seed)
    params = derive_fast_varying(inst, n, blocks, epsilon)
    # Reference: every pilot count in one batched chi_given_tau call, the
    # best objective winning, ties toward fewer pilots.
    n_ts = np.arange(1, n)
    z = zeta_vector(params, n - n_ts)
    chis, lams = chi_given_tau(n_ts / n, params, z, params.budget)
    objs = np.array([ergodic_sum_rate(c, t / n, params)
                     for c, t in zip(chis, n_ts)])
    i = max(range(n - 1), key=lambda j: (objs[j], -j))
    res = es_solve(params)
    assert (res.N_t, res.tau, res.objective, res.lam, res.budget_used) == \
        (n_ts[i], n_ts[i] / n, objs[i], float(lams[i]),
         0.5 * float(np.dot(z[i], chis[i] * chis[i])))
    assert res.chi.tobytes() == chis[i].tobytes()
    # The premise of the pruning: the rate per data symbol is
    # nondecreasing in the pilot count.
    per_data_symbol = objs / (n - n_ts)
    assert np.all(per_data_symbol[1:] >= per_data_symbol[:-1])


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


def _logged_subproblem(state, params):
    """sca_subproblem(state, params) and the (w, f, df, floor) of each
    evaluation of its dual search."""
    seen = []

    def search(fn, y, lo, hi):
        if (lo, hi) != (quasi_static._W_LO, quasi_static._W_HI):
            return increasing_root(fn, y, lo, hi)  # a band solve

        def logged(w):
            seen.append((w, *fn(w)))
            return seen[-1][1:]
        return increasing_root(logged, y, lo, hi)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quasi_static, "increasing_root", search)
        return sca_subproblem(state, params), seen


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=3),
       st.floats(min_value=-61.0 * math.log(2.0),
                 max_value=math.log(1e12)).map(math.exp),
       st.sampled_from((15.0, 20.0, 25.0, 30.0, 35.0)))
# Two starts whose dual searches close their brackets 3.5 and 3.4 floors
# below zero (the cold start does so in about 1 of 2000 random cases).
@example(475859, 3, 3, 4.570217353398267e-09, 35.0)
@example(25153, 2, 3, 0.07495547163100899, 35.0)
def test_sca_subproblem_from_any_dual_start_matches_the_cold_start(
        seed, k, steps, dual, q_dbm):
    params = derive_quasi_static(
        sample_scenario(ScenarioConfig(K=k, Q_dBm=q_dbm), seed), 0.005)
    state = default_sca_state(params)
    for _ in range(steps):
        state = sca_subproblem(state, params)
    cold = sca_subproblem(dataclasses.replace(state, dual=1e12), params)
    warm, seen = _logged_subproblem(dataclasses.replace(state, dual=dual),
                                    params)
    for name in ("t", "gamma"):
        ref, got = getattr(cold, name), getattr(warm, name)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref)), name
    # The ellipsoid residual as sca_subproblem forms it: never above zero,
    # and at most two rounding floors below it unless the search closed
    # its bracket first, with an infeasible dual (or the bracket's top)
    # within 1e-15 relative above the returned one.
    active = (state.t > 0.0) & (state.gamma > 1e-200) \
        & (state.alpha + state.beta > 0.0)
    l1 = state.gamma[active] / state.t[active]
    l2 = state.t[active] / state.gamma[active]
    t, gamma = warm.t[active], warm.gamma[active]
    r = 0.5 * float(np.dot(l1, t * t) + np.dot(l2, gamma * gamma)) \
        - params.epsilon
    assert r <= 0.0
    if r < -2e-14 * params.epsilon:
        w = warm.dual
        above = [v for v, f, _, _ in seen if f > 0.0] + [1e12]
        assert min(v for v in above if v > w) - w <= 1e-15 * w


@settings(deadline=None, max_examples=25)
@given(st.floats(min_value=math.log10(3.0), max_value=math.log10(3e4)),
       st.floats(min_value=1.0, max_value=500.0),
       st.floats(min_value=-5.0, max_value=math.log10(0.5)))
def test_kl_is_below_its_quadratic_term(log_q, n, log_chi):
    # The fast-varying covertness budget bounds each band's KL by the
    # quadratic term zeta chi^2 / 2; it is tight only as chi -> 0.
    q, chi = 10.0 ** log_q, 10.0 ** log_chi
    assert kl_divergence(chi * q, q, n) <= 0.5 * zeta(q, n) * chi * chi


@settings(deadline=None, max_examples=20)
@given(st.floats(min_value=math.log10(3.0), max_value=math.log10(3e4)),
       st.floats(min_value=0.0, max_value=4.0),
       st.floats(min_value=-6.0, max_value=math.log10(0.5)))
@example(log_q=math.log10(316.0), log_n=3.0, log_chi=-2.0)
@example(log_q=math.log10(666.0), log_n=math.log10(420.0),
         log_chi=math.log10(9.32 / 666.0))
@example(log_q=math.log10(316.0), log_n=math.log10(3000.0), log_chi=-1.0)
def test_band_log_psi_table_stays_within_its_gate(log_q, log_n, log_chi):
    # A band's table certifies the largest error at the middle of every
    # knot interval that samples reach. On a dense scan of the table's
    # range and of the bends above 1/p and 1/q, a certified table stays
    # within the gate (an uncertified band is exact, and trivially within
    # it), and within 5 % of its certificate plus the rounding of the
    # exact ln Psi: where Psi is tiny, one ulp of ln Phi moves ln Psi by
    # up to 3e-7 (ROADMAP item 6), and at N_d above 1000 that noise, not
    # the spline, can set the dense maximum. Probes held out at 256
    # spread points understated the error up to 12x (at q = 666, n =
    # 420, chi = 0.014) and let (3.16, 316, 1000) through above the gate.
    q, p, n = 10.0 ** log_q, 10.0 ** (log_q + log_chi), 10.0 ** log_n
    psi = _BandLogPsi(p, q, n)
    z = np.concatenate([
        np.exp(np.linspace(np.log(psi.z_lo), np.log(psi.z_hi), 10001)),
        np.linspace(0.9, 1.2, 301) / p, np.linspace(0.9, 1.2, 301) / q])
    z = z[(z >= psi.z_lo) & (z <= psi.z_hi)]
    log_phi_p, log_phi_q = log_phi_exact(np.array([[p], [q]]), z, n)
    delta = likelihood_ratio_delta(p, q, z, log_phi_p, log_phi_q)
    err = np.abs(psi(z) - np.log1p(delta))
    assert err.max() <= _BAND_GATE
    if psi.table is not None:
        # An ulp of both ln Phi, times d ln Psi / d (ln Phi_p - ln Phi_q).
        rounding = 2.0 ** -52 * (np.abs(log_phi_p) + np.abs(log_phi_q)) \
            * (p / (q - p)) * np.exp(log_phi_p - log_phi_q) / (1.0 + delta)
        assert np.all(err <= 1.05 * psi.max_abs_err + 1e-13 + rounding)


@settings(deadline=None, max_examples=60)
@given(st.floats(min_value=math.log10(50.0), max_value=5.0,
                 exclude_min=True),
       st.floats(min_value=1.0, max_value=5000.0))
@example(log_q=math.log10(316.0), n=90.0)
@example(log_q=5.0, n=1.0)
@example(log_q=5.0, n=5000.0)
def test_zeta_direct_route_equals_the_all_nodes_sum(log_q, n):
    # The direct route skips the Gamma-rule nodes whose term is at most
    # 2^-64; the value is the sum over every node, inlined here, bit for
    # bit.
    q = 10.0 ** log_q
    s, w = gamma_rules([n])[0]
    full = float(np.dot(w, np.exp(-s - log_phi_exact(q, s, n)))) - 1.0
    assert zeta_pairs([(q, n)])[0] == full
