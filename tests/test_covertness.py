"""Covertness metrics: eta bound, numeric TV, KL divergence, zeta coefficient."""

import math
import time

import numpy as np
import pytest

from covertjam import covertness
from covertjam.covertness import (
    band_affinity,
    eta,
    kl_divergence,
    limit_kl,
    log_psi,
    pinsker_budget,
    solve_chi_star,
    tv_exact_n,
    tv_limit,
    tv_upper_bound,
    zeta,
)
from covertjam.quadrature import gamma_rule, log_phi_exact

from model_facts import tv_numeric_k1, tv_numeric_product

_NAN, _INF = float("nan"), float("inf")


def test_eta_closed_values():
    assert eta(0.0) == 0.0
    assert abs(eta(0.5) - 0.25) < 1e-15
    assert abs(eta(0.9) - 0.9 ** 10) < 1e-15
    # x^(1/(1-x)) -> 1/e as x -> 1.
    assert abs(eta(1.0 - 1e-9) - math.exp(-1.0)) < 1e-6


def test_numeric_tv_matches_closed_form():
    for chi in (0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
        assert abs(tv_numeric_k1(chi) - eta(chi)) < 1e-8


def test_product_tv_single_band_within_ci():
    chi = 0.5
    est, ci = tv_numeric_product([chi], samples=200000, seed=11)
    assert abs(est - 0.25) < 3.0 * ci
    assert ci < 0.01


def test_product_tv_bounded_by_eta_sum():
    chis = (0.2, 0.4)
    est, ci = tv_numeric_product(chis, samples=200000, seed=4)
    assert est <= tv_upper_bound(chis) + 3.0 * ci


@pytest.mark.parametrize("chi", [1.0, 1.5, -0.1, float("nan")])
def test_numeric_tv_rejects_chi_outside_unit_interval(chi):
    with pytest.raises(ValueError, match=r"outside \[0, 1\)"):
        tv_numeric_k1(chi)
    with pytest.raises(ValueError, match=r"outside \[0, 1\)"):
        tv_numeric_product([0.2, chi], samples=1000)


@pytest.mark.parametrize("chi", [1.0, 1.5, -0.1, float("nan")])
def test_eta_rejects_chi_outside_unit_interval(chi):
    # NaN fails every comparison, so it must be caught by the check's form.
    with pytest.raises(ValueError, match=r"outside \[0, 1\)"):
        eta(chi)
    with pytest.raises(ValueError, match=r"outside \[0, 1\)"):
        tv_upper_bound([0.1, chi])
    for fn in (limit_kl, band_affinity):
        with pytest.raises(ValueError, match=r"outside \[0, 1\)"):
            fn(chi)


def test_product_tv_needs_a_band():
    with pytest.raises(ValueError, match="at least one band"):
        tv_numeric_product([], samples=1000)


# Pairs over [1e-6, 1 - 1e-9], equal and unequal, for tv_limit's oracles.
_TV_LIMIT_PAIRS = [
    (1e-6, 1e-6), (1e-6, 0.5), (0.05, 0.05), (0.1, 0.9), (0.3, 0.7),
    (0.5, 0.5), (0.9, 0.9), (0.99, 0.2), (1.0 - 1e-6, 1e-3),
    (1.0 - 1e-9, 1.0 - 1e-9), (1.0 - 1e-9, 0.3), (0.2, 1e-4), (0.7, 0.7),
]


def test_tv_limit_matches_mpmath_quadrature_of_its_integral():
    # The same 1-D form at 30 digits: E_t[r1 u_+^(1/(1 - chi2))] with
    # t ~ Exp(1), r1 = (1 - e^(-t/x1))/(1 - chi1), u = 1 - (1 - chi2)/r1.
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    for a, b in _TV_LIMIT_PAIRS:
        with mpmath.workdps(30):
            c1, c2 = mp.mpf(max(a, b)), mp.mpf(min(a, b))
            x1 = c1 / (1 - c1)
            t0 = -x1 * mp.log(1 - (1 - c1) * (1 - c2))

            def integrand(t):
                r1 = -mp.expm1(-t / x1) / (1 - c1)
                u = 1 - (1 - c2) / r1
                return mp.exp(-t) * r1 * u ** (1 / (1 - c2)) if u > 0 else 0

            near = [t0 + x1 * k for k in (mp.mpf("0.01"), 1, 10, 100)
                    if x1 * k < 1]
            breaks = [t0, *near, t0 + 1, t0 + 10, t0 + 40, mp.inf]
            want = float(mp.quad(integrand, breaks))
        got = tv_limit([a, b])
        assert abs(got - want) <= 1e-13 * want, (a, b, got, want)


@pytest.mark.parametrize("c1, c2", [(0.1, 0.1), (0.3, 0.7), (0.5, 0.5),
                                    (0.9, 0.2), (0.05, 0.6), (0.9, 0.9)])
def test_tv_limit_matches_a_double_integral_of_the_product_laws(c1, c2):
    # Independent of the closed inner expectation: (1/2) of the double
    # integral of |f1(t1) f2(t2) - e^(-t1 - t2)|, f(t; chi) =
    # (e^-t - e^(-t/chi))/(1 - chi), split where the integrand changes sign.
    from scipy.integrate import dblquad

    x1, x2 = c1 / (1.0 - c1), c2 / (1.0 - c2)

    def diff(t2, t1):
        f1 = (math.exp(-t1) - math.exp(-t1 / c1)) / (1.0 - c1)
        f2 = (math.exp(-t2) - math.exp(-t2 / c2)) / (1.0 - c2)
        return f1 * f2 - math.exp(-t1 - t2)

    def crossing(t1):
        # t2 where f1 f2 = f0 f0, for t1 past t0
        r1 = -math.expm1(-t1 / x1) / (1.0 - c1)
        return -x2 * math.log1p(-(1.0 - c2) / r1)

    t0 = -x1 * math.log1p(-(1.0 - c1) * (1.0 - c2))
    tol = dict(epsabs=1e-13, epsrel=1e-12)
    above = dblquad(diff, t0, np.inf, crossing, np.inf, **tol)[0]
    below = dblquad(diff, t0, np.inf, 0.0, crossing, **tol)[0]
    left = dblquad(diff, 0.0, t0, 0.0, np.inf, **tol)[0]
    assert above > 0.0 and below < 0.0 and left < 0.0
    # Both laws have mass 1, so the signed parts cancel.
    assert abs(above + below + left) < 1e-10
    assert abs(tv_limit([c1, c2]) - 0.5 * (above - below - left)) < 1e-8


def test_tv_limit_is_symmetric_and_a_zero_band_gives_eta():
    assert tv_limit([0.0, 0.0]) == 0.0
    for a, b in _TV_LIMIT_PAIRS:
        assert tv_limit([a, b]) == tv_limit([b, a])
    for chi in (1e-6, 0.05, 0.1, 0.5, 0.9, 0.99, 1.0 - 1e-6, 1.0 - 1e-9):
        assert abs(tv_limit([chi, 0.0]) - eta(chi)) <= 1e-15, chi
    # Below chi = 1e-20 the TV is eta1 + eta2, subnormal chi included; the
    # quadrature above that switch agrees with the sum.
    for chi in (1e-310, 5e-324):
        assert tv_limit([chi, 0.0]) == eta(chi) > 0.0
        assert tv_limit([chi, chi]) == 2.0 * eta(chi)
    for a, b in ((1e-19, 0.0), (1e-19, 1e-19), (2e-20, 3e-21)):
        total = eta(a) + eta(b)
        assert abs(tv_limit([a, b]) - total) <= 1e-14 * total, (a, b)


@pytest.mark.parametrize("c1, c2, seed", [(0.2, 0.4, 3), (0.5, 0.5, 5),
                                          (0.9, 0.9, 7)])
def test_tv_limit_within_ci_of_monte_carlo(c1, c2, seed):
    est, ci = tv_numeric_product([c1, c2], samples=10**6, seed=seed)
    assert abs(tv_limit([c1, c2]) - est) <= 3.0 * ci


@pytest.mark.parametrize("chis, match", [
    ([], "two bands"), ([0.2], "two bands"), ([0.1, 0.2, 0.3], "two bands"),
    ([[0.1, 0.2]], "two bands"), ([0.2, 1.0], r"outside \[0, 1\)"),
    ([-0.1, 0.2], r"outside \[0, 1\)"), ([0.2, _NAN], r"outside \[0, 1\)"),
])
def test_tv_limit_rejects_bad_bands(chis, match):
    with pytest.raises(ValueError, match=match):
        tv_limit(chis)


def test_tv_upper_bound_is_sum_of_etas():
    chis = np.array([0.1, 0.2, 0.3])
    assert abs(tv_upper_bound(chis) - sum(eta(c) for c in chis)) < 1e-15


def test_chi_star_inverts_eta():
    chi = solve_chi_star(0.005)
    assert abs(chi - 0.005137982931285437) < 1e-12
    assert abs(eta(chi) - 0.005) < 1e-14
    # Monotone in the budget.
    assert solve_chi_star(0.05) > chi


def test_chi_star_feasible_below_bracket_floor():
    # Budgets under 1e-15 once returned the bracket floor 1e-15, where
    # eta(1e-15) > epsilon; rounding also makes eta(x) > x at tiny x.
    tiny = np.array([1e-16, 1e-20, 1e-300, 5e-324])
    chis = solve_chi_star(tiny)
    assert np.all(eta(chis) <= tiny)
    assert np.all(np.abs(chis - tiny) <= 1e-12 * tiny)
    for epsilon, chi in zip(tiny, chis):
        assert solve_chi_star(float(epsilon)) == chi


def test_chi_star_stays_feasible_across_budgets():
    eps = np.geomspace(1e-300, 0.9, 5000)
    chis = solve_chi_star(eps)
    assert np.all(eta(chis) <= eps)
    assert np.all(chis[1:] >= chis[:-1])


def test_kl_divergence_frozen_value():
    # Independent panel-quadrature evaluation, cross-checked previously
    # against dense trapezoid mixing; frozen here to pin regressions.
    val = kl_divergence(1e-3, 1.0, 10.0)
    assert abs(val - 8.927644942425152e-07) < 1e-12


_BAND_LAWS = [
    (0.0, 20.0, 7.5, "0.0", "0.0"),
    (5e-07, 0.5, 1.0, "5.126219090789496e-14", "1.2949534663816266e-07"),
    (32.0, 32000.0, 90.0, "0.0006352188236201816", "0.0009928465682145279"),
    (3200.0, 32000.0, 7.5, "0.057292158409894545", "0.07409850750960167"),
    (158.0, 316.0, 90.0, "0.30363100218588845", "0.24865247907551022"),
    (18.0, 20.0, 500.0, "0.5229428465108921", "0.3482923646459852"),
]


# The ids name the band alone, so a re-pin of kl or tv keeps them.
@pytest.mark.parametrize("p, q, n, kl, tv", _BAND_LAWS, ids=[
    f"{p!r}-{q!r}-{n!r}" for p, q, n, _, _ in _BAND_LAWS])
def test_band_law_values_are_frozen(p, q, n, kl, tv):
    # KL reduces the shared band law, TV the same law on a rule split at
    # the crossover; their bits are pinned by repr.
    assert repr(kl_divergence(p, q, n)) == kl
    assert repr(tv_exact_n(p, q, n)) == tv


@pytest.mark.parametrize("p, q, n, match", [
    (-0.1, 1.0, 10.0, "requires"), (1.0, 1.0, 10.0, "requires"),
    (2.0, 1.0, 10.0, "requires"), (0.0, 0.0, 10.0, "q must"),
    (0.0, -1.0, 10.0, "q must"), (_NAN, 1.0, 10.0, "requires"),
    (_INF, 1.0, 10.0, "requires"), (0.5, _NAN, 10.0, "q must"),
    (0.0, _NAN, 10.0, "q must"), (0.5, _INF, 10.0, "q must"),
    (0.5, 1.0, _NAN, "n must"), (0.5, 1.0, _INF, "n must"),
    (0.5, 1.0, 0.5, "n must"), (0.0, 1.0, 0.5, "n must"),
])
def test_band_law_rejects_bad_bands(p, q, n, match, monkeypatch):
    # q and n are checked as the H0 law's, then p against q, all before
    # any H0 rule is built or ln Phi evaluated.
    def no_work(*args):
        raise AssertionError("a bad band reached ln Phi or the H0 rule")

    monkeypatch.setattr(covertness, "h0_energy_rule", no_work)
    monkeypatch.setattr(covertness, "log_phi_exact", no_work)
    for fn in (kl_divergence, tv_exact_n):
        with pytest.raises(ValueError, match=match):
            fn(p, q, n)
    with pytest.raises(ValueError, match=match):
        log_psi(p, q, [1.0], n)


@pytest.mark.parametrize("p, q, n", [(158.0, 316.0, 90.0),
                                     (3200.0, 32000.0, 7.5)])
def test_tv_exact_n_matches_a_rule_split_at_the_crossover(p, q, n):
    # Reference: 1200 geometric panels of 32-point Gauss-Legendre over the
    # H0 window, 600 on each side of the crossover z* (ln Psi = 0, by
    # brentq), so |Psi - 1| is smooth on every panel.
    from numpy.polynomial.legendre import leggauss
    from scipy.optimize import brentq
    from scipy.special import gammainccinv

    z_lo = gammainccinv(n, 1.0 - 1e-15)
    z_hi = (1.0 + 200.0 * q) * gammainccinv(n, 1e-18)
    z_star = brentq(lambda z: float(log_psi(p, q, [z], n)[0]), z_lo, z_hi,
                    xtol=1e-300, rtol=1e-15)
    edges = np.concatenate([np.geomspace(z_lo, z_star, 601),
                            np.geomspace(z_star, z_hi, 601)[1:]])
    x, w = leggauss(32)
    half = 0.5 * np.diff(edges)
    z = (edges[:-1, None] + half[:, None] * (1.0 + x)).ravel()
    w = (half[:, None] * w).ravel()
    log_phi_p, log_phi_q = log_phi_exact(p, z, n), log_phi_exact(q, z, n)
    density = w * np.exp((n - 1.0) * np.log(z) - math.lgamma(n) + log_phi_q)
    assert abs(density.sum() - 1.0) < 1e-12
    want = 0.5 * float(np.dot(density, np.abs(
        p / (q - p) * np.expm1(log_phi_p - log_phi_q))))
    assert abs(tv_exact_n(p, q, n) - want) <= 1e-10 * want


def test_kl_divergence_increases_with_signal():
    lo = kl_divergence(1e-3, 5.0, 50.0)
    hi = kl_divergence(5e-3, 5.0, 50.0)
    assert 0.0 < lo < hi


def test_zeta_two_route_agreement():
    """Variance z-form (used for q <= 50) vs the direct Gamma-rule form.

    The test recomputes the direct single integral
    E_{s~Gamma(n)}[e^{-s}/Phi(q, s, n)] - 1 from scratch, so the two
    values travel genuinely different code paths.
    """
    for q in (5.0, 30.0, 50.0):
        for n in (10.0, 90.0):
            routed = zeta(q, n)
            s, w = gamma_rule(n, 192)
            direct = float(np.dot(w, np.exp(-s - log_phi_exact(q, s, n)))) - 1.0
            assert abs(routed - direct) <= 1e-8 * max(1.0, abs(direct)), \
                (q, n, routed, direct)


def test_zeta_h0_rule_route_equals_the_gamma_rule_route(monkeypatch):
    # The same zeta(q, n) by the H0 energy rule (q <= the switch) and by
    # the direct Gamma(n)-rule integral, each on a cold cache.
    pairs = [(q, n) for q in (2.0, 20.0, 50.0) for n in (10.0, 90.0, 500.0)]
    monkeypatch.setattr(covertness, "_ZETA_CACHE", {})
    h0_route = covertness.zeta_pairs(pairs)
    monkeypatch.setattr(covertness, "_ZETA_CACHE", {})
    monkeypatch.setattr(covertness, "_ZETA_DIRECT_SWITCH", 1.0)
    direct = covertness.zeta_pairs(pairs)
    assert np.all(np.abs(h0_route - direct) <= 1e-12 * direct), \
        np.abs(h0_route / direct - 1.0).max()


def test_zeta_default_route_consistent_across_switch():
    # The routing threshold at q = 50 must not create a jump.
    lo = zeta(49.999, 20.0)
    hi = zeta(50.001, 20.0)
    assert abs(lo - hi) < 1e-4 * lo


def test_zeta_frozen_scenario_value():
    val = zeta(316.22776601683796, 100.0)
    assert abs(val / 2601.0947666134794 - 1.0) < 1e-10


def test_zeta_vanishes_quadratically_for_small_q():
    r = zeta(1e-3, 10.0) / zeta(2e-3, 10.0)
    assert abs(r - 0.25) < 0.01


def test_zeta_validates_inputs():
    for q in (-1.0, 0.0, _NAN, _INF):
        with pytest.raises(ValueError, match="q must"):
            zeta(q, 10.0)
    for n in (0.5, _NAN, _INF):
        with pytest.raises(ValueError, match="n must"):
            zeta(1.0, n)


def test_kl_quadratic_coefficient_is_zeta():
    # D(p) ~ zeta * p^2 / (2 q^2) for p << q; at p = 1e-3 the ratio is
    # within a percent of 1 across scales.
    for q, n in ((1.0, 10.0), (5.0, 50.0), (10.0, 90.0)):
        p = 1e-3
        ratio = kl_divergence(p, q, n) / (zeta(q, n) * p * p / (2.0 * q * q))
        assert 0.98 < ratio <= 1.0, (q, n, ratio)


def test_finite_sample_tv_approaches_limit():
    q = 316.22776601683796
    p = 0.9 * q
    vals = [tv_exact_n(p, q, n) for n in (20.0, 100.0, 500.0)]
    assert vals[0] < vals[1] < vals[2] < eta(0.9)
    assert abs(vals[2] - 0.34832770308286876) < 1e-9
    assert abs(vals[2] - eta(0.9)) < 1e-3


def test_log_psi_centering():
    # E_{H0}[Psi] = 1: the likelihood ratio integrates to one under the
    # null, a direct functional check of log_psi against the H0 rule.
    from covertjam.quadrature import h0_energy_rule
    q, n = 20.0, 15.0
    rule = h0_energy_rule(q, n)
    psi = np.exp(log_psi(0.3 * q, q, rule.z, n))
    assert abs(rule.expectation(psi) - 1.0) < 1e-7


def test_pinsker_budget_formula():
    assert abs(pinsker_budget([0.02, 0.06], 1) - math.sqrt(0.04)) < 1e-15
    assert abs(pinsker_budget([0.02], 4) - math.sqrt(0.04)) < 1e-15
    for kls in ([-0.1], [0.1, _NAN]):
        with pytest.raises(ValueError, match="nonnegative"):
            pinsker_budget(kls, 1)


def test_limit_density_closed_forms_match_mpmath_quadrature():
    # Independent oracle: 30-digit quadrature of the defining integrals in
    # the scale-free variable t, reference density e^-t, transmission
    # density (e^-t - e^-(t/chi)) / (1 - chi).
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    assert limit_kl(0.0) == 0.0
    assert band_affinity(0.0) == 1.0
    # The last two reach the large-x branches: digamma's asymptotic series
    # at 1/(1 - chi) up to 1e9 and the affinity's ln Gamma ratio there.
    for chi in np.append(np.geomspace(1e-12, 0.9999, 19),
                         [1.0 - 1e-6, 1.0 - 1e-9]):
        c = mpmath.mpf(float(chi))
        rate = (1 - c) / c
        breaks = [0, c, 1, 10, mpmath.inf]
        kl = mpmath.quad(lambda t: mpmath.exp(-t) * (
            mpmath.log(1 - c) - mpmath.log(-mpmath.expm1(-rate * t))), breaks)
        rho = mpmath.quad(lambda t: mpmath.exp(-t) * mpmath.sqrt(
            -mpmath.expm1(-rate * t) / (1 - c)), breaks)
        assert abs(limit_kl(float(chi)) - float(kl)) <= 1e-10 * float(kl)
        assert abs(band_affinity(float(chi)) - float(rho)) <= \
            1e-10 * float(rho)


def test_single_band_tv_speed():
    start = time.perf_counter()
    for chi in np.arange(0.1, 0.95, 0.1):
        tv_numeric_k1(chi)
    assert time.perf_counter() - start < 1.0
