"""Covertness metrics: eta bound, numeric TV, KL divergence, zeta coefficient."""

import math
import time

import numpy as np
import pytest

from covertjam.covertness import (
    band_affinity,
    eta,
    kl_divergence,
    limit_kl,
    log_psi,
    pinsker_budget,
    solve_chi_star,
    tv_exact_n,
    tv_numeric_k1,
    tv_numeric_product,
    tv_upper_bound,
    zeta,
)
from covertjam.quadrature import gamma_rule, log_phi_exact


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


def test_product_tv_needs_a_band():
    with pytest.raises(ValueError, match="at least one band"):
        tv_numeric_product([], samples=1000)


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


def test_kl_divergence_frozen_value():
    # Independent panel-quadrature evaluation, cross-checked previously
    # against dense trapezoid mixing; frozen here to pin regressions.
    val = kl_divergence(1e-3, 1.0, 10.0)
    assert abs(val - 8.927644942425152e-07) < 1e-12


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
    with pytest.raises(ValueError):
        zeta(-1.0, 10.0)
    with pytest.raises(ValueError):
        zeta(1.0, 0.5)


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
    assert abs(vals[2] - 0.34826000803356183) < 1e-9
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
    with pytest.raises(ValueError):
        pinsker_budget([-0.1], 1)


def test_limit_density_closed_forms_match_mpmath_quadrature():
    # Independent oracle: 30-digit quadrature of the defining integrals in
    # the scale-free variable t, reference density e^-t, transmission
    # density (e^-t - e^-(t/chi)) / (1 - chi).
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    assert limit_kl(0.0) == 0.0
    assert band_affinity(0.0) == 1.0
    for chi in np.geomspace(1e-12, 0.9999, 19):
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
