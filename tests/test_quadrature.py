"""Quadrature building blocks: ln Phi, Gamma rules, the H0 energy rule."""

import math

import numpy as np
import pytest
from scipy.special import gammaincinv, gammaln

from covertjam.quadrature import (
    H0EnergyRule,
    gamma_rule,
    h0_energy_rule,
    log_phi_exact,
)
from covertjam.scenario import gamma_constant


def test_gamma_rule_matches_gamma_moments():
    # Exact moments of Gamma(n, 1): E[1] = 1, E[s] = n, E[s^2] = n(n+1),
    # and the Laplace transform E[e^-s] = 2^-n.
    for n in (1.0, 10.0, 90.0, 300.0, 500.0):
        s, w = gamma_rule(n)
        assert abs(w.sum() - 1.0) < 1e-13
        assert abs(np.dot(w, s) / n - 1.0) < 1e-12
        assert abs(np.dot(w, s * s) / (n * (n + 1.0)) - 1.0) < 1e-12
    # The Laplace transform concentrates at s = n/2, ever deeper in the
    # left tail of the node span as n grows; it certifies the rule only
    # at the orders where that region still carries resolvable weight.
    for n in (1.0, 10.0, 90.0):
        s, w = gamma_rule(n)
        assert abs(np.dot(w, np.exp(-s)) / 2.0 ** (-n) - 1.0) < 1e-10


def test_gamma_rule_rejects_bad_shape():
    with pytest.raises(ValueError):
        gamma_rule(0.5)


def test_phi_small_q_limit():
    # As q -> 0 the jamming mixture collapses and Phi(q, z, n) -> e^-z.
    z = np.array([0.5, 1.0, 5.0, 20.0])
    vals = np.exp(log_phi_exact(1e-9, z, 4.0))
    assert np.allclose(vals, np.exp(-z), rtol=1e-6)


def test_phi_monotone_decreasing_in_z():
    z = np.linspace(0.1, 400.0, 200)
    lp = log_phi_exact(50.0, z, 10.0)
    assert np.all(np.diff(lp) < 0.0)


def _mpmath_log_phi(mpmath, x, z, n):
    """ln Phi at 20 digits, integrated in y = ln(1 + xv) on finite panels.

    The log-integrand is concave in y, so panels at the peak +- k curvature
    widths (k up to 60) hold all of the mass; the returned drops certify
    that the truncated tails are negligible.
    """
    mp = mpmath.mp
    x, z, b = mp.mpf(x), mp.mpf(z), mp.mpf(n) - 1

    def expo(y):
        return -b * y - z * mp.exp(-y) - mp.expm1(y) / x

    u = 2 * z / (b + mp.sqrt(b * b + 4 * z / x))
    y0 = mp.log(max(u, mp.mpf(1)))
    width = 1 / mp.sqrt(z * mp.exp(-y0) + mp.exp(y0) / x)
    ks = (0, 1, 3, 10, 30, 60)
    pts = sorted({max(y0 - k * width, mp.mpf(0)) for k in ks}
                 | {y0 + k * width for k in ks})
    peak = expo(y0)
    drops = [expo(pts[-1]) - peak] + ([expo(pts[0]) - peak] if pts[0] > 0
                                      else [])
    val = peak + mp.log(mp.quad(lambda y: mp.exp(expo(y) - peak), pts))
    return float(val - mp.log(x)), max(float(d) for d in drops)


def test_log_phi_exact_matches_mpmath_oracle():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 20
    # z across the H0 bulk: Gamma(n) and Exp(1) quantiles of z = s (1 + xv);
    # the first case is where a Gauss-Laguerre ln Phi erred by 3.9e-8.
    cases = [(10.0, 13.515383037929151, 1.0)]
    for x, n in ((1e-3, 1.0), (1e-3, 500.0), (0.1, 10.0), (1.0, 1.0),
                 (1.0, 100.0), (10.0, 1.0), (10.0, 30.0), (50.0, 5.0),
                 (50.0, 500.0), (1e-8, 1.0), (1e-8, 5000.0), (1e-6, 1.0),
                 (1e-6, 5000.0), (1e4, 1.0), (1e4, 5000.0), (1e9, 1.0),
                 (1e9, 5000.0)):
        for s_prob, v_prob in ((0.05, 0.05), (0.5, 0.5), (0.95, 0.99)):
            s = float(gammaincinv(n, s_prob))
            cases.append((x, s * (1.0 - x * math.log1p(-v_prob)), n))
    for x, z, n in cases:
        ref, drop = _mpmath_log_phi(mpmath, x, z, n)
        assert drop < -200.0, (x, z, n, drop)
        got = float(log_phi_exact(x, np.array([z]), n)[0])
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (x, z, n, got, ref)
    # H0 certificates on the same footing: sum(w) and E[e^{-z}/Phi] are 1
    # exactly, so their deviation measures the whole rule's accuracy.
    for q in (0.1, 0.5, 1.0, 5.0, 10.0, 50.0):
        for n in (1.0, 10.0, 30.0, 100.0, 300.0):
            rule = h0_energy_rule(q, n)
            unit = rule.expectation(np.exp(-rule.z - rule.log_phi_q))
            assert abs(rule.mass - 1.0) < 1e-12, (q, n, rule.mass)
            assert abs(unit - 1.0) < 1e-12, (q, n, unit)


def test_log_phi_exact_brute_force_oracle():
    """Compare against direct high-resolution trapezoid mixing over v."""
    # The integrand peaks within v < 1 for every case below, so spend the
    # grid there; the [2, 60] tail only mops up residual mass.
    head = np.linspace(0.0, 2.0, 2000001)
    tail = np.linspace(2.0, 60.0, 200001)
    for q, z, n in ((5.0, 30.0, 10.0), (50.0, 120.0, 90.0), (316.0, 7.0, 3.0)):
        def chunk(v):
            return np.trapezoid(
                np.exp(-v - n * np.log1p(q * v) - z / (1.0 + q * v)), v)
        oracle = math.log(chunk(head) + chunk(tail))
        val = float(log_phi_exact(q, np.array([z]), n)[0])
        assert abs(val - oracle) < 1e-6, (q, z, n, val, oracle)


def test_h0_energy_rule_mass_certificate():
    for q in (0.1, 1.0, 10.0, 50.0, 316.22776601683796):
        for n in (1.0, 10.0, 100.0, 500.0):
            rule = h0_energy_rule(q, n)
            assert isinstance(rule, H0EnergyRule)
            assert abs(rule.mass - 1.0) < 1e-8


def test_h0_energy_rule_matches_known_moments():
    # z | v ~ Gamma(n, 1 + qv)/n normalization: here z is the plain sum, so
    # E[z] = n (1 + q) and E[e^{-z}/Phi(q, z)] = 1 identically.
    for q, n in ((0.5, 3.0), (10.0, 25.0), (200.0, 100.0)):
        rule = h0_energy_rule(q, n)
        mean = rule.expectation(rule.z)
        assert abs(mean / (n * (1.0 + q)) - 1.0) < 1e-8
        unit = rule.expectation(np.exp(-rule.z - rule.log_phi_q))
        assert abs(unit - 1.0) < 1e-8


def test_h0_expectation_callable_form():
    rule = h0_energy_rule(5.0, 10.0)
    assert abs(rule.expectation(np.ones_like(rule.z)) - 1.0) < 1e-8


def test_gamma_constant_matches_direct_ratio():
    for m in (1, 2, 20, 200):
        direct = math.exp(2.0 * (gammaln(m + 0.5) - gammaln(m)))
        assert abs(gamma_constant(m) - direct) < 1e-12 * direct
    # G + E = M split used by the beamforming model.
    assert abs(gamma_constant(1) - math.pi / 4.0) < 1e-12
