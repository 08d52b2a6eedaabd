"""Quadrature building blocks: Laguerre rules, Gamma rules, the H0 energy rule."""

import math

import numpy as np
import pytest
from scipy.special import gammaln

from covertjam.quadrature import (
    H0EnergyRule,
    QuadratureRule,
    gamma_rule,
    h0_energy_rule,
    log_phi,
    log_phi_exact,
    phi,
)
from covertjam.scenario import gamma_constant


def test_laguerre_weights_sum_to_one():
    rule = QuadratureRule.gauss_laguerre(128)
    assert abs(rule.weights.sum() - 1.0) < 1e-12
    assert rule.half().n_quad == 64


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
    vals = phi(1e-9, z, 4.0)
    assert np.allclose(vals, np.exp(-z), rtol=1e-6)


def test_phi_monotone_decreasing_in_z():
    z = np.linspace(0.1, 400.0, 200)
    lp = log_phi_exact(50.0, z, 10.0)
    assert np.all(np.diff(lp) < 0.0)


def test_log_phi_exact_agrees_with_laguerre_when_safe():
    # For moderate q the plain Laguerre mixture is accurate; the certified
    # panel evaluator must agree with it.
    z = np.geomspace(0.5, 200.0, 40)
    for q in (0.1, 0.5, 1.0):
        a = log_phi_exact(q, z, 8.0)
        b = log_phi(q, z, 8.0)
        assert np.max(np.abs(a - b)) < 1e-9


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
