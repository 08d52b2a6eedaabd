"""Quadrature building blocks: ln Phi, Gamma rules, the H0 energy rule."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.linalg import eigvalsh_tridiagonal, solve_banded
from scipy.special import (gammainc, gammaincc, gammainccinv,
                           gammaincinv, gammaln)

import covertjam
from covertjam import quadrature
from covertjam.quadrature import (
    _KERNEL_POINTS,
    _PANEL_POINTS,
    _SPLINE_KNOTS,
    _SPLINE_Z_LO,
    H0EnergyRule,
    LogPhiSpline,
    _gamma_tail_bounds,
    _not_a_knot_coeffs,
    _spline_knots,
    _tridiagonal_solve,
    gamma_rules,
    h0_energy_rule,
    log_phi_exact,
)
from covertjam.scenario import gamma_constant


def test_gamma_rule_matches_gamma_moments():
    # Exact moments of Gamma(n, 1): E[1] = 1, E[s] = n, E[s^2] = n(n+1),
    # and the Laplace transform E[e^-s] = 2^-n.
    for n in (1.0, 10.0, 90.0, 300.0, 500.0):
        s, w = gamma_rules([n])[0]
        assert abs(w.sum() - 1.0) < 1e-13
        assert abs(np.dot(w, s) / n - 1.0) < 1e-12
        assert abs(np.dot(w, s * s) / (n * (n + 1.0)) - 1.0) < 1e-12
    # The Laplace transform concentrates at s = n/2, ever deeper in the
    # left tail of the node span as n grows; it certifies the rule only
    # at the orders where that region still carries resolvable weight.
    for n in (1.0, 10.0, 90.0):
        s, w = gamma_rules([n])[0]
        assert abs(np.dot(w, np.exp(-s)) / 2.0 ** (-n) - 1.0) < 1e-10


def test_gamma_rule_rejects_bad_shape():
    with pytest.raises(ValueError):
        gamma_rules([0.5])
    # NaN and inf pass an `n < 1` check and once failed inside SciPy.
    for n in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="n must be finite and >= 1"):
            gamma_rules([n], 8)
    # A fractional order once built a rule of its ceiling's size, and
    # orders below 1 failed inside SciPy.
    for order in (2.5, 3.0, 0, -3):
        with pytest.raises(ValueError, match="order must be an integer >= 1"):
            gamma_rules([5.0], order)


def _laguerre_oracle(n, order, start):
    """Gauss-Laguerre nodes and weights for Gamma(n, 1) at 40 digits.

    The nodes are roots of L_order^(alpha), alpha = n - 1, polished by
    Newton from `start` with L_N' = -L_{N-1}^(alpha+1); the weights are
    the closed form Gamma(N+alpha+1) x / (N! (N+1)^2 Gamma(alpha+1)
    L_{N+1}^(alpha)(x)^2) of the normalized measure.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        alpha = mpmath.mpf(n) - 1
        scale = mpmath.gamma(order + alpha + 1) / (
            mpmath.factorial(order) * (order + 1) ** 2
            * mpmath.gamma(alpha + 1))
        nodes, weights = [], []
        for x0 in start:
            x = mpmath.mpf(float(x0))
            for _ in range(3):
                x += (mpmath.laguerre(order, alpha, x)
                      / mpmath.laguerre(order - 1, alpha + 1, x))
            nodes.append(x)
            weights.append(scale * x / mpmath.laguerre(order + 1, alpha, x) ** 2)
        return nodes, weights


@pytest.mark.parametrize("n", [1.0, 7.5, 90.0])
def test_gamma_rule_matches_laguerre_oracle(n):
    s, w = gamma_rules([n], 32)[0]
    nodes, weights = _laguerre_oracle(n, 32, s)
    for x, x_ref, v, v_ref in zip(s, nodes, w, weights):
        assert abs(x / float(x_ref) - 1.0) < 1e-13, (n, x, x_ref)
        assert abs(v / float(v_ref) - 1.0) < 1e-12, (n, v, v_ref)


@pytest.mark.parametrize("order", [192, 256])
@pytest.mark.parametrize("n", [1.0, 1.5, 7.5, 10.0])
def test_gamma_rule_high_order_does_not_overflow(n, order):
    # The plain recurrence's p_k overflow at these orders; warnings are
    # errors under this suite's settings. At order 256 the farthest tail
    # weights lie below the smallest double and are 0.
    s, w = gamma_rules([n], order)[0]
    assert np.all(np.isfinite(w)) and np.all(w >= 0.0)
    assert np.all(w[:order // 2] > 0.0)
    assert abs(w.sum() - 1.0) < 1e-13
    assert abs(np.dot(w, s) / n - 1.0) < 1e-12
    assert abs(np.dot(w, s * s) / (n * (n + 1.0)) - 1.0) < 1e-12


def test_gamma_rule_bits_do_not_depend_on_batch_or_cache(monkeypatch):
    ns = np.arange(1.0, 100.0)
    monkeypatch.setattr(quadrature, "_GAMMA_RULES", {})
    batch = gamma_rules(ns)
    for n, (s, w) in zip(ns, batch):
        monkeypatch.setattr(quadrature, "_GAMMA_RULES", {})
        s1, w1 = gamma_rules([n])[0]
        assert np.array_equal(s, s1) and np.array_equal(w, w1), n


def test_gamma_rule_nodes_are_sterf_bits(monkeypatch):
    # The dense eigvalsh (LAPACK syevd) leaves a tridiagonal matrix as it
    # is and runs sterf, so the nodes are those of SciPy's
    # eigvalsh_tridiagonal(..., "sterf"), bit for bit: every n = 1..100 in
    # one batch, then a geometric sweep to 5000 and a low order.
    ns = np.concatenate([np.arange(1.0, 101.0),
                         np.geomspace(1.0, 5000.0, 60)])
    for order, batch in ((128, ns[:100]), (128, ns[100:]), (9, ns[::7])):
        monkeypatch.setattr(quadrature, "_GAMMA_RULES", {})
        k = np.arange(order, dtype=float)
        for n, (s, _) in zip(batch, gamma_rules(batch, order)):
            d = 2.0 * k + n
            e = np.sqrt(k[1:] * (k[1:] + (n - 1.0)))
            want = eigvalsh_tridiagonal(d, e, lapack_driver="sterf")
            assert s.tobytes() == want.tobytes(), (n, order)


def _slope_system(t):
    """The not-a-knot slope system's diagonals on knots t, as
    `_not_a_knot_coeffs` builds them, in `solve_banded`'s (3, m) form."""
    dt = np.diff(t)
    ab = np.zeros((3, t.size))
    ab[1, 1:-1] = 2 * (dt[:-1] + dt[1:])
    ab[0, 2:] = dt[:-1]
    ab[-1, :-2] = dt[1:]
    ab[1, 0], ab[0, 1] = dt[1], t[2] - t[0]
    ab[1, -1], ab[-1, -2] = dt[-2], t[-1] - t[-3]
    return ab


def _dgtsv_port(ab, rhs):
    return np.array(_tridiagonal_solve(ab[2, :-1], ab[1], ab[0, 1:], rhs))


@pytest.mark.parametrize("knots", [_SPLINE_KNOTS, 4 * _SPLINE_KNOTS])
def test_tridiagonal_solve_is_dgtsv_bits_on_spline_systems(knots):
    # The slope systems of the detection tables on both grid sizes,
    # trimmed and untrimmed, then random grids with z_max up to 1e12, half
    # of them trimmed. None needs a row interchange, so each solve has
    # dgtsv's bits; on the first three, so do the coefficients of ln Phi
    # data against CubicSpline.
    rng = np.random.default_rng(24)
    lo = math.log(_SPLINE_Z_LO)
    grids = [(2.9e3, 3.0), (1e9, _SPLINE_Z_LO), (5e5, 40.0)]
    for trimmed in (False, True) * 6:
        log_z_max = rng.uniform(lo, math.log(1e12))
        z_min = math.exp(rng.uniform(lo, log_z_max)) if trimmed \
            else _SPLINE_Z_LO
        grids.append((math.exp(log_z_max), z_min))
    for k, (z_max, z_min) in enumerate(grids):
        t = _spline_knots(z_max, z_min, knots)
        ab = _slope_system(t)
        rhs = rng.standard_normal(t.size) * np.exp(rng.uniform(-5, 5, t.size))
        want = solve_banded((1, 1), ab, rhs)
        assert _dgtsv_port(ab, rhs).tobytes() == want.tobytes(), (z_max, z_min)
        if k < 3:
            y = log_phi_exact(0.3, np.exp(t), 90.0)
            assert np.array_equal(_not_a_knot_coeffs(t, y),
                                  CubicSpline(t, y).c)


def test_tridiagonal_solve_raises_where_dgtsv_would_interchange_rows():
    # Diagonally dominant systems (pivots above 3.6, off-diagonal entries
    # at most 1) keep their rows and have dgtsv's bits. A small diagonal
    # entry at row r leaves a pivot below 0.3 there, below the entry
    # of at least 0.5 under it, where dgtsv would interchange rows r and
    # r + 1: the solve raises naming row r. A zero pivot raises as
    # singular, at the last row too.
    rng = np.random.default_rng(25)
    for m in (2, 3, 4, 17, 200):
        for r in sorted({0, m // 2 - 1, m - 2}):
            ab = rng.uniform(0.5, 1.0, (3, m)) * rng.choice([-1.0, 1.0],
                                                            (3, m))
            ab[1] = 4.0
            rhs = rng.standard_normal(m)
            want = solve_banded((1, 1), ab, rhs)
            assert _dgtsv_port(ab, rhs).tobytes() == want.tobytes(), m
            ab[1, r] = 1e-3 * rng.standard_normal()
            with pytest.raises(ArithmeticError,
                               match=f"row interchange at row {r}$"):
                _dgtsv_port(ab, rhs)
    with pytest.raises(ArithmeticError, match="singular.* at row 0$"):
        _tridiagonal_solve(np.zeros(2), np.zeros(3), np.zeros(2), np.ones(3))
    with pytest.raises(ArithmeticError, match="singular.* at row 1$"):
        _tridiagonal_solve(np.ones(1), np.ones(2), np.ones(1), np.ones(2))


@pytest.mark.parametrize("p", [1e-18, 1e-15, 1e-12])
def test_gamma_tail_bounds_hold_and_stay_near_the_quantiles(p):
    # The window bounds of the H0 energy rule and the detection tables
    # against SciPy's incomplete gamma functions: each tail beyond them
    # holds at most p, and they stay within 0.6 and 1.35 of the exact
    # quantiles, so a gross loosening fails. n = 1 is where the power
    # bound x^n / Gamma(n + 1) of the left tail is tight to within p.
    rng = np.random.default_rng(26)
    ns = np.concatenate([np.arange(1.0, 201.0), np.geomspace(1.0, 1e4, 200),
                         np.exp(rng.uniform(0.0, math.log(1e4), 200))])
    for n in ns:
        lo, hi = _gamma_tail_bounds(float(n), p)
        assert gammainc(n, lo) <= p and gammaincc(n, hi) <= p, (n, p, lo, hi)
        assert lo >= 0.6 * gammaincinv(n, p), (n, p, lo)
        assert hi <= 1.35 * gammainccinv(n, p), (n, p, hi)


@pytest.mark.parametrize("p", [1e-18, 1e-15, 1e-12, 1.0 - 1e-15, 1.0 - 1e-12])
def test_gamma_isf_matches_gammainccinv(p):
    # The Gamma inverse survival function at p, read from SciPy's
    # gammainccinv, against the window bound on its side: p < 1/2 asks
    # for the right tail, which hi must cover by at most 1.35x; p near 1
    # for the left tail at 1 - p, which lo must stay under by at most
    # 0.6x. 1 - p is exact in floating point there.
    rng = np.random.default_rng(26)
    ns = np.concatenate([np.arange(1.0, 201.0), np.geomspace(1.0, 1e4, 200),
                         np.exp(rng.uniform(0.0, math.log(1e4), 200))])
    for n in ns:
        x = float(gammainccinv(n, p))
        if p < 0.5:
            hi = _gamma_tail_bounds(float(n), p)[1]
            assert x <= hi <= 1.35 * x, (n, p, x, hi)
        else:
            lo = _gamma_tail_bounds(float(n), 1.0 - p)[0]
            assert 0.6 * x <= lo <= x, (n, p, x, lo)


def test_gamma_tail_bounds_validate():
    for n, p in ((0.5, 0.1), (math.nan, 0.1), (math.inf, 0.1), (2.0, 0.0),
                 (2.0, 1.0), (2.0, math.nan)):
        with pytest.raises(ValueError):
            _gamma_tail_bounds(n, p)


def test_phi_small_q_limit():
    # As q -> 0 the jamming mixture collapses and Phi(q, z, n) -> e^-z.
    z = np.array([0.5, 1.0, 5.0, 20.0])
    vals = np.exp(log_phi_exact(1e-9, z, 4.0))
    assert np.allclose(vals, np.exp(-z), rtol=1e-6)


def test_phi_monotone_decreasing_in_z():
    z = np.linspace(0.1, 400.0, 200)
    lp = log_phi_exact(50.0, z, 10.0)
    assert np.all(np.diff(lp) < 0.0)


def _mpmath_log_phi(mpmath, x, z, n, dps=20):
    """ln Phi at `dps` digits, integrated in y = ln(1 + xv) on finite panels.

    The log-integrand is concave in y, so panels at the peak +- k curvature
    widths (k up to 60) hold all of the mass; the returned drops certify
    that the truncated tails are negligible.
    """
    with mpmath.workdps(dps):
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
    # z across the H0 bulk: Gamma(n) and Exp(1) quantiles of z = s (1 + xv);
    # the first case is where a Gauss-Laguerre ln Phi erred by 3.9e-8. The
    # oracle runs at 40 digits: at 20 it is itself off by 1.5e-12 relative
    # at the flat-cliff point (5.12e8, 7.9e-5, 1.034).
    cases = [(10.0, 13.515383037929151, 1.0)]
    # The band (p, q, N_d) = (15810, 31620, 3000) fails its ln Psi table
    # certificate, but not through ln Phi, which is exact here to about an
    # ulp: Psi ~ 2e-7 is formed as 2 - e^D, D = ln Phi_p - ln Phi_q ~ ln 2,
    # so one ulp of ln Phi ~ -2700 is about 4.5e-6 relative in Psi.
    cases += [(x, float(z), 3000.0) for x in (15810.0, 31620.0)
              for z in np.linspace(2600.0, 2800.0, 9)]
    for x, n in ((1e-3, 1.0), (1e-3, 500.0), (0.1, 10.0), (1.0, 1.0),
                 (1.0, 100.0), (10.0, 1.0), (10.0, 30.0), (50.0, 5.0),
                 (50.0, 500.0), (1e-8, 1.0), (1e-8, 5000.0), (1e-6, 1.0),
                 (1e-6, 5000.0), (1e4, 1.0), (1e4, 5000.0), (1e9, 1.0),
                 (1e9, 5000.0)):
        for s_prob, v_prob in ((0.05, 0.05), (0.5, 0.5), (0.95, 0.99)):
            s = float(gammaincinv(n, s_prob))
            cases.append((x, s * (1.0 - x * math.log1p(-v_prob)), n))
    for x, z, n in cases:
        ref, drop = _mpmath_log_phi(mpmath, x, z, n, dps=40)
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


@pytest.mark.xfail(strict=True, reason=(
    "FOUND in CHANGES.md: log_phi_exact loses accuracy where the integrand "
    "is flat with a far cliff (x above about 1e6, n near 1, small z)"))
@pytest.mark.parametrize("x, z, n", [(2.43e7, 0.0718, 1.154),
                                     (5.12e8, 7.9e-5, 1.034)])
def test_log_phi_exact_matches_mpmath_on_a_flat_integrand_with_a_far_cliff(
        x, z, n):
    # Off by 2.7e-10 and 5.0e-9 relative today. The oracle needs 40 digits
    # here: at 20 or 30 it is itself off by 1.5e-12 at the second point.
    mpmath = pytest.importorskip("mpmath")
    ref, drop = _mpmath_log_phi(mpmath, x, z, n, dps=40)
    assert drop < -200.0, (x, z, n, drop)
    got = float(log_phi_exact(x, np.array([z]), n)[0])
    assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (x, z, n, got, ref)


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


@pytest.mark.parametrize("q, n, match", [
    (0.0, 10.0, "q must"), (np.nan, 10.0, "q must"), (np.inf, 10.0, "q must"),
    (1.0, 0.5, "n must"), (1.0, np.nan, "n must"), (1.0, np.inf, "n must"),
])
def test_h0_energy_rule_rejects_bad_bands(q, n, match):
    with pytest.raises(ValueError, match=match):
        h0_energy_rule(q, n)


def test_h0_expectation_callable_form():
    rule = h0_energy_rule(5.0, 10.0)
    assert abs(rule.expectation(np.ones_like(rule.z)) - 1.0) < 1e-8


def test_gamma_constant_matches_direct_ratio():
    for m in (1, 2, 20, 200):
        direct = math.exp(2.0 * (gammaln(m + 0.5) - gammaln(m)))
        assert abs(gamma_constant(m) - direct) < 1e-12 * direct
    # G + E = M split used by the beamforming model.
    assert abs(gamma_constant(1) - math.pi / 4.0) < 1e-12


def test_log_phi_exact_is_independent_of_block_boundaries():
    # The panel tensor is integrated _PANEL_POINTS points at a time: 40,000
    # points span many blocks, and every slicing of them, whatever its
    # sizes, gives the same bits.
    assert _PANEL_POINTS == 136
    rng = np.random.default_rng(9)
    for x, n in ((0.3, 90.0), (316.0, 500.0), (5.0, 1.0)):
        z = n * np.exp(rng.uniform(np.log(1e-6), np.log(1e3), 40000))
        whole = log_phi_exact(x, z, n)
        sizes = [1, 135, 136, 137, 272, 4000, 32768]
        cuts = np.cumsum(sizes + list(rng.integers(1, 300, 8)))
        parts = [log_phi_exact(x, part, n) for part in np.split(z, cuts)]
        assert np.array_equal(whole, np.concatenate(parts)), (x, n)


def test_log_phi_exact_per_point_calls_are_bit_identical_to_scalar_calls():
    # x, z and n broadcast point by point; one call over a set of points
    # gives each point the bits of its own scalar call, for sets smaller
    # and larger than one kernel block, with x = 0 and z = 0 mixed in.
    rng = np.random.default_rng(17)
    size = _KERNEL_POINTS + 50
    x = np.exp(rng.uniform(np.log(1e-8), np.log(1e9), size))
    x[rng.random(size) < 0.05] = 0.0
    n = np.exp(rng.uniform(0.0, np.log(5000.0), size))
    n[::7] = rng.integers(1, 200, n[::7].size)
    z = n * np.exp(rng.uniform(np.log(1e-8), np.log(1e4), size))
    z[rng.random(size) < 0.05] = 0.0
    single = np.array([log_phi_exact(*point)[0] for point in zip(x, z, n)])
    assert isinstance(log_phi_exact(x[0], z[0], n[0]), np.ndarray)
    for m in (1, 2, 137, _KERNEL_POINTS - 1, size):
        i = rng.permutation(size)[:m]
        assert np.array_equal(log_phi_exact(x[i], z[i], n[i]), single[i]), m
    # Broadcasting: a column of x against a row of z.
    grid = log_phi_exact(x[:5, None], z[None, :40], n[:5, None])
    assert grid.shape == (5, 40)
    assert np.array_equal(grid, np.array(
        [log_phi_exact(x[i], z[:40], n[i]) for i in range(5)]))


@pytest.mark.parametrize("x, z, n", [
    (np.nan, [1.0], 5.0), (np.inf, [1.0], 5.0), (-1.0, [1.0], 5.0),
    (3.0, [1.0], np.nan), (3.0, [1.0], np.inf), (3.0, [1.0], -np.inf),
    ([3.0, np.nan], [1.0, 2.0], 5.0), (3.0, [1.0, 2.0], [5.0, np.nan]),
    (3.0, [1.0, np.nan], 5.0), (3.0, [-1.0], 5.0), (3.0, [np.inf], 5.0),
    (3.0, [1.0], 0.5), (1e4, [0.0], 0.2), (3.0, [1.0, 2.0], [5.0, 0.9]),
])
def test_log_phi_exact_rejects_bad_points(x, z, n):
    with pytest.raises(ValueError):
        log_phi_exact(x, z, n)


def test_log_phi_exact_memory_is_flat_in_the_number_of_points():
    # The whole kernel runs a block of points at a time, so 40,000 points,
    # at one (x, n) or with mixed ones, need a few MiB, not the panel
    # breakpoints of every point at once.
    rng = np.random.default_rng(3)
    x = rng.choice([0.3, 3.0, 316.0], 40000)
    n = rng.choice([1.0, 7.0, 90.0], 40000)
    z = n * np.exp(rng.uniform(np.log(1e-6), np.log(1e3), 40000))
    for args in ((3.0, z, 90.0), (x, z, n)):
        tracemalloc.start()
        try:
            log_phi_exact(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak / 2**20


def test_log_phi_spline_is_bit_identical_to_cubic_spline():
    # LogPhiSpline evaluates CubicSpline's coefficients on its own; the
    # values must be CubicSpline.__call__'s on ln of the clamped z, bit for
    # bit, including next to every knot and at both ends.
    rng = np.random.default_rng(5)
    for x, n, z_max in ((0.3, 90.0, 2.9e3), (316.0, 500.0, 1e7),
                        (5.0, 1.0, 50.0)):
        spline = LogPhiSpline(x, n, z_max)
        t = np.linspace(np.log(_SPLINE_Z_LO), np.log(z_max), _SPLINE_KNOTS)
        reference = CubicSpline(t, log_phi_exact(x, np.exp(t), n))
        at_knots = np.exp(t)
        z = np.concatenate([
            np.exp(rng.uniform(np.log(1e-9), np.log(z_max), 20000)),
            at_knots,
            np.nextafter(at_knots, 0.0),
            np.nextafter(at_knots, np.inf)[:-1],
            [0.0, 1e-300, 1e-9, _SPLINE_Z_LO * 0.5, _SPLINE_Z_LO],
            [z_max, np.nextafter(z_max, 0.0), z_max * (1.0 + 5e-10)],
            np.exp(np.linspace(t[-2], t[-1], 257)),
        ])
        want = reference(np.log(np.clip(z, _SPLINE_Z_LO, z_max)))
        assert np.array_equal(spline(z), want), (x, n, z_max)
        assert spline(3.0) == reference(np.log(3.0))
        with pytest.raises(ValueError):
            spline(np.array([1.0, z_max * (1.0 + 2e-9)]))
        with pytest.raises(ValueError):
            spline(np.array([1.0, np.nan]))


@pytest.mark.parametrize("x, n, q", [
    (0.3, 20.0, 10.0),
    (5.0, 90.0, 316.0),
    (300.0, 500.0, 316.0),
    (0.5, 1.0, 3.0),  # z_lo ~ 1e-12 < _SPLINE_Z_LO: nothing is trimmed
])
def test_trimmed_spline_equals_the_full_grid_from_the_48th_interval(x, n, q):
    # A spline with a lower end keeps the full grid's knots from 48
    # intervals below ln z_min on; from the 48th interval, which holds
    # z_min, its coefficients and values are the full grid's bit for bit.
    z_min = gammainccinv(n, 1.0 - 1e-12)
    z_max = (1.0 + 120.0 * q) * gammainccinv(n, 1e-12)
    full = LogPhiSpline(x, n, z_max)
    trimmed = LogPhiSpline(x, n, z_max, z_min)
    first = full.knots.size - trimmed.knots.size
    assert np.array_equal(trimmed.knots, full.knots[first:])
    if first == 0:
        assert trimmed.z_min == 0.0
        assert np.array_equal(trimmed.coeffs, full.coeffs)
        assert np.array_equal(trimmed(np.array([0.0, z_min])),
                              full(np.array([0.0, z_min])))
        return
    assert first > 1000
    assert trimmed.knots[48] <= np.log(z_min) < trimmed.knots[49]
    assert np.array_equal(trimmed.coeffs[:, 48:], full.coeffs[:, first + 48:])
    rng = np.random.default_rng(8)
    z = np.concatenate([np.exp(rng.uniform(np.log(z_min), np.log(z_max),
                                           20000)),
                        np.exp(trimmed.knots[48:]), [z_min, z_max]])
    assert np.array_equal(trimmed(z), full(z))
    assert trimmed.max_abs_err <= 1e-6


def test_trimmed_spline_rejects_z_below_its_first_knot():
    # A trimmed spline refuses z below its first knot, as any spline
    # refuses z above z_max; an untrimmed one clamps to its flat left end.
    spline = LogPhiSpline(0.3, 90.0, 2.9e3, 40.0)
    assert 1e-6 < spline.z_min < 40.0
    spline(np.array([spline.z_min, 40.0, 2.9e3]))
    for z in (np.nextafter(spline.z_min, 0.0), 1.0, 0.0, np.nan):
        with pytest.raises(ValueError):
            spline(np.array([40.0, z]))
    untrimmed = LogPhiSpline(0.3, 90.0, 2.9e3)
    assert untrimmed(0.0) == untrimmed(_SPLINE_Z_LO)
    with pytest.raises(ValueError):
        untrimmed(np.array([1.0, -1.0]))


@pytest.mark.parametrize("chi, certifies", [(3e-5 / 316.0, False),
                                             (1e-4 / 316.0, True),
                                             (3e-4 / 316.0, True)],
                         ids=["p_3e-5", "p_1e-4", "p_3e-4"])
def test_spline_certificate_covers_the_bend_above_one_over_x(chi, certifies):
    # At small x, ln Phi(x, ., n) bends sharply just above z = 1/x, within
    # a few knot intervals. The certificate probes every interval there,
    # so a spline off by more than 1e-4 in the bend is refused, and a
    # certified one reports at least the error a dense scan finds there.
    q, n = 316.0, 90.0
    x = chi * q
    z_min = gammainccinv(n, 1.0 - 1e-12)
    z_max = (1.0 + 120.0 * q) * gammainccinv(n, 1e-12)
    if not certifies:
        with pytest.raises(ArithmeticError, match="certification failed"):
            LogPhiSpline(x, n, z_max, z_min)
        return
    spline = LogPhiSpline(x, n, z_max, z_min)
    z = np.linspace(0.8, 1.5, 2001) / x
    dense = np.max(np.abs(spline(z) - log_phi_exact(x, z, n)))
    assert dense <= spline.max_abs_err * (1.0 + 1e-3) <= 1e-4


def test_package_import_loads_no_spline_module():
    # The package imports no SciPy. LogPhiSpline fits its own not-a-knot
    # coefficients, so importing the package, building a spline and
    # running the Monte-Carlo adversary load none of SciPy's heavy
    # subpackages, scipy.interpolate among them.
    heavy = ("scipy.integrate", "scipy.interpolate", "scipy.optimize",
             "scipy.sparse")
    code = (
        "import sys, covertjam, covertjam.cli, covertjam.experiments\n"
        f"heavy = {heavy!r}\n"
        "def loaded(names):\n"
        "    return sorted(m for m in sys.modules if m.startswith(names))\n"
        "print(loaded(heavy))\n"
        "from covertjam.quadrature import LogPhiSpline\n"
        "LogPhiSpline(0.3, 90.0, 2.9e3)\n"
        "inst = covertjam.sample_scenario(covertjam.ScenarioConfig(K=2), 3)\n"
        "covertjam.simulate_detection(inst, [0.2, 0.4], N_d=20, L=2,"
        " trials=2000, seed=1)\n"
        "print(loaded('scipy.interpolate'))\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(covertjam.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.split("\n")[:2] == ["[]", "[]"]


def test_spline_coefficients_are_cubic_spline_bits_over_audit_range():
    # The in-house not-a-knot fit gives CubicSpline(t, y).c bit for bit
    # across the (x, n, z_max) the detection oracle can ask for. Where
    # the spline does not certify (tiny x with a far z_max), the fit
    # itself is still compared.
    rng = np.random.default_rng(20)
    built = 0
    for _ in range(40):
        x = math.exp(rng.uniform(math.log(1e-6), math.log(1e8)))
        n = float(rng.integers(1, 3163))
        z_max = math.exp(rng.uniform(0.0, math.log(1e9)))
        t = np.linspace(np.log(_SPLINE_Z_LO), np.log(z_max), _SPLINE_KNOTS)
        y = log_phi_exact(x, np.exp(t), n)
        want = CubicSpline(t, y).c
        assert np.array_equal(_not_a_knot_coeffs(t, y), want), (x, n, z_max)
        try:
            coeffs = LogPhiSpline(x, n, z_max).coeffs
        except ArithmeticError:
            continue
        built += 1
        assert np.array_equal(coeffs, want), (x, n, z_max)
    assert built >= 30
