"""The jamming-averaged energy integral Phi and the quadratures built on it.

Phi(x, z, n) = int_0^inf e^{-v} (1+xv)^{-n} e^{-z/(1+xv)} dv is the building
block of every adversary-side likelihood: it is the density kernel of the
normalized energy of n Gaussian samples whose variance is exponentially
mixed with spread x. Everything here works in ln Phi because the interesting
regimes underflow double precision by hundreds of orders.

ln Phi has one evaluator, `log_phi_exact`: a panel integrator in
y = ln(1+xv), where the log-integrand -(n-1)y - z e^{-y} - (e^y - 1)/x is
strictly concave, so the peak is unique, the tails are certified, and fixed
Gauss-Legendre panels between the two 60-nat drop-off points (Newton roots
from `covertjam.roots`) give near-machine accuracy. The one known gap is a
flat integrand with a far cliff (x above ~1e6 with n near 1 and small z),
off by up to ~5e-9 relative. A Gauss-Laguerre rule in v would miss the
integrand's spike at v ~ 1/(xn) for large x. `LogPhiSpline` tabulates it
for bulk use at fixed (x, n); `h0_energy_rule` integrates against the H0
energy law; `gamma_rule` integrates against Gamma(n, 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import eigh_tridiagonal
from scipy.special import gammainccinv, gammaln

from .roots import increasing_roots

# ln-drop from the peak at which the panel integrator truncates the tails;
# exp(-60) ~ 9e-27, far below every tolerance used downstream.
_DROP = 60.0
# Rounding floor, in nats, of the drop-point solves: their roots only place
# panels, so a few hundredths in y are plenty.
_DROP_FLOOR = 1e-3

_LEG_NODES, _LEG_WEIGHTS = leggauss(20)

# LogPhiSpline's lower z end and knot count.
_SPLINE_Z_LO = 1e-6
_SPLINE_KNOTS = 4000


@lru_cache(maxsize=512)
def gamma_rule(n: float, order: int = 128):
    """Nodes/weights for expectations against the Gamma(n, 1) density.

    Generalized Gauss-Laguerre built by Golub-Welsch on the known Jacobi
    recurrence (diagonal 2k + n, off-diagonal sqrt(k(k + n - 1))); weights
    are the squared first eigenvector components, which sum to exactly 1
    for the normalized measure. Unlike the scipy polynomial-root route this
    stays finite for large shapes (alpha = n - 1 of several hundred).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    alpha = n - 1.0
    k = np.arange(order, dtype=float)
    diag = 2.0 * k + alpha + 1.0
    off = np.sqrt(k[1:] * (k[1:] + alpha))
    nodes, vecs = eigh_tridiagonal(diag, off)
    weights = vecs[0, :] ** 2
    return nodes, weights / weights.sum()


def _phi_log_integrand(y, x, z_col, b):
    """Concave exponent of Phi's integrand in y = ln(1+xv); z_col broadcasts."""
    with np.errstate(over="ignore"):
        return -b * y - z_col * np.exp(-y) - np.expm1(y) / x


def log_phi_exact(x: float, z, n: float) -> np.ndarray:
    """ln Phi(x, z, n) by certified panel quadrature; vectorized over z.

    Writes Phi = (1/x) int_0^inf exp(phi(y)) dy with phi strictly concave,
    locates the unique peak from the quadratic u^2/x + (n-1)u - z = 0 in
    u = e^y, finds the ln-60 drop-off points on both sides by monotone
    Newton (from y = 0 on the left, from the closed-form bound
    y_hi = ln(1 + x |target|) on the right), and lays geometrically refined
    Gauss-Legendre panels between them. Concavity bounds every panel's
    log-range, so 20-point panels are effectively exact.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if np.any(z < 0.0) or not np.all(np.isfinite(z)):
        raise ValueError("z must be finite and nonnegative")
    if x < 0.0:
        raise ValueError("x must be nonnegative")
    if x == 0.0:
        return -z
    if z.size > 32768:
        # The panel tensor is ~240 doubles per input point; cap peak memory.
        out = np.empty_like(z)
        for lo in range(0, z.size, 32768):
            out[lo:lo + 32768] = log_phi_exact(x, z[lo:lo + 32768], n)
        return out
    b = n - 1.0
    with np.errstate(invalid="ignore", divide="ignore"):
        u_star = 2.0 * z / (b + np.sqrt(b * b + 4.0 * z / x))
    u_star = np.where(z == 0.0, 0.0, u_star)
    y_star = np.log(np.maximum(u_star, 1.0))
    phi_star = _phi_log_integrand(y_star, x, z, b)
    target = phi_star - _DROP

    def drop(sign):
        # sign * (phi - target): concave and increasing left of the peak for
        # sign = 1, convex and increasing right of it for sign = -1, so
        # Newton from the outer end of each bracket converges monotonically.
        def fn(y, rows):
            zr = z[rows]
            f = _phi_log_integrand(y, x, zr, b) - target[rows]
            df = -b + zr * np.exp(-y) - np.exp(y) / x
            return sign * f, sign * df, _DROP_FLOOR
        return fn

    # phi <= -(e^y - 1)/x and target <= -_DROP, so phi <= target at y_hi.
    y_hi = np.log1p(-x * target)
    y_l = increasing_roots(drop(1.0), 0.0, 0.0, y_star)
    y_r = increasing_roots(drop(-1.0), y_hi, y_star, y_hi)

    frac = np.array([0.0, 1 / 32, 1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0])
    left_bp = y_star[:, None] - (y_star - y_l)[:, None] * frac[::-1][None, :]
    right_bp = y_star[:, None] + (y_r - y_star)[:, None] * frac[None, :]
    breakpoints = np.concatenate([left_bp[:, :-1], right_bp], axis=1)

    lo_edge = breakpoints[:, :-1]
    half = 0.5 * (breakpoints[:, 1:] - lo_edge)
    mid = lo_edge + half
    nodes = mid[:, :, None] + half[:, :, None] * _LEG_NODES[None, None, :]
    vals = np.exp(_phi_log_integrand(nodes, x, z[:, None, None], b)
                  - phi_star[:, None, None])
    integral = np.einsum("ijk,ij,k->i", vals, half, _LEG_WEIGHTS)
    return phi_star + np.log(integral) - np.log(x)


class LogPhiSpline:
    """Vectorized ln Phi(x, ., n) for bulk evaluation at fixed (x, n).

    A cubic spline in t = ln z over [_SPLINE_Z_LO, z_max]. In t the
    function is smooth at every scale: flat (slope z d ln Phi/dz -> 0) on
    the left, growing like -2 e^{t/2}/sqrt(x) on the right, with bounded
    low-order derivatives throughout, so a few thousand knots reach ~1e-6
    absolute accuracy even when z_max is 1e9. Construction certifies itself
    against the exact panel integrator on held-out points. Used by the
    detection oracle, which needs millions of evaluations per run.
    """

    def __init__(self, x: float, n: float, z_max: float):
        from scipy.interpolate import CubicSpline

        if z_max <= _SPLINE_Z_LO:
            raise ValueError(f"need z_max > {_SPLINE_Z_LO:g}")
        self.x = x
        self.n = n
        self.z_max = z_max
        t_lo = np.log(_SPLINE_Z_LO)
        t = np.linspace(t_lo, np.log(z_max), _SPLINE_KNOTS)
        self._spline = CubicSpline(t, log_phi_exact(x, np.exp(t), n))
        probe = np.exp(np.linspace(t_lo, np.log(z_max), 257)[1:] -
                       0.5 * (t[1] - t[0]))
        err = np.max(np.abs(self._spline(np.log(probe))
                            - log_phi_exact(x, probe, n)))
        self.max_abs_err = float(err)
        if err > 1e-4:
            raise ArithmeticError(
                f"ln Phi spline certification failed: max err {err:.2e}")

    def __call__(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if np.any(z > self.z_max * (1.0 + 1e-9)):
            raise ValueError("z beyond the spline's construction range")
        # Below the first knot ln Phi is flat to within it; clamping is
        # exact enough.
        return self._spline(np.log(np.clip(z, _SPLINE_Z_LO, self.z_max)))


_GL16_NODES, _GL16_WEIGHTS = leggauss(16)


@dataclass(frozen=True)
class H0EnergyRule:
    """Quadrature against the H0 law of the normalized n-sample energy.

    Under H0 the energy z is Gamma(n, 1 + qv) mixed over v ~ Exp(1), and
    the mixture density is exactly f0(z) = z^{n-1} Phi(q, z, n) / Gamma(n),
    so every H0 expectation is a single 1-D integral over the certified
    Phi evaluator; no two-scale (v, s) tensor rule is needed. Panels are
    geometric (ratio sqrt(10), resolving every multiplicative scale of
    Phi(p, .) and Phi(q, .)) plus linear refinement across the Gamma bulk
    n +- 12 sqrt(n). The weights absorb f0, and `mass` stores sum(w): its
    distance from 1 certifies both panel coverage and Phi accuracy.
    """

    q: float
    n: float
    z: np.ndarray
    w: np.ndarray
    log_phi_q: np.ndarray
    mass: float

    def expectation(self, values: np.ndarray) -> float:
        return float(np.dot(self.w, values))


def h0_energy_rule(q: float, n: float) -> H0EnergyRule:
    return _h0_energy_rule_cached(float(q), float(n))


@lru_cache(maxsize=128)
def _h0_energy_rule_cached(q: float, n: float) -> H0EnergyRule:
    if q <= 0.0:
        raise ValueError("q must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    # Support window: z >= s stochastically, so the lower Gamma quantile
    # bounds the left tail; on the right P(z > (1+200q) S) <= e^-200 + P(s>S).
    z_lo = max(gammainccinv(n, 1.0 - 1e-15), 1e-300)
    z_hi = (1.0 + 200.0 * q) * gammainccinv(n, 1e-18)
    edges = list(10.0 ** np.arange(np.log10(z_lo), np.log10(z_hi), 0.5))
    rt = np.sqrt(n)
    bulk = list(n + np.arange(-12, 13) * rt)
    edges = sorted({e for e in edges + bulk + [z_hi] if z_lo <= e <= z_hi}
                   | {z_lo})
    edges = np.asarray(edges)
    half = 0.5 * np.diff(edges)
    mid = edges[:-1] + half
    z = (mid[:, None] + half[:, None] * _GL16_NODES[None, :]).ravel()
    panel_w = (half[:, None] * _GL16_WEIGHTS[None, :]).ravel()
    lpq = log_phi_exact(q, z, n)
    w = panel_w * np.exp((n - 1.0) * np.log(z) - gammaln(n) + lpq)
    mass = float(w.sum())
    if abs(mass - 1.0) > 1e-8:
        raise ArithmeticError(
            f"H0 energy rule mass certificate failed: {mass!r} (q={q}, n={n})")
    return H0EnergyRule(q=q, n=n, z=z, w=w, log_phi_q=lpq, mass=mass)

