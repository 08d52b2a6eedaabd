"""Quadrature rules and the jamming-averaged energy integral Phi.

Phi(x, z, n) = int_0^inf e^{-v} (1+xv)^{-n} e^{-z/(1+xv)} dv is the building
block of every adversary-side likelihood: it is the density kernel of the
normalized energy of n Gaussian samples whose variance is exponentially
mixed with spread x. Everything here works in ln Phi because the interesting
regimes underflow double precision by hundreds of orders.

Three evaluation routes, from fast to bulletproof:
  * plain Gauss-Laguerre in v (matches the e^{-v} weight exactly),
  * a half-order cross-check that flags nodes-miss-the-peak failures
    (for large x the integrand spikes at v ~ 1/(xn), far below the first
    Laguerre abscissa, and the 64/128 estimates then disagree violently),
  * an exact panel integrator in y = ln(1+xv), where the log-integrand
    -(n-1)y - z e^{-y} - (e^y - 1)/x is strictly concave, so the peak is
    unique, the tails are certified, and fixed Gauss-Legendre panels between
    bisected drop-off bounds give near-machine accuracy for any (x, z, n).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import eigh_tridiagonal
from scipy.special import gammainccinv, gammaln, logsumexp, roots_laguerre

# ln-drop from the peak at which the panel integrator truncates the tails;
# exp(-60) ~ 9e-27, far below every tolerance used downstream.
_DROP = 60.0
# Relative Phi disagreement between the full and half-order Laguerre rules
# that triggers the exact fallback (equals absolute ln Phi disagreement).
_GL_AGREE_TOL = 1e-8

_LEG_NODES, _LEG_WEIGHTS = leggauss(20)


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Laguerre abscissas/weights for the weight e^{-v} on [0, inf)."""

    nodes: np.ndarray
    weights: np.ndarray
    n_quad: int

    @classmethod
    def gauss_laguerre(cls, n_quad: int = 128) -> "QuadratureRule":
        return _laguerre_rule(n_quad)

    def half(self) -> "QuadratureRule":
        return _laguerre_rule(max(2, self.n_quad // 2))


@lru_cache(maxsize=32)
def _laguerre_rule(n_quad: int) -> QuadratureRule:
    nodes, weights = roots_laguerre(n_quad)
    rule = QuadratureRule(nodes=nodes, weights=weights, n_quad=n_quad)
    total = rule.weights.sum()
    if abs(total - 1.0) > 1e-10:
        raise RuntimeError(f"Laguerre weights sum to {total!r}, expected 1")
    return rule


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


def default_rule() -> QuadratureRule:
    return QuadratureRule.gauss_laguerre(128)


def _log_phi_laguerre(x: float, z: np.ndarray, n: float,
                      rule: QuadratureRule) -> np.ndarray:
    """ln Phi by Gauss-Laguerre in v, assembled in log space."""
    v = rule.nodes
    scale = 1.0 + x * v
    # (n_z, n_quad) exponent matrix; logsumexp keeps underflow harmless.
    expo = -n * np.log(scale)[None, :] - np.outer(z, 1.0 / scale)
    return logsumexp(expo, axis=1, b=rule.weights[None, :])


def _phi_log_integrand(y, x, z_col, b):
    """Concave exponent of Phi's integrand in y = ln(1+xv); z_col broadcasts."""
    with np.errstate(over="ignore"):
        ey = np.exp(y)
        return -b * y - z_col * np.exp(-y) - (ey - 1.0) / x


def _bisect_drop(x, z_col, b, y_star, phi_target, side: str):
    """Find where the concave exponent falls to phi_target on one side.

    Right side: expand geometrically from the peak, then bisect.
    Left side: the domain edge y = 0 caps the search.
    Vectorized over the z axis; ~1e-2 accuracy is plenty (panel bound only).
    """
    if side == "right":
        step = np.ones_like(y_star)
        hi = y_star + step
        for _ in range(200):
            mask = _phi_log_integrand(hi, x, z_col, b) >= phi_target
            if not mask.any():
                break
            step = np.where(mask, step * 2.0, step)
            hi = np.where(mask, y_star + step, hi)
        lo = y_star.copy()
    else:
        lo = np.zeros_like(y_star)
        hi = y_star.copy()
        done = _phi_log_integrand(lo, x, z_col, b) >= phi_target
        if done.all():
            return lo
        hi = np.where(done, lo, hi)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        high_side = _phi_log_integrand(mid, x, z_col, b) >= phi_target
        if side == "right":
            lo = np.where(high_side, mid, lo)
            hi = np.where(high_side, hi, mid)
        else:
            hi = np.where(high_side, mid, hi)
            lo = np.where(high_side, lo, mid)
    return hi if side == "right" else lo


def log_phi_exact(x: float, z, n: float) -> np.ndarray:
    """ln Phi(x, z, n) by certified panel quadrature; vectorized over z.

    Writes Phi = (1/x) int_0^inf exp(phi(y)) dy with phi strictly concave,
    locates the unique peak from the quadratic u^2/x + (n-1)u - z = 0 in
    u = e^y, bisects the ln-60 drop-off points on both sides, and lays
    geometrically refined Gauss-Legendre panels between them. Concavity
    bounds every panel's log-range, so 20-point panels are effectively exact.
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
    z_col = z
    phi_star = _phi_log_integrand(y_star, x, z_col, b)
    target = phi_star - _DROP
    y_r = _bisect_drop(x, z_col, b, y_star, target, "right")
    y_l = _bisect_drop(x, z_col, b, y_star, target, "left")

    frac = np.array([0.0, 1 / 32, 1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0])
    left_bp = y_star[:, None] - (y_star - y_l)[:, None] * frac[::-1][None, :]
    right_bp = y_star[:, None] + (y_r - y_star)[:, None] * frac[None, :]
    breakpoints = np.concatenate([left_bp[:, :-1], right_bp], axis=1)

    lo_edge = breakpoints[:, :-1]
    half = 0.5 * (breakpoints[:, 1:] - lo_edge)
    mid = lo_edge + half
    nodes = mid[:, :, None] + half[:, :, None] * _LEG_NODES[None, None, :]
    vals = np.exp(_phi_log_integrand(nodes, x, z_col[:, None, None], b)
                  - phi_star[:, None, None])
    integral = np.einsum("ijk,ij,k->i", vals, half, _LEG_WEIGHTS)
    return phi_star + np.log(integral) - np.log(x)


def log_phi(x: float, z, n: float, rule: QuadratureRule | None = None) -> np.ndarray:
    """ln Phi with the Gauss-Laguerre fast path and elementwise exact fallback.

    Full- and half-order Laguerre estimates are compared per element; any
    element where they disagree beyond 1e-8 (or is non-finite) is recomputed
    with the panel integrator. This keeps the common small-x case at two
    matrix-vector products while staying correct when the spike at
    v ~ 1/(xn) escapes the abscissas.
    """
    rule = rule or default_rule()
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if x < 0.0:
        raise ValueError("x must be nonnegative")
    if x == 0.0:
        return -z
    full = _log_phi_laguerre(x, z, n, rule)
    half = _log_phi_laguerre(x, z, n, rule.half())
    bad = ~np.isfinite(full) | (np.abs(full - half) > _GL_AGREE_TOL)
    if bad.any():
        full = full.copy()
        full[bad] = log_phi_exact(x, z[bad], n)
    return full


def phi(x: float, z, n: float, rule: QuadratureRule | None = None):
    """Phi(x, z, n) itself; underflows to 0 where ln Phi < -745."""
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    out = np.exp(log_phi(x, z_arr, n, rule))
    if not np.all(np.isfinite(out)):
        raise ArithmeticError("Phi evaluation produced non-finite values")
    return out if np.ndim(z) else float(out[0])


class LogPhiSpline:
    """Vectorized ln Phi(x, ., n) for bulk evaluation at fixed (x, n).

    A cubic spline in t = ln z over [z_lo, z_max]. In t the function is
    smooth at every scale: flat (slope z d ln Phi/dz -> 0) on the left,
    growing like -2 e^{t/2}/sqrt(x) on the right, with bounded low-order
    derivatives throughout, so a few thousand knots reach ~1e-6 absolute
    accuracy even when z_max is 1e9. Construction certifies itself against
    the exact panel integrator on held-out points. Used by the detection
    oracle, which needs millions of evaluations per run.
    """

    def __init__(self, x: float, n: float, z_max: float,
                 z_lo: float = 1e-6, grid_size: int = 4000):
        from scipy.interpolate import CubicSpline

        if z_max <= z_lo or z_lo <= 0.0:
            raise ValueError("need 0 < z_lo < z_max")
        self.x = x
        self.n = n
        self.z_lo = z_lo
        self.z_max = z_max
        t = np.linspace(np.log(z_lo), np.log(z_max), grid_size)
        self._spline = CubicSpline(t, log_phi_exact(x, np.exp(t), n))
        probe = np.exp(np.linspace(np.log(z_lo), np.log(z_max), 257)[1:] -
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
        # Below z_lo, ln Phi is flat to within z_lo; clamping is exact enough.
        return self._spline(np.log(np.clip(z, self.z_lo, self.z_max)))


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


def h0_energy_rule(q: float, n: float,
                   rule: QuadratureRule | None = None) -> H0EnergyRule:
    rule = rule or default_rule()
    return _h0_energy_rule_cached(float(q), float(n), rule.n_quad)


@lru_cache(maxsize=128)
def _h0_energy_rule_cached(q: float, n: float, order: int) -> H0EnergyRule:
    if q <= 0.0:
        raise ValueError("q must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    rule = QuadratureRule.gauss_laguerre(order)
    # Support window: z >= s stochastically, so the lower Gamma quantile
    # bounds the left tail; on the right P(z > (1+200q) S) <= e^-200 + P(s>S).
    z_lo = max(gammainccinv(n, 1.0 - 1e-15), 1e-300)
    z_hi = (1.0 + 200.0 * q) * gammainccinv(n, 1e-18)
    edges = list(10.0 ** np.arange(np.log10(z_lo), np.log10(z_hi), 0.5))
    rt = np.sqrt(n)
    bulk = [n + k * rt for k in range(-12, 13)]
    edges = sorted({e for e in edges + bulk + [z_hi] if z_lo <= e <= z_hi}
                   | {z_lo})
    edges = np.asarray(edges)
    half = 0.5 * np.diff(edges)
    mid = edges[:-1] + half
    z = (mid[:, None] + half[:, None] * _GL16_NODES[None, :]).ravel()
    panel_w = (half[:, None] * _GL16_WEIGHTS[None, :]).ravel()
    lpq = log_phi(q, z, n, rule)
    w = panel_w * np.exp((n - 1.0) * np.log(z) - gammaln(n) + lpq)
    mass = float(w.sum())
    if abs(mass - 1.0) > 1e-8:
        raise ArithmeticError(
            f"H0 energy rule mass certificate failed: {mass!r} (q={q}, n={n})")
    return H0EnergyRule(q=q, n=n, z=z, w=w, log_phi_q=lpq, mass=mass)

