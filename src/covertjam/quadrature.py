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
from `covertjam.roots`) give near-machine accuracy. x, z and n are given
per point and broadcast, so one call can cover many (x, n) pairs, such as
the nodes of a whole pilot grid of covertness coefficients. The kernel runs
4096 points at a time (peak, drop points, then the 12-panel, 240-node
tensor 136 points at a time inside), so its temporaries stay within a few
working blocks of 2^15 doubles for any number of points, and each value
has the same bits whatever block or call it falls in. The one known gap is a
flat integrand with a far cliff (x above ~1e6 with n near 1 and small z),
off by up to ~5e-9 relative. A Gauss-Laguerre rule in v would miss the
integrand's spike at v ~ 1/(xn) for large x. `LogPhiSpline` tabulates it
for bulk use at fixed (x, n) as a cubic spline on uniform knots in ln z,
over [z_min, z_max]: the knots are a fixed grid's from a margin below
z_min on, so a lower end drops the knots where no sample lands without
changing the spacing or, from the margin on, the coefficients' bits.
The spline fits its own not-a-knot coefficients, with one tridiagonal
solve by Gaussian elimination (`_tridiagonal_solve`; these systems never
need a row interchange, and it raises if one would), and evaluates them
itself (one knot lookup, then the cubic). Its knot grid and trim
(`_spline_knots`), fit, and certificate (`_certificate_error`, the
largest error at the middle of every knot interval: a dense estimate,
not a proved bound) also build the detection oracle's ln Psi tables.
`h0_energy_rule` integrates against the H0 energy law on Gauss-Legendre
panels (`_panel_rule`, which `covertness._limit_panels` shares);
`gamma_rules` integrate against Gamma(n, 1), built in one batch per call
from the Jacobi matrices' eigenvalues and the Christoffel weights of the
three-term recurrence, with no eigenvectors. `_gamma_tail_bounds` gives
closed-form Gamma(n, 1) tail bounds, which set the support windows of
the H0 energy rule and of the detection tables.
Everything here is numpy and the standard library.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .roots import increasing_roots

# ln-drop from the peak at which the panel integrator truncates the tails;
# exp(-60) ~ 9e-27, far below every tolerance used downstream.
_DROP = 60.0
# Rounding floor, in nats, of the drop-point solves: their roots only place
# panels, so a few hundredths in y are plenty.
_DROP_FLOOR = 1e-3

_LEG_NODES, _LEG_WEIGHTS = leggauss(20)
# Panel breakpoints as fractions of the peak-to-drop distance on each side:
# 6 + 6 panels of 20 nodes per point.
_FRAC = np.array([0.0, 1 / 32, 1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0])

# Doubles in one working block of a bulk evaluation (256 KiB, so a block's
# temporaries stay in cache). `log_phi_exact` takes _PANEL_POINTS points
# per panel tensor, and _KERNEL_POINTS points per block of its whole
# kernel (peak, drop-point root finds, panels), so that eight arrays of a
# block's points fill one working block; the detection oracle draws about
# this many energies at a time.
_WORK_BLOCK = 1 << 15
_PANEL_POINTS = _WORK_BLOCK // (2 * (len(_FRAC) - 1) * len(_LEG_NODES))
_KERNEL_POINTS = _WORK_BLOCK // 8

# LogPhiSpline's knots: _SPLINE_KNOTS uniform in ln z over [_SPLINE_Z_LO,
# z_max], of which a spline with a lower end z_min keeps those from
# _SPLINE_TRIM intervals below ln z_min on. A not-a-knot end condition's
# effect fades by 2 - sqrt(3) per knot, so from about 20 intervals in, the
# trimmed coefficients are the full grid's, bit for bit.
_SPLINE_Z_LO = 1e-6
_SPLINE_KNOTS = 4000
_SPLINE_TRIM = 48

# gamma_rules keeps at most this many rules, dropping the oldest first.
_GAMMA_RULE_CACHE_SIZE = 512
_GAMMA_RULES: dict = {}
# The Christoffel recurrence scales a node down by 2^-_RESCALE_BITS once
# its sum of squares passes 2^(2 _RESCALE_BITS); one more step then grows
# it by far less than the 2^(1024 - 2 _RESCALE_BITS) left to overflow.
_RESCALE_BITS = 256
_RESCALE_DOWN = 2.0 ** -_RESCALE_BITS
_RESCALE_TOTAL = 2.0 ** (2 * _RESCALE_BITS)
# gamma_rules takes the eigenvalues of this many dense Jacobi matrices per
# LAPACK call: 2 MiB at order 128, where a whole pilot grid's 99 rules at
# once would take 13 MiB.
_EIG_BATCH = 16


def gamma_rules(ns, order: int = 128) -> list:
    """Gamma(n, 1) rules of one order, one (nodes, weights) pair per n.

    Generalized Gauss-Laguerre on the known Jacobi recurrence: diagonal
    a_k = 2k + n, off-diagonal sqrt(b_k) = sqrt(k(k + n - 1)). The nodes
    are the Jacobi matrix's eigenvalues, no eigenvectors: numpy's
    `eigvalsh` of the dense matrix, whose LAPACK driver (syevd) leaves a
    tridiagonal matrix as it is and then runs sterf on it, so the nodes
    are sterf's, bit for bit. The weights are its Christoffel numbers
    w_i = 1 / sum_k p_k(x_i)^2, with the orthonormal p_k from the
    three-term recurrence (Golub and Welsch, Math. Comp. 1969; Gautschi,
    "Orthogonal Polynomials", 2004), normalized to sum 1. The recurrence
    runs over every node of every missing rule at once, and each step acts
    per node, so a rule has the same bits whatever batch builds it. Unlike
    the scipy polynomial-root route this stays finite for large shapes (n
    of several hundred), and tail weights keep their relative accuracy
    down to double's range.
    Rules are cached per (n, order), at most _GAMMA_RULE_CACHE_SIZE of
    them, dropping the oldest first.
    """
    if not isinstance(order, numbers.Integral) or order < 1:
        raise ValueError(f"order must be an integer >= 1, not {order!r}")
    keys = [(float(n), int(order)) for n in ns]
    for n, _ in keys:
        if not 1.0 <= n < np.inf:
            raise ValueError("n must be finite and >= 1")
    rules = {k: _GAMMA_RULES[k] for k in keys if k in _GAMMA_RULES}
    todo = [k for k in dict.fromkeys(keys) if k not in rules]
    if todo:
        n_col = np.array([[n] for n, _ in todo])
        k = np.arange(order, dtype=float)
        diag = 2.0 * k + n_col
        off = np.sqrt(k[1:] * (k[1:] + (n_col - 1.0)))
        nodes = np.concatenate([
            _tridiagonal_eigenvalues(diag[lo:lo + _EIG_BATCH],
                                     off[lo:lo + _EIG_BATCH])
            for lo in range(0, len(todo), _EIG_BATCH)])
        weights = _christoffel_weights(nodes, diag, off)
        # Each cached rule owns its rows, so no batch outlives its rules.
        rules.update((key, (x.copy(), w.copy()))
                     for key, x, w in zip(todo, nodes, weights))
        _GAMMA_RULES.update((key, rules[key]) for key in todo)
        while len(_GAMMA_RULES) > _GAMMA_RULE_CACHE_SIZE:
            del _GAMMA_RULES[next(iter(_GAMMA_RULES))]
    return [rules[k] for k in keys]


def _tridiagonal_eigenvalues(diag, off) -> np.ndarray:
    """Ascending eigenvalues of the symmetric tridiagonal matrices with
    rows diag and off, by numpy's `eigvalsh` of their dense upper
    triangles: sterf's bits (see `gamma_rules`)."""
    m = diag.shape[1]
    dense = np.zeros((len(diag), m, m))
    i = np.arange(m)
    dense[:, i, i] = diag
    dense[:, i[:-1], i[1:]] = off
    return np.linalg.eigvalsh(dense, UPLO="U")


def _christoffel_weights(x, diag, off) -> np.ndarray:
    """Normalized Christoffel weights at the nodes x, shape (rules, nodes),
    of the Jacobi matrices with rows diag and off.

    Once a node's running sum of p_k^2 passes 2^(2 _RESCALE_BITS), its
    (p_k, p_{k-1}) pair and sum are scaled down by a power of two, which
    is exact, and the exponent is carried to the end.
    """
    p_prev = np.zeros_like(x)
    p = np.ones_like(x)
    total = np.ones_like(x)
    exponent = np.zeros(x.shape, dtype=int)
    for k in range(x.shape[1] - 1):
        step = (x - diag[:, k:k + 1]) * p
        if k:
            step -= off[:, k - 1:k] * p_prev
        p, p_prev = step / off[:, k:k + 1], p
        total += p * p
        big = total > _RESCALE_TOTAL
        if big.any():
            p[big] *= _RESCALE_DOWN
            p_prev[big] *= _RESCALE_DOWN
            total[big] *= _RESCALE_DOWN * _RESCALE_DOWN
            exponent[big] += 2 * _RESCALE_BITS
    w = np.ldexp(1.0 / total, -exponent)
    return w / w.sum(axis=1, keepdims=True)


def _phi_log_integrand(y, x, z_col, b):
    """Concave exponent of Phi's integrand in y = ln(1+xv).

    -b y - z e^{-y} - (e^y - 1)/x, with x, z_col and b broadcasting
    against y. The terms are formed in place in two arrays of y's shape,
    in the operation order of the expression, so the bits are the
    expression's.
    """
    with np.errstate(over="ignore"):
        out = -b * y
        term = np.negative(y)
        np.exp(term, out=term)
        term *= z_col
        out -= term
        np.expm1(y, out=term)
        term /= x
        out -= term
    return out


def log_phi_exact(x, z, n) -> np.ndarray:
    """ln Phi(x, z, n) by certified panel quadrature, point by point.

    x, z and n broadcast against each other; the result has their broadcast
    shape, at least 1-D, so a scalar x and n with an array of z is simply
    the broadcast case. Points with x = 0 give -z.

    Writes Phi = (1/x) int_0^inf exp(phi(y)) dy with phi strictly concave,
    locates the unique peak from the quadratic u^2/x + (n-1)u - z = 0 in
    u = e^y, finds the ln-60 drop-off points on both sides by monotone
    Newton (from y = 0 on the left, from the closed-form bound
    y_hi = ln(1 + x |target|) on the right), and lays geometrically refined
    Gauss-Legendre panels between them. Concavity bounds every panel's
    log-range, so 20-point panels are effectively exact. The whole kernel
    runs over blocks of _KERNEL_POINTS points (peak, root finds, and the
    panel tensor _PANEL_POINTS points at a time inside each), so memory
    stays flat in the number of points. Every step is element-wise, so a
    point's value does not depend on the other points of the call.
    """
    x, z, n = (np.asarray(v, dtype=float) for v in (x, z, n))
    if np.any(z < 0.0) or not np.all(np.isfinite(z)):
        raise ValueError("z must be finite and nonnegative")
    if np.any(x < 0.0) or not np.all(np.isfinite(x)):
        raise ValueError("x must be finite and nonnegative")
    # The z = 0 peak u* = 0 below is the integrand's peak only for n >= 1.
    if not np.all((n >= 1.0) & (n < np.inf)):
        raise ValueError("n must be finite and >= 1")
    x, z, n = np.broadcast_arrays(x, np.atleast_1d(z), n)
    shape = z.shape
    x, z, n = (v.reshape(-1) for v in (x, z, n))
    out = -z
    todo = np.flatnonzero(x > 0.0)
    for lo in range(0, todo.size, _KERNEL_POINTS):
        i = todo[lo:lo + _KERNEL_POINTS]
        out[i] = _log_phi_block(x[i], z[i], n[i] - 1.0)
    return out.reshape(shape)


def _log_phi_block(x, z, b):
    """ln Phi at one block of points with x > 0 and b = n - 1."""
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
            xr, zr, br = x[rows], z[rows], b[rows]
            f = _phi_log_integrand(y, xr, zr, br) - target[rows]
            df = -br + zr * np.exp(-y) - np.exp(y) / xr
            return sign * f, sign * df, _DROP_FLOOR
        return fn

    # phi <= -(e^y - 1)/x and target <= -_DROP, so phi <= target at y_hi.
    y_hi = np.log1p(-x * target)
    y_l = increasing_roots(drop(1.0), 0.0, 0.0, y_star)
    y_r = increasing_roots(drop(-1.0), y_hi, y_star, y_hi)

    left, right = y_star - y_l, y_r - y_star

    # The panels and their tensor, _PANEL_POINTS points at a time.
    integral = np.empty_like(z)
    for lo in range(0, z.size, _PANEL_POINTS):
        s = slice(lo, lo + _PANEL_POINTS)
        peak = y_star[s, None]
        breakpoints = np.concatenate([peak - left[s, None] * _FRAC[:0:-1],
                                      peak + right[s, None] * _FRAC], axis=1)
        half = 0.5 * (breakpoints[:, 1:] - breakpoints[:, :-1])
        mid = breakpoints[:, :-1] + half
        nodes = half[:, :, None] * _LEG_NODES
        nodes += mid[:, :, None]
        vals = _phi_log_integrand(nodes, x[s, None, None], z[s, None, None],
                                  b[s, None, None])
        vals -= phi_star[s, None, None]
        integral[s] = np.einsum("ijk,ij,k->i", np.exp(vals, out=vals), half,
                                _LEG_WEIGHTS)
    return phi_star + np.log(integral) - np.log(x)


def _not_a_knot_coeffs(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients (4, m - 1) of the not-a-knot cubic spline through (t, y).

    The knot slopes s solve the tridiagonal system of continuous second
    derivatives, closed by continuous third derivatives at t_1 and t_{m-2};
    each interval is then the Hermite cubic through its end values and
    slopes. Every array operation is the one scipy's `CubicSpline.__init__`
    and `CubicHermiteSpline.__init__` perform for 1-D data of at least
    four knots, and the slopes come from `_tridiagonal_solve`, the
    operations of the LAPACK dgtsv that scipy's `solve_banded` calls, so
    the result equals `CubicSpline(t, y).c` bit for bit.
    """
    m = t.size
    dt = np.diff(t)
    slope = np.diff(y) / dt
    # The sub-, main and super-diagonal of the slopes' system.
    lower = np.append(dt[1:], 0.0)
    main = np.empty(m)
    main[1:-1] = 2 * (dt[:-1] + dt[1:])
    upper = np.insert(dt[:-1], 0, 0.0)
    rhs = np.empty(m)
    rhs[1:-1] = 3 * (dt[1:] * slope[:-1] + dt[:-1] * slope[1:])
    d = t[2] - t[0]
    main[0] = dt[1]
    upper[0] = d
    rhs[0] = ((dt[0] + 2 * d) * dt[1] * slope[0] + dt[0] ** 2 * slope[1]) / d
    d = t[-1] - t[-3]
    main[-1] = dt[-2]
    lower[-1] = d
    rhs[-1] = (dt[-1] ** 2 * slope[-2]
               + (2 * d + dt[-1]) * dt[-2] * slope[-1]) / d
    s = np.array(_tridiagonal_solve(lower, main, upper, rhs))
    cubic = (s[:-1] + s[1:] - 2 * slope) / dt
    return np.stack((cubic / dt, (slope - s[:-1]) / dt - cubic, s[:-1],
                     y[:-1]))


def _tridiagonal_solve(lower, main, upper, rhs) -> list:
    """x with A x = rhs for the tridiagonal A of the given diagonals.

    lower and upper hold the m - 1 entries below and above the main
    diagonal's m. Gaussian elimination, then back substitution, step for
    step as LAPACK dgtsv with one right-hand side (the routine
    `scipy.linalg.solve_banded` runs for one band on each side), so x has
    dgtsv's bits. dgtsv interchanges rows where a pivot is smaller than
    the entry below it; the not-a-knot systems on uniform knots never do
    (row 0's pivot and the entry below are both the step h, later pivots
    are 2h to 3.7h against entries of h to 2h), so a pivot that is zero
    or smaller raises `ArithmeticError` naming its row instead. Each step
    depends on the one before, so it runs on Python floats, which round
    as the Fortran does.
    """
    dl, d, du, b = (v.tolist() for v in (lower, main, upper, rhs))
    m = len(d)
    for i in range(m):
        if d[i] == 0.0 or (i < m - 1 and not abs(d[i]) >= abs(dl[i])):
            raise ArithmeticError(
                f"tridiagonal system is singular or needs a row "
                f"interchange at row {i}")
        if i < m - 1:
            fact = dl[i] / d[i]
            d[i + 1] -= fact * du[i]
            b[i + 1] -= fact * b[i]
    b[-1] /= d[-1]
    for i in range(m - 2, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1]) / d[i]
    return b


def _spline_knots(z_max: float, z_min: float = _SPLINE_Z_LO,
                  knots: int = _SPLINE_KNOTS) -> np.ndarray:
    """Knots in t = ln z of a cubic table over [z_min, z_max].

    The grid of `knots` uniform knots over [ln _SPLINE_Z_LO, ln z_max],
    from _SPLINE_TRIM intervals below ln z_min on, so that interval
    _SPLINE_TRIM holds z_min (or the whole grid, when z_min is within
    _SPLINE_TRIM intervals of _SPLINE_Z_LO).
    """
    if z_max <= _SPLINE_Z_LO:
        raise ValueError(f"need z_max > {_SPLINE_Z_LO:g}")
    t = np.linspace(np.log(_SPLINE_Z_LO), np.log(z_max), knots)
    first = max(int(np.searchsorted(t, np.log(z_min), side="right")) - 1
                - _SPLINE_TRIM, 0)
    return t[first:]


def _certificate_error(table, exact, t: np.ndarray) -> float:
    """Largest |table(z) - exact(z)| over the middles of the intervals of
    knots t: a dense estimate of the table's error, not a proved bound.
    A cubic spline's error on smooth data peaks near an interval's
    middle, and every interval is read, so a sharp bend (ln Phi(x, ., n)
    just above z = 1/x at small x) is read wherever it falls."""
    mid = np.exp(0.5 * (t[:-1] + t[1:]))
    return float(np.max(np.abs(table(mid) - exact(mid))))


class LogPhiSpline:
    """Vectorized ln Phi(x, ., n) for bulk evaluation at fixed (x, n).

    A cubic spline in t = ln z on the grid of _SPLINE_KNOTS uniform knots
    over [_SPLINE_Z_LO, z_max]. In t the function is smooth at every
    scale: flat (slope z d ln Phi/dz -> 0) on the left, growing like
    -2 e^{t/2}/sqrt(x) on the right, with bounded low-order derivatives
    throughout, so a few thousand knots reach ~1e-6 absolute accuracy even
    when z_max is 1e9. Construction certifies itself against the exact
    panel integrator at the middle of every knot interval
    (`_certificate_error`) and refuses an error above 1e-4.

    A lower end z_min keeps the grid's knots from _SPLINE_TRIM intervals
    below ln z_min on (`_spline_knots`), so interval _SPLINE_TRIM holds
    z_min, and from that interval on the coefficients and values are the
    full grid's, bit for bit. A trimmed spline refuses z below its first
    knot (`z_min` is that knot's z), as every spline refuses z above
    z_max; an untrimmed one (z_min within _SPLINE_TRIM intervals of
    _SPLINE_Z_LO) has `z_min` = 0 and clamps z below _SPLINE_Z_LO to its
    flat left end.

    `_not_a_knot_coeffs` fits the coefficients with the same operations,
    and so the same bits, as scipy's `CubicSpline(t, y).c`, and a call
    evaluates them directly on the uniform knots, bit-identical to
    `CubicSpline.__call__`: the interval is the one scipy's search returns
    (t_i <= t < t_{i+1}, the last interval closed on the right), and the
    sum keeps its power-sum order c3 + c2 d + c1 d^2 + c0 (d^2 d), which
    nested Horner does not.
    """

    def __init__(self, x: float, n: float, z_max: float,
                 z_min: float = _SPLINE_Z_LO):
        t = _spline_knots(z_max, z_min)
        self.z_max = z_max
        self.z_min = float(np.exp(t[0])) if t.size < _SPLINE_KNOTS else 0.0
        self.knots = t
        self.coeffs = _not_a_knot_coeffs(t, log_phi_exact(x, np.exp(t), n))
        self._inv_step = (t.size - 1) / (t[-1] - t[0])
        # Right end of each interval; the last one also holds t = t[-1].
        self._upper = np.append(t[1:-1], np.inf)
        err = _certificate_error(self, lambda z: log_phi_exact(x, z, n), t)
        self.max_abs_err = err
        if err > 1e-4:
            raise ArithmeticError(
                f"ln Phi spline certification failed: max err {err:.2e}")

    def __call__(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if not np.all((z >= self.z_min) & (z <= self.z_max * (1.0 + 1e-9))):
            raise ValueError("z is NaN or beyond the spline's construction "
                             "range")
        # Below an untrimmed spline's first knot ln Phi is flat to within
        # it, so clamping there is exact enough.
        t = np.maximum(np.log(np.clip(z, _SPLINE_Z_LO, self.z_max)),
                       self.knots[0])
        # linspace knots sit within a few ulps of t_lo + i h, so the
        # floor is at most one interval off: step back or forward once.
        i = np.minimum(((t - self.knots[0]) * self._inv_step).astype(np.intp),
                       self.knots.size - 2)
        i -= t < self.knots[i]
        i += t >= self._upper[i]
        d = t - self.knots[i]
        c0, c1, c2, c3 = self.coeffs
        d2 = d * d
        return c3[i] + c2[i] * d + c1[i] * d2 + c0[i] * (d2 * d)


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

    z: np.ndarray
    w: np.ndarray
    log_phi_q: np.ndarray
    mass: float

    def expectation(self, values: np.ndarray) -> float:
        return float(np.dot(self.w, values))


@lru_cache(maxsize=128)
def h0_energy_rule(q: float, n: float) -> H0EnergyRule:
    z, panel_w = h0_energy_layout(q, n)
    return h0_energy_finish(q, n, z, panel_w, log_phi_exact(q, z, n))


def _require_h0_law(q: float, n: float) -> None:
    """The H0 energy law's parameters: 0 < q < inf and 1 <= n < inf."""
    if not 0.0 < q < np.inf:
        raise ValueError("q must be positive and finite")
    if not 1.0 <= n < np.inf:
        raise ValueError("n must be finite and >= 1")


def _h0_energy_window(q: float, n: float) -> tuple:
    """Support window (z_lo, z_hi) of the H0 energy rule.

    z >= s ~ Gamma(n, 1) stochastically, so P(z <= z_lo) <= 1e-15; on the
    right P(z > (1 + 200q) S) <= e^-200 + P(s > S), and P(s > S) <= 1e-18.
    """
    _require_h0_law(q, n)
    return (_gamma_tail_bounds(n, 1e-15)[0],
            (1.0 + 200.0 * q) * _gamma_tail_bounds(n, 1e-18)[1])


def _gamma_tail_bounds(n: float, p: float) -> tuple:
    """(lo, hi) with P(S <= lo) <= p and P(S > hi) <= p, S ~ Gamma(n, 1).

    With t = -ln p, lo is the larger of the sub-Gaussian left-tail bound
    n - sqrt(2 n t) and the root of P(S <= x) <= x^n / Gamma(n + 1), and
    hi is the sub-gamma right-tail bound n + t + sqrt(2 n t) (Boucheron,
    Lugosi and Massart, "Concentration Inequalities", 2013, section 2.4).
    For n in [1, 1e4] and p in [1e-18, 1e-12] they are within 0.6 and
    1.35 of the exact quantiles.
    """
    if not 1.0 <= n < math.inf:
        raise ValueError("n must be finite and >= 1")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    t = -math.log(p)
    spread = math.sqrt(2.0 * n * t)
    # At n near 1 the power bound is tight to within p; its exponent gives
    # up 1e-12, more than its rounding error.
    return (max(n - spread,
                math.exp((math.lgamma(n + 1.0) - t) / n - 1e-12)),
            n + t + spread)


def h0_energy_layout(q: float, n: float, breaks=()) -> tuple:
    """Nodes z and panel weights of the H0 energy rule, which need no Phi.

    `h0_energy_finish` turns them into the rule once ln Phi(q, z, n) is
    known, so a caller can evaluate ln Phi for many rules in one call.
    The panel edges are the window's ends, half-decades and the Gamma
    bulk; `breaks` inside the window add edges, so that an integrand
    with a kink there is smooth on every panel.
    """
    z_lo, z_hi = _h0_energy_window(q, n)
    edges = list(10.0 ** np.arange(np.log10(z_lo), np.log10(z_hi), 0.5))
    rt = np.sqrt(n)
    bulk = list(n + np.arange(-12, 13) * rt)
    edges = sorted({e for e in edges + bulk + [z_hi] + list(breaks)
                    if z_lo <= e <= z_hi} | {z_lo})
    return _panel_rule(np.asarray(edges), _GL16_NODES, _GL16_WEIGHTS)


def _panel_rule(edges: np.ndarray, nodes: np.ndarray,
                weights: np.ndarray) -> tuple:
    """The rule (nodes, weights) on [-1, 1] mapped onto each panel between
    consecutive edges: all nodes and weights, panel by panel."""
    half = 0.5 * np.diff(edges)
    mid = edges[:-1] + half
    return ((mid[:, None] + half[:, None] * nodes).ravel(),
            (half[:, None] * weights).ravel())


def h0_energy_finish(q: float, n: float, z: np.ndarray, panel_w: np.ndarray,
                     log_phi_q: np.ndarray) -> H0EnergyRule:
    """The H0 energy rule from its layout and ln Phi(q, z, n): the weights
    absorb the mixture density, and their sum is the mass certificate."""
    w = panel_w * np.exp((n - 1.0) * np.log(z) - math.lgamma(n) + log_phi_q)
    mass = float(w.sum())
    if abs(mass - 1.0) > 1e-8:
        raise ArithmeticError(
            f"H0 energy rule mass certificate failed: {mass!r} (q={q}, n={n})")
    return H0EnergyRule(z=z, w=w, log_phi_q=log_phi_q, mass=mass)
