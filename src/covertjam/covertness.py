"""Covertness metrics and bounds.

Single-band total variation in closed form, the sum-of-eta upper bound for
products, Monte-Carlo TV cross-checks, the KL divergence of the adversary's
multi-sample energy test, its small-signal quadratic coefficient zeta, the
Pinsker multi-block budget, and the KL divergence and Bhattacharyya
affinity of the limiting band densities behind the Pinsker and Hellinger
bounds.

The solvers' and the adversary's paths import no SciPy. The limiting
densities' bounds of fig2 (`limit_kl`, `band_affinity`) and the adaptive
quadrature `tv_numeric_k1` import it inside themselves, and the H0 energy
rule behind `kl_divergence`, `tv_exact_n` and zeta at q <= 50 inside
`quadrature.h0_energy_layout` and `h0_energy_finish`.

Normalization convention: band quantities p = p_hat/sigma2_A and
q = q_hat/sigma2_A are dimensionless; chi = p/q = p_hat/q_hat is the
solvers' decision variable. Everything TV-related depends on chi alone, so
the TV functions take chi; the n-sample ones take the floats p and q.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.polynomial import polyval

from .quadrature import (
    _require_h0_law,
    gamma_rules,
    h0_energy_finish,
    h0_energy_layout,
    h0_energy_rule,
    log_phi_exact,
)
from .roots import increasing_roots
from .scenario import rng_stream

__all__ = [
    "eta",
    "tv_upper_bound",
    "tv_numeric_k1",
    "tv_numeric_product",
    "log_psi",
    "likelihood_ratio_delta",
    "kl_divergence",
    "zeta",
    "zeta_pairs",
    "tv_exact_n",
    "pinsker_budget",
    "limit_kl",
    "band_affinity",
    "hellinger_bound",
    "solve_chi_star",
]

# Above this jamming spread zeta takes the direct single integral against
# the fixed-order Gamma(n) rule: fewer ln Phi evaluations than the H0 energy
# rule, whose support grows with q, and zeta >> 1 there makes its
# subtraction harmless (see zeta docstring).
_ZETA_DIRECT_SWITCH = 50.0

# The direct route skips a Gamma-rule node whose weight times 1 + n q, the
# most its term can add, is at most this (see zeta_pairs).
_ZETA_NEGLIGIBLE = 2.0 ** -64

# zeta_pairs keeps at most this many values, dropping the oldest first.
_ZETA_CACHE_SIZE = 4096
_ZETA_CACHE: dict = {}

# Largest chi solve_chi_star returns; eta(chi) -> 1/e as chi -> 1.
_CHI_TOP = 1.0 - 1e-12
# _lambert_w0: Halley steps allowed (it converges within about five), and
# the numerator and denominator of its (3, 2) Pade start at 0.
_LAMBERT_MAX_STEPS = 100
_W0_PADE_NUM = (604 / 47, 580 / 47, 1.0)
_W0_PADE_DEN = (1529 / 47, 674 / 47, 1.0)
# 2^27 + 1 splits a double into two 26-bit halves (_fma).
_VELTKAMP = 2.0 ** 27 + 1.0


def eta(x):
    """eta(x) = x^(1/(1-x)) on [0, 1), the single-band TV in chi.

    Increasing and concave, eta(x) <= x, and eta -> 1/e as x -> 1.
    Evaluated as exp(ln x / (1-x)); eta(0) = 0 by continuity.
    """
    arr = np.asarray(x, dtype=float)
    _require_chi(arr)
    with np.errstate(divide="ignore"):
        out = np.exp(np.log(arr) / (1.0 - arr))
    out = np.where(arr == 0.0, 0.0, out)
    return float(out) if np.ndim(x) == 0 else out


def tv_upper_bound(chis) -> float:
    """Sum of per-band eta values; bounds the TV of the K-band product law."""
    return float(np.sum(eta(chis)))


def _require_chi(chis):
    """chi in [0, 1) is required wherever chi acts as a covertness knob."""
    if not np.all((chis >= 0.0) & (chis < 1.0)):
        raise ValueError(f"chi = {chis} is outside [0, 1)")


def tv_numeric_k1(chi: float) -> float:
    """Single-band TV by adaptive quadrature, (1/2) int |f_U - f_V|.

    Integrates in the scale-free variable t = (x - noise floor)/q_hat, in
    which the TV depends on chi alone, and splits at the crossover
    t0 = chi ln(1/chi)/(1-chi) where the densities meet, so each piece has
    a single sign. Absolute tolerance 1e-8. scipy.integrate (which pulls in
    most of SciPy) is imported here, by its one user, and not with the
    package.
    """
    from scipy.integrate import quad

    _require_chi(chi)
    if chi == 0.0:
        return 0.0

    def diff(t):
        # q_hat * (f_U - f_V) at x = noise + q_hat t
        return (-math.exp(-t) * math.expm1(-t * (1.0 - chi) / chi) / (1.0 - chi)
                - math.exp(-t))

    t0 = chi * math.log(1.0 / chi) / (1.0 - chi)
    lower, err_lo = quad(diff, 0.0, t0, epsabs=1e-10, epsrel=1e-10, limit=200)
    upper, err_hi = quad(diff, t0, np.inf, epsabs=1e-10, epsrel=1e-10, limit=200)
    if err_lo + err_hi > 1e-8:
        raise ArithmeticError("TV quadrature did not reach the 1e-8 tolerance")
    return 0.5 * (abs(lower) + abs(upper))


def tv_numeric_product(chis, samples: int = 10**6,
                       seed: int = 0) -> tuple[float, float]:
    """Monte-Carlo TV between the K-band product laws, with a 95% CI.

    Samples the jamming-only product law exactly (per-band shifted
    exponentials) and averages |prod_k f_U/f_V - 1| / 2. The per-band
    likelihood ratio depends only on chi_k and a standard exponential draw,
    so the estimate is scale-free: no noise level enters.
    """
    chis = np.asarray(chis, dtype=float)
    k = len(chis)
    if k < 1:
        raise ValueError("at least one band is required")
    _require_chi(chis)

    rng = rng_stream(seed, 1)
    # A chi = 0 band has ratio 1. Its draws are still made, so the stream
    # does not depend on which bands are zero.
    active = chis > 0.0
    c = chis[active]
    total = 0.0
    total_sq = 0.0
    done = 0
    chunk = min(samples, 1 << 18)
    while done < samples:
        m = min(chunk, samples - done)
        e = rng.exponential(size=(m, k))[:, active]
        ratio = -np.expm1(-e * (1.0 - c) / c) / (1.0 - c)
        dev = 0.5 * np.abs(np.prod(ratio, axis=1) - 1.0)
        total += float(dev.sum())
        total_sq += float(np.dot(dev, dev))
        done += m
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    ci = 1.96 * math.sqrt(var / samples)
    return mean, ci


def _require_p_below_q(p: float, q: float) -> None:
    """Psi's band condition 0 <= p < q, which a NaN p or q fails."""
    if not 0.0 <= p < q:
        raise ValueError("requires 0 <= p < q")


def likelihood_ratio_delta(p: float, q: float, z, log_phi_p,
                           log_phi_q) -> np.ndarray:
    """Psi(p, q, z) - 1 for the n-sample energy likelihood ratio.

    Psi = 1 + p/(q-p) (1 - Phi(p,z)/Phi(q,z)); the deviation is computed
    as -expm1(ln Phi_p - ln Phi_q) so that Psi near 1 keeps full precision.
    ln Phi(p, z) and ln Phi(q, z) are arrays matching z: the exact values,
    the H0 rule's stored ones, or the detector's splines.
    """
    _require_p_below_q(p, q)
    if p == 0.0:
        return np.zeros(np.shape(z))
    delta = -(p / (q - p)) * np.expm1(log_phi_p - log_phi_q)
    # Psi is a likelihood ratio, hence positive; floor tiny numerical dips.
    return np.maximum(delta, -1.0 + 1e-300)


def log_psi(p: float, q: float, z, n: float) -> np.ndarray:
    """ln Psi(p, q, z), the adversary's per-band log likelihood ratio."""
    _require_h0_law(q, n)
    _require_p_below_q(p, q)
    return np.log1p(likelihood_ratio_delta(
        p, q, z, log_phi_exact(p, z, n), log_phi_exact(q, z, n)))


def _band_delta(p: float, q: float, n: float):
    """A band's n-sample law: the H0 energy rule of (q, n) and delta =
    Psi - 1 at its nodes, from the exact ln Phi(p, ., n); at p = 0,
    delta is 0. q, n and p are checked before any ln Phi or rule work."""
    _require_h0_law(q, n)
    _require_p_below_q(p, q)
    r = h0_energy_rule(q, n)
    return r, likelihood_ratio_delta(p, q, r.z, log_phi_exact(p, r.z, n),
                                     r.log_phi_q)


def kl_divergence(p: float, q: float, n: float) -> float:
    """KL divergence D(H0 || H1) of the n-sample normalized band energy.

    Since E_{H0}[Psi] = 1 exactly, D = -E_{H0}[ln Psi] equals
    E_{H0}[Psi - 1 - ln Psi], whose integrand delta - log1p(delta) is
    nonnegative and immune to the cancellation that kills the naive form
    when Psi ~ 1. It is a reduction of the band law `_band_delta`, on the
    certified H0 energy rule (density z^{n-1} Phi(q, z, n) / Gamma(n)).
    """
    r, delta = _band_delta(p, q, n)
    return r.expectation(delta - np.log1p(delta))


def zeta(q: float, n: float, rule=None) -> float:
    """Quadratic KL coefficient: D ~ zeta(q, n) p^2 / (2 q^2) for small p.

    Two equivalent forms are used depending on q. For moderate q,
    zeta = Var_{H0}(e^{-z}/Phi(q,z)) = E_{H0}[(1 - e^{-z}/Phi)^2], which is
    cancellation-free as q -> 0 (zeta vanishes like q^2 there). For large
    q the direct single integral
    zeta = E_{s~Gamma(n)}[e^{-s}/Phi(q,s)] - 1 is cheaper and exact; there
    zeta >> 1, so the subtraction is harmless. Both equal the defining
    variance because E_{H0}[e^{-z}/Phi(q,z)] = 1 identically. This is
    `zeta_pairs` on the one pair, and shares its cache.

    `rule` selects nothing and must stay None: ln Phi has a single
    evaluator. The keyword remains only because the bench harness
    (`bench/tracing.py::_zeta_key`) binds zeta's arguments by name; it goes
    once that code stops reading it.
    """
    if rule is not None:
        raise TypeError("zeta takes no quadrature rule; pass rule=None")
    return float(zeta_pairs([(q, n)])[0])


def zeta_pairs(pairs) -> np.ndarray:
    """zeta(q, n) for each (q, n) pair, in one ln Phi call for all misses.

    Pilot-grid sweeps hit the same pairs across scenarios, so values are
    cached. For the pairs not cached yet, the quadrature nodes, which do
    not depend on Phi, are collected first: the Gamma(n) rule's above
    _ZETA_DIRECT_SWITCH, whose missing rules are built in one batch, the
    H0 energy rule's below. One `log_phi_exact`
    call then covers them all, and each value is finished on its own with
    the arithmetic and checks of a single pair, so it has the same bits.

    The direct route evaluates ln Phi only at the nodes whose term can
    matter. Its integrand f(s) = e^{-s}/Phi(q, s, n) falls in s, since
    e^s Phi = E_v[(1+qv)^{-n} e^{s qv/(1+qv)}] grows, and Phi(q, 0, n) >=
    E_v[e^{-nqv}] = 1/(1 + nq); so node i adds at most w_i (1 + nq). A
    node where that is at most _ZETA_NEGLIGIBLE = 2^-64 keeps ln Phi =
    +inf: its term is exactly 0, in its own place of the same dot
    product, while the sum is at least about 1. That keeps 55-77 of the
    128 nodes over q in (50, 1e5] and n in [1, 5000], with the all-nodes
    sum's bits.
    """
    keys = [(float(q), float(n)) for q, n in pairs]
    for q, n in keys:
        _require_h0_law(q, n)
    values = {k: _ZETA_CACHE[k] for k in keys if k in _ZETA_CACHE}
    todo = [k for k in dict.fromkeys(keys) if k not in values]
    if todo:
        rules = iter(gamma_rules([n for q, n in todo
                                  if q > _ZETA_DIRECT_SWITCH]))
        nodes = [h0_energy_layout(q, n) if q <= _ZETA_DIRECT_SWITCH
                 else next(rules) for q, n in todo]
        keep = [np.ones(z.size, bool) if q <= _ZETA_DIRECT_SWITCH
                else w * (1.0 + n * q) > _ZETA_NEGLIGIBLE
                for (q, n), (z, w) in zip(todo, nodes)]
        sizes = [int(k.sum()) for k in keep]
        log_phi = np.split(
            log_phi_exact(np.repeat([q for q, _ in todo], sizes),
                          np.concatenate([z[k] for (z, _), k
                                          in zip(nodes, keep)]),
                          np.repeat([n for _, n in todo], sizes)),
            np.cumsum(sizes)[:-1])
        for (q, n), (z, w), k, lp in zip(todo, nodes, keep, log_phi):
            full = np.full(z.size, np.inf)
            full[k] = lp
            values[q, n] = _zeta_finish(q, n, z, w, full)
        _ZETA_CACHE.update((k, values[k]) for k in todo)
        while len(_ZETA_CACHE) > _ZETA_CACHE_SIZE:
            del _ZETA_CACHE[next(iter(_ZETA_CACHE))]
    return np.array([values[k] for k in keys])


def _zeta_finish(q: float, n: float, z, w, log_phi_q) -> float:
    """zeta from the nodes, weights and ln Phi of its route."""
    if q <= _ZETA_DIRECT_SWITCH:
        r = h0_energy_finish(q, n, z, w, log_phi_q)
        resid = -np.expm1(-r.z - r.log_phi_q)
        val = r.expectation(resid * resid)
    else:
        val = float(np.dot(w, np.exp(-z - log_phi_q))) - 1.0
    if not np.isfinite(val) or val < 0.0:
        raise ArithmeticError(f"zeta({q}, {n}) evaluation failed: {val!r}")
    return val


def tv_exact_n(p: float, q: float, n: float) -> float:
    """Exact TV between the n-sample energy laws: (1/2) E_{H0}|Psi - 1|.

    The same band law as `kl_divergence`, reduced to (1/2) E_{H0}|delta|.
    This is the finite-sample analogue of the single-band TV eta(chi)
    (which it approaches as n -> inf) and the analytic reference for the
    simulated detector's minimum error sum, 1 - TV.
    """
    r, delta = _band_delta(p, q, n)
    return 0.5 * r.expectation(np.abs(delta))


def pinsker_budget(kls, L: int) -> float:
    """Multi-block Pinsker bound sqrt(L/2 sum_k D_k) on the detector's TV."""
    kls = np.asarray(kls, dtype=float)
    if not np.all(kls >= 0.0):
        raise ValueError("KL divergences must be nonnegative numbers")
    if L < 1:
        raise ValueError("L must be >= 1")
    return math.sqrt(0.5 * L * float(kls.sum()))


def limit_kl(chi: float) -> float:
    """KL(jamming-only || with-transmission) of the limiting band densities.

    In the scale-free variable t the reference density is e^{-t} and the
    transmission one is (e^{-t} - e^{-t/chi})/(1 - chi). Expanding
    ln(1 - e^{-t/x}), x = chi/(1 - chi), termwise gives the closed form
    D = ln(1 - chi) + psi(1/(1 - chi)) + gamma_E, with D(0) = 0. For
    x < 0.05 that sum cancels to D ~ 0.64 x, so the power series
    D = sum_m (-1)^(m+1) (zeta(m+1) - 1/m) x^m is used instead; both agree
    to about 1e-15 relative at the switch. scipy.special is imported here
    and in `band_affinity`, the fig2 bounds that use it, not with the
    package.
    """
    from scipy.special import digamma
    from scipy.special import zeta as riemann_zeta

    _require_chi(chi)
    x = chi / (1.0 - chi)
    if x < 0.05:
        # zeta(m + 1) - 1/m, m = 1..16: the series coefficients.
        series = riemann_zeta(np.arange(2.0, 18.0)) - 1.0 / np.arange(1, 17)
        return x * float(polyval(-x, series))
    return math.log1p(-chi) + float(digamma(1.0 / (1.0 - chi))) \
        + np.euler_gamma


def band_affinity(chi: float) -> float:
    """Bhattacharyya affinity of the limiting band densities, in (0, 1].

    int_0^inf e^{-t} sqrt((1 - e^{-t/x})/(1 - chi)) dt with
    x = chi/(1 - chi); substituting u = e^{-t/x} gives
    x B(x, 3/2) / sqrt(1 - chi), with rho(0) = 1.
    """
    from scipy.special import beta

    _require_chi(chi)
    if chi == 0.0:
        return 1.0
    x = chi / (1.0 - chi)
    return x * float(beta(x, 1.5)) / math.sqrt(1.0 - chi)


def hellinger_bound(affinity: float) -> float:
    """TV bound sqrt(1 - rho^2) from a product law's Bhattacharyya affinity."""
    return math.sqrt(max(0.0, 1.0 - affinity * affinity))


def solve_chi_star(epsilon):
    """Largest chi with eta(chi) <= epsilon: chi = W0(eps ln eps) / ln eps.

    The Lambert W inverse (Corless et al., "On the Lambert W function",
    1996; `_lambert_w0`) is ill-conditioned toward eps = 1/e, so it is
    polished by Newton on ln eta(chi) = ln eps and then stepped down by
    ulps until eta(chi) <= eps holds in floating point. Vectorized over
    epsilon in (0, 1); a scalar gives a float. Where even
    eta(1 - 1e-12) <= epsilon (every epsilon >= 1/e among them),
    1 - 1e-12 is returned.
    """
    eps = np.asarray(epsilon, dtype=float)
    if not np.all((eps > 0.0) & (eps < 1.0)):
        raise ValueError("epsilon must lie in (0, 1)")
    ln_eps = np.log(eps).ravel()
    w0 = _lambert_w0(eps.ravel() * ln_eps)

    def log_gap(x, rows):
        # ln eta(x) - ln eps, d/dx (inf at subnormal x) and rounding floor
        ln_eta = np.log(x) / (1.0 - x)
        with np.errstate(over="ignore"):
            slope = (1.0 / x + ln_eta) / (1.0 - x)
        return ln_eta - ln_eps[rows], slope, \
            4e-16 * (np.abs(ln_eta) + np.abs(ln_eps[rows]))

    # Started at the cap where eta(1 - 1e-12) <= eps, the search stays there.
    start = np.where(eta(_CHI_TOP) <= eps.ravel(), _CHI_TOP,
                     np.minimum(w0 / ln_eps, _CHI_TOP))
    chi = increasing_roots(log_gap, start, 0.0, _CHI_TOP).reshape(eps.shape)
    high = eta(chi) > eps
    while np.any(high):
        chi = np.where(high, np.nextafter(chi, 0.0), chi)
        high = eta(chi) > eps
    return float(chi) if chi.ndim == 0 else chi


def _lambert_w0(x: np.ndarray) -> np.ndarray:
    """Principal branch W0 of the Lambert W function on [-1/e, 0).

    The algorithm of SciPy's `lambertw` (Corless et al. 1996), step for
    step on real numbers, so the result has its bits: within |x + 1/e| <
    0.3 the branch-point series -1 + p - p^2/3, p = sqrt(2 (e x + 1)),
    elsewhere the (3, 2) Pade approximant at 0, each polynomial evaluated
    as Knuth's two-term recurrence with fused multiply-adds (`_fma`);
    then Halley's iteration on w e^w = x, with the C library's exp, until
    a step is within 1e-8 relative, which returns the stepped value. An x
    whose series argument rounds below 0, or that the iteration cannot
    leave (the branch point, where SciPy gives NaN), gives -1.
    """
    x = np.asarray(x, float).ravel()
    near = np.abs(x + math.exp(-1.0)) < 0.3
    w = np.empty_like(x)
    with np.errstate(invalid="ignore"):
        w[near] = _knuth_polyval((-1.0 / 3.0, 1.0, -1.0),
                                 np.sqrt(2.0 * (math.e * x[near] + 1.0)))
    far = x[~near]
    w[~near] = far * _knuth_polyval(_W0_PADE_NUM, far) \
        / _knuth_polyval(_W0_PADE_DEN, far)
    out = np.full_like(x, -1.0)
    rows = np.flatnonzero(~np.isnan(w))
    for _ in range(_LAMBERT_MAX_STEPS):
        if rows.size == 0:
            return out
        wr, xr = w[rows], x[rows]
        ew = np.array([math.exp(v) for v in wr.tolist()])
        wew = wr * ew
        wewz = wew - xr
        with np.errstate(divide="ignore", invalid="ignore"):
            wn = wr - wewz / (wew + ew - (wr + 2.0) * wewz / (2.0 * wr + 2.0))
        done = np.abs(wn - wr) <= 1e-8 * np.abs(wn)
        out[rows[done]] = wn[done]
        w[rows] = wn
        rows = rows[~done & ~np.isnan(wn)]
    raise ArithmeticError("Lambert W0 iteration did not converge")


def _knuth_polyval(coeffs, x: np.ndarray) -> np.ndarray:
    """sum_j coeffs[j] x^(d - j), d = len(coeffs) - 1 >= 1, by the real
    case of Knuth's recurrence for a complex argument (TAOCP 4.6.4, eq. 3),
    the evaluation SciPy's `lambertw` uses."""
    a, b = coeffs[0], coeffs[1]
    r = 2.0 * x
    s = x * x
    for c in coeffs[2:]:
        a, b = _fma(r, a, b), _fma(-s, a, c)
    return x * a + b


def _fma(a, b, c) -> np.ndarray:
    """a b + c rounded once, element by element, as C's fma.

    a b = p + e exactly (Dekker's product, with Veltkamp's split), and two
    exact sums give p + e + c = r + w + v with r = round(s + u), s = p + c,
    u its error plus e. That rounds to r unless |w| + |v| reaches half an
    ulp of r or r is a power of two, where the gap below is halved; those
    rare elements are rounded by `math.fsum`, which is exact.
    """
    a, b, c = np.broadcast_arrays(*(np.asarray(v, float) for v in (a, b, c)))
    p = a * b
    h = _VELTKAMP * a
    a_hi = h - (h - a)
    a_lo = a - a_hi
    h = _VELTKAMP * b
    b_hi = h - (h - b)
    b_lo = b - b_hi
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    s, t = _two_sum(p, c)
    u, v = _two_sum(t, e)
    r, w = _two_sum(s, u)
    hard = ((np.abs(w) + np.abs(v)) * 2.0 >= np.abs(np.spacing(r))) \
        | (np.abs(np.frexp(r)[0]) == 0.5) | ~np.isfinite(r)
    if hard.any():
        r[hard] = [math.fsum(terms) for terms in zip(
            p[hard].tolist(), e[hard].tolist(), c[hard].tolist())]
    return r


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple:
    """(a + b rounded, its exact error), Knuth's branch-free sum."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)
