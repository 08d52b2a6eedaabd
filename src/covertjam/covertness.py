"""Covertness metrics and bounds.

Single-band total variation in closed form, the sum-of-eta upper bound for
products, the exact TV of the two-band limiting product law, the KL
divergence of the adversary's multi-sample energy test, its small-signal
quadratic coefficient zeta, the Pinsker multi-block budget, and the KL
divergence and Bhattacharyya affinity of the limiting band densities
behind the Pinsker and Hellinger bounds.

Everything here is numpy and the standard library: the few special
functions the bounds need (the inverse of eta, digamma, the ln Gamma ratio
of the Bhattacharyya affinity) are solved or summed in place.

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
    _LEG_NODES,
    _LEG_WEIGHTS,
    _h0_energy_window,
    _require_h0_law,
    _stirling_remainder,
    gamma_rules,
    h0_energy_finish,
    h0_energy_layout,
    h0_energy_rule,
    log_phi_exact,
)
from .roots import increasing_root, increasing_roots

__all__ = [
    "eta",
    "tv_upper_bound",
    "tv_limit",
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
# Gamma(3/2), band_affinity's constant factor.
_HALF_SQRT_PI = 0.5 * math.sqrt(math.pi)

# zeta(m + 1) - 1/m, m = 1..16, correctly rounded: limit_kl's power series.
_LIMIT_KL_SERIES = (
    0.6449340668482264, 0.7020569031595942, 0.7489899003778049,
    0.7869277551433699, 0.8173430619844492, 0.8416826107152562,
    0.8612202133408015, 0.8770083928260822, 0.8898834640167069,
    0.9004941886041194, 0.9093369956442171, 0.9167893800142451,
    0.9231381712119818, 0.9286020168077356, 0.933348615592742,
    0.9375076371976379)
# B_2k / (2k), k = 1..7: the asymptotic series of digamma, whose remainder
# is below 2e-18 from a = 12 on.
_DIGAMMA_SERIES = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132,
                   -691 / 32760, 1 / 12)


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


def tv_limit(chis) -> float:
    """Exact TV between the two-band limiting product laws.

    In the scale-free t ~ Exp(1), band k's likelihood ratio is
    r(t) = (1 - e^{-t/x})/(1 - chi), x = chi/(1 - chi). E[(r1 r2 - 1)_+]
    over t2 is r1 u_+^{1/(1 - chi2)}, u = 1 - (1 - chi2)/r1, in closed form,
    and the integral over t is smooth past the kink t0 where u = 0. Band 1
    has the larger chi, so the value is symmetric. It runs in s = t - t0 on
    20-point Gauss-Legendre panels doubling in width from 2^-50 min(x1, 1)
    past s = 60. ln u is log1p(-q), q = 1 - u, where q < 1/2, and near the
    kink ln(d (1 - e^{-s/x1})/(1 - e^{-t/x1})), d = chi1 + chi2 - chi1 chi2,
    free of the cancellation in 1 - q. Below chi1 = 1e-20 the TV is
    eta1 + eta2 to rounding.
    """
    chis = np.asarray(chis, dtype=float)
    if chis.shape != (2,):
        raise ValueError(f"tv_limit takes exactly two bands, got {chis}")
    _require_chi(chis)
    chi2, chi1 = (float(c) for c in np.sort(chis))
    if chi1 < 1e-20:
        # eta1 + eta2 - TV ~ chi1 chi2 ln(1/chi1) is below an ulp of the
        # sum, and at subnormal chi the panel widths below underflow.
        return float(eta(chi1) + eta(chi2))
    x1 = chi1 / (1.0 - chi1)
    c = (1.0 - chi1) * (1.0 - chi2)
    d = chi1 + chi2 - chi1 * chi2
    t0 = -x1 * (math.log1p(-c) if c < 0.5 else math.log(d))
    first = 2.0 ** -50 * min(x1, 1.0)
    edges = np.append(0.0, np.ldexp(
        first, np.arange(math.ceil(math.log2(60.0 / first)) + 1)))
    half = 0.5 * np.diff(edges)
    s = ((edges[:-1] + half)[:, None] + half[:, None] * _LEG_NODES).ravel()
    t = t0 + s
    with np.errstate(divide="ignore", invalid="ignore"):
        em = -np.expm1(-t / x1)
        q = c / em
        ln_u = np.where(q < 0.5, np.log1p(-q),
                        np.log(d * -np.expm1(-s / x1) / em))
        f = np.exp(-t + np.log(em) - math.log1p(-chi1) + ln_u / (1.0 - chi2))
    return float(np.dot((half[:, None] * _LEG_WEIGHTS).ravel(), f))


def _require_p_below_q(p: float, q: float) -> None:
    """Psi's band condition 0 <= p < q, which a NaN p or q fails."""
    if not 0.0 <= p < q:
        raise ValueError("requires 0 <= p < q")


def likelihood_ratio_delta(p: float, q: float, z, log_phi_p,
                           log_phi_q) -> np.ndarray:
    """Psi(p, q, z) - 1 for the n-sample energy likelihood ratio.

    Psi = 1 + p/(q-p) (1 - Phi(p,z)/Phi(q,z)); the deviation is computed
    as -expm1(ln Phi_p - ln Phi_q) so that Psi near 1 keeps full precision.
    ln Phi(p, z) and ln Phi(q, z) are arrays matching z: the exact values
    or the H0 rule's stored ones.
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


def kl_divergence(p: float, q: float, n: float) -> float:
    """KL divergence D(H0 || H1) of the n-sample normalized band energy.

    Since E_{H0}[Psi] = 1 exactly, D = -E_{H0}[ln Psi] equals
    E_{H0}[Psi - 1 - ln Psi], whose integrand delta - log1p(delta) is
    nonnegative and immune to the cancellation that kills the naive form
    when Psi ~ 1. It is a reduction of the band's n-sample law: delta =
    Psi - 1, from the exact ln Phi(p, ., n), at the nodes of the certified
    H0 energy rule (density z^{n-1} Phi(q, z, n) / Gamma(n)), which is
    cached per (q, n) and shared with zeta. q, n and p are checked before
    any ln Phi or rule work.
    """
    _require_h0_law(q, n)
    _require_p_below_q(p, q)
    r = h0_energy_rule(q, n)
    delta = likelihood_ratio_delta(p, q, r.z, log_phi_exact(p, r.z, n),
                                   r.log_phi_q)
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

    The band law of `kl_divergence`, reduced to (1/2) E_{H0}|delta|.
    This is the finite-sample analogue of the single-band TV eta(chi)
    (which it approaches as n -> inf) and the analytic reference for the
    simulated detector's minimum error sum, 1 - TV.

    |delta| has a kink at the crossover z*, where ln Psi, increasing in z,
    is 0, and a 16-point panel across a kink is good to only about 1e-4
    relative. So the reduction takes its own H0 rule, whose panels break
    at z*; the shared rule of `kl_divergence` and zeta keeps its nodes.
    z* is found by Newton over the rule's window, with the slope from
    d Phi(x, z, n)/dz = -Phi(x, z, n + 1).
    """
    _require_h0_law(q, n)
    _require_p_below_q(p, q)
    if p == 0.0:
        return 0.0
    x = np.array([[p], [q]])
    ratio = p / (q - p)

    def log_psi_at(z):
        # ln Psi(z), its slope in z, and its rounding floor
        (lp, lp1), (lq, lq1) = log_phi_exact(x, z, [n, n + 1.0])
        delta = float(likelihood_ratio_delta(p, q, z, lp, lq))
        slope = ratio * math.exp(lp - lq) * (math.exp(lp1 - lp)
                                             - math.exp(lq1 - lq))
        return math.log1p(delta), slope / (1.0 + delta), \
            4e-16 * (abs(lp) + abs(lq)) * ratio

    z_lo, z_hi = _h0_energy_window(q, n)
    z_star = increasing_root(log_psi_at, n, z_lo, z_hi)
    z, panel_w = h0_energy_layout(q, n, breaks=(z_star,))
    log_phi_p, log_phi_q = log_phi_exact(x, z, n)
    r = h0_energy_finish(q, n, z, panel_w, log_phi_q)
    delta = likelihood_ratio_delta(p, q, z, log_phi_p, log_phi_q)
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
    to about 1e-15 relative at the switch.
    """
    _require_chi(chi)
    x = chi / (1.0 - chi)
    if x < 0.05:
        return x * float(polyval(-x, _LIMIT_KL_SERIES))
    return math.log1p(-chi) + _digamma(1.0 / (1.0 - chi)) + np.euler_gamma


def _digamma(a: float) -> float:
    """psi(a) for a > 0: the recurrence psi(a) = psi(a + 1) - 1/a up to
    a >= 12, then the asymptotic series ln a - 1/(2a) - sum_k B_2k/(2k a^2k)."""
    shift = 0.0
    while a < 12.0:
        shift += 1.0 / a
        a += 1.0
    r = 1.0 / (a * a)
    series = 0.0
    for c in reversed(_DIGAMMA_SERIES):
        series = series * r + c
    return math.log(a) - 0.5 / a - r * series - shift


def band_affinity(chi: float) -> float:
    """Bhattacharyya affinity of the limiting band densities, in (0, 1].

    int_0^inf e^{-t} sqrt((1 - e^{-t/x})/(1 - chi)) dt with
    x = chi/(1 - chi); substituting u = e^{-t/x} gives
    x B(x, 3/2) / sqrt(1 - chi) = Gamma(3/2) Gamma(a) / (Gamma(a + 1/2)
    sqrt(1 - chi)), a = x + 1, with rho(0) = 1. The ln Gamma ratio takes
    Stirling's form of both terms, whose large parts cancel in closed form
    to -ln(a)/2 + (1 - ln(1 + u)/u)/2, u = 1/(2a), plus the difference of
    the Stirling remainders: differencing two ln Gammas of size a ln a
    would lose about 1e-7 relative at x ~ 1e9.
    """
    _require_chi(chi)
    if chi == 0.0:
        return 1.0
    a = chi / (1.0 - chi) + 1.0
    u = 0.5 / a
    log_ratio = 0.5 * (1.0 - math.log1p(u) / u) - 0.5 * math.log(a) \
        + _stirling_remainder(a) - _stirling_remainder(a + 0.5)
    return _HALF_SQRT_PI * math.exp(log_ratio) / math.sqrt(1.0 - chi)


def hellinger_bound(affinity: float) -> float:
    """TV bound sqrt(1 - rho^2) from a product law's Bhattacharyya affinity."""
    return math.sqrt(max(0.0, 1.0 - affinity * affinity))


def solve_chi_star(epsilon):
    """Largest chi with eta(chi) <= epsilon.

    Newton on ln eta(chi) = ln eps, which is increasing and concave in chi,
    from chi = eps: eta(x) <= x puts the root at or above eps, so the
    iterates climb to it monotonically. The result is then stepped down by
    ulps until eta(chi) <= eps holds in floating point. Vectorized over
    epsilon in (0, 1); a scalar gives a float. Where even
    eta(1 - 1e-12) <= epsilon (every epsilon >= 1/e among them),
    1 - 1e-12 is returned.
    """
    eps = np.asarray(epsilon, dtype=float)
    if not np.all((eps > 0.0) & (eps < 1.0)):
        raise ValueError("epsilon must lie in (0, 1)")
    ln_eps = np.log(eps).ravel()

    def log_gap(x, rows):
        # ln eta(x) - ln eps, d/dx (inf at subnormal x) and rounding floor
        ln_eta = np.log(x) / (1.0 - x)
        with np.errstate(over="ignore"):
            slope = (1.0 / x + ln_eta) / (1.0 - x)
        return ln_eta - ln_eps[rows], slope, \
            4e-16 * (np.abs(ln_eta) + np.abs(ln_eps[rows]))

    # Started at the cap where eta(1 - 1e-12) <= eps, the search stays there.
    start = np.where(eta(_CHI_TOP) <= eps.ravel(), _CHI_TOP, eps.ravel())
    chi = increasing_roots(log_gap, start, 0.0, _CHI_TOP).reshape(eps.shape)
    high = eta(chi) > eps
    while np.any(high):
        chi = np.where(high, np.nextafter(chi, 0.0), chi)
        high = eta(chi) > eps
    return float(chi) if chi.ndim == 0 else chi
