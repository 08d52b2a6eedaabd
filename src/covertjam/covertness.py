"""Covertness metrics and bounds.

Single-band total variation in closed form, the sum-of-eta upper bound for
products, Monte-Carlo TV cross-checks, the KL divergence of the adversary's
multi-sample energy test, its small-signal quadratic coefficient zeta, the
Pinsker multi-block budget, and the KL divergence and Bhattacharyya
affinity of the limiting band densities behind the Pinsker and Hellinger
bounds.

Normalization convention: band quantities p = p_hat/sigma2_A and
q = q_hat/sigma2_A are dimensionless; chi = p/q = p_hat/q_hat is the
solvers' decision variable. Everything TV-related depends on chi alone, so
the TV functions take chi; the n-sample ones take the floats p and q.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.polynomial import polyval
from scipy.integrate import quad
from scipy.special import beta, digamma, lambertw
from scipy.special import zeta as riemann_zeta

from .quadrature import gamma_rule, h0_energy_rule, log_phi_exact
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

# zeta(m + 1) - 1/m, m = 1..16: limit_kl's series coefficients for small x.
_LIMIT_KL_SERIES = riemann_zeta(np.arange(2.0, 18.0)) - 1.0 / np.arange(1, 17)

# Largest chi solve_chi_star returns; eta(chi) -> 1/e as chi -> 1.
_CHI_TOP = 1.0 - 1e-12


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
    a single sign. Absolute tolerance 1e-8.
    """
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


def likelihood_ratio_delta(p: float, q: float, z, log_phi_p,
                           log_phi_q) -> np.ndarray:
    """Psi(p, q, z) - 1 for the n-sample energy likelihood ratio.

    Psi = 1 + p/(q-p) (1 - Phi(p,z)/Phi(q,z)); the deviation is computed
    as -expm1(ln Phi_p - ln Phi_q) so that Psi near 1 keeps full precision.
    ln Phi(p, z) and ln Phi(q, z) are arrays matching z: the exact values,
    the H0 rule's stored ones, or the detector's splines.
    """
    if not 0.0 <= p < q:
        raise ValueError("requires 0 <= p < q")
    if p == 0.0:
        return np.zeros(np.shape(z))
    delta = -(p / (q - p)) * np.expm1(log_phi_p - log_phi_q)
    # Psi is a likelihood ratio, hence positive; floor tiny numerical dips.
    return np.maximum(delta, -1.0 + 1e-300)


def log_psi(p: float, q: float, z, n: float) -> np.ndarray:
    """ln Psi(p, q, z), the adversary's per-band log likelihood ratio."""
    return np.log1p(likelihood_ratio_delta(
        p, q, z, log_phi_exact(p, z, n), log_phi_exact(q, z, n)))


def kl_divergence(p: float, q: float, n: float) -> float:
    """KL divergence D(H0 || H1) of the n-sample normalized band energy.

    Since E_{H0}[Psi] = 1 exactly, D = -E_{H0}[ln Psi] equals
    E_{H0}[Psi - 1 - ln Psi], whose integrand delta - log1p(delta) is
    nonnegative and immune to the cancellation that kills the naive form
    when Psi ~ 1. The H0 expectation is the certified 1-D energy rule
    (the mixture density is z^{n-1} Phi(q, z, n) / Gamma(n) exactly).
    """
    if not 0.0 <= p < q:
        raise ValueError("requires 0 <= p < q")
    if n < 1:
        raise ValueError("n must be >= 1")
    if p == 0.0:
        return 0.0
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
    variance because E_{H0}[e^{-z}/Phi(q,z)] = 1 identically.

    `rule` selects nothing and must stay None: ln Phi has a single
    evaluator. The keyword remains only because the bench harness
    (`bench/tracing.py::_zeta_key`) binds zeta's arguments by name; it goes
    once that code stops reading it.
    """
    if rule is not None:
        raise TypeError("zeta takes no quadrature rule; pass rule=None")
    if q <= 0.0:
        raise ValueError("q must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    # Pilot-grid sweeps hit the same (q, n) pairs across scenarios.
    return _zeta_cached(float(q), float(n))


@lru_cache(maxsize=4096)
def _zeta_cached(q: float, n: float) -> float:
    if q <= _ZETA_DIRECT_SWITCH:
        r = h0_energy_rule(q, n)
        resid = -np.expm1(-r.z - r.log_phi_q)
        val = r.expectation(resid * resid)
    else:
        s, w = gamma_rule(n)
        val = float(np.dot(w, np.exp(-s - log_phi_exact(q, s, n)))) - 1.0
    if not np.isfinite(val) or val < 0.0:
        raise ArithmeticError(f"zeta({q}, {n}) evaluation failed: {val!r}")
    return val


def tv_exact_n(p: float, q: float, n: float) -> float:
    """Exact TV between the n-sample energy laws: (1/2) E_{H0}|Psi - 1|.

    This is the finite-sample analogue of the single-band TV eta(chi)
    (which it approaches as n -> inf) and the analytic reference for the
    simulated detector's minimum error sum, 1 - TV.
    """
    if not 0.0 <= p < q:
        raise ValueError("requires 0 <= p < q")
    if p == 0.0:
        return 0.0
    r = h0_energy_rule(q, n)
    delta = likelihood_ratio_delta(p, q, r.z, log_phi_exact(p, r.z, n),
                                   r.log_phi_q)
    return 0.5 * r.expectation(np.abs(delta))


def pinsker_budget(kls, L: int) -> float:
    """Multi-block Pinsker bound sqrt(L/2 sum_k D_k) on the detector's TV."""
    kls = np.asarray(kls, dtype=float)
    if np.any(kls < 0.0):
        raise ValueError("KL divergences must be nonnegative")
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
    if not 0.0 <= chi < 1.0:
        raise ValueError("chi must lie in [0, 1)")
    x = chi / (1.0 - chi)
    if x < 0.05:
        return x * float(polyval(-x, _LIMIT_KL_SERIES))
    return math.log1p(-chi) + float(digamma(1.0 / (1.0 - chi))) \
        + np.euler_gamma


def band_affinity(chi: float) -> float:
    """Bhattacharyya affinity of the limiting band densities, in (0, 1].

    int_0^inf e^{-t} sqrt((1 - e^{-t/x})/(1 - chi)) dt with
    x = chi/(1 - chi); substituting u = e^{-t/x} gives
    x B(x, 3/2) / sqrt(1 - chi), with rho(0) = 1.
    """
    if not 0.0 <= chi < 1.0:
        raise ValueError("chi must lie in [0, 1)")
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
    1996) is ill-conditioned toward eps = 1/e, so it is polished by Newton
    on ln eta(chi) = ln eps and then stepped down by ulps until
    eta(chi) <= eps holds in floating point. Vectorized over epsilon in
    (0, 1); a scalar gives a float. Where even eta(1 - 1e-12) <= epsilon
    (every epsilon >= 1/e among them), 1 - 1e-12 is returned.
    """
    eps = np.asarray(epsilon, dtype=float)
    if not np.all((eps > 0.0) & (eps < 1.0)):
        raise ValueError("epsilon must lie in (0, 1)")
    ln_eps = np.log(eps).ravel()
    # scipy's W0 is NaN where eps ln eps rounds below -1/e; fmax gives -1.
    w0 = np.fmax(lambertw(eps.ravel() * ln_eps).real, -1.0)

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
