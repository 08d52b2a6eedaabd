"""Independent restatements of model facts that only the tests read."""

import math

import numpy as np
from scipy.integrate import quad

from covertjam.covertness import _require_chi
from covertjam.scenario import gamma_constant, rng_stream


def beamforming_stats(M: int, N_t: float, mu_k: float):
    """Mean-square and variance of the estimated-channel beamforming gain.

    With MMSE channel estimation from N_t pilots at inverse pilot SNR mu_k,
    the normalized beamforming gain has
        mean_sq  = N_t/(N_t+mu) * G,   G = Gamma(M+1/2)^2 / Gamma(M)^2,
        variance = N_t/(N_t+mu) * E + mu/(N_t+mu),   E = M - G.
    """
    if N_t < 1:
        raise ValueError("N_t must be >= 1")
    if mu_k < 0:
        raise ValueError("mu_k must be nonnegative")
    g = gamma_constant(M)
    e = M - g
    w = N_t / (N_t + mu_k)
    return w * g, w * e + mu_k / (N_t + mu_k)


def feasibility_residual(state, params) -> float:
    """Worst constraint violation of an SCA iterate's (t, gamma, alpha, beta)."""
    res = [np.max(state.alpha - (1.0 - params.B * np.exp(-params.A * state.t))),
           np.max(state.beta - np.log1p(state.gamma)),
           float(np.dot(state.t, state.gamma)) - params.epsilon,
           -min(state.t.min(), state.gamma.min(),
                state.alpha.min(), state.beta.min())]
    return max(float(r) for r in res)


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
