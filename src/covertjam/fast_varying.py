"""Pilot-length and power allocation for fast-varying fading.

Maximizes the training-aware ergodic sum rate over the transmit powers
(through the band ratios chi_k) and the pilot fraction tau = N_t / N,
subject to the quadratic covertness budget sum_k zeta_k chi_k^2 / 2 <=
2 eps^2 / L. Two solvers:

  * exhaustive search (ES) over the pilot grid Z_N = {1/N, ..., (N-1)/N},
    exact because the fixed-tau problem is concave and solved to optimality
    by a dual bisection; the whole grid is one call of the fixed-tau
    kernel chi_given_tau, which is vectorised over taus and bands (a
    scalar tau is its T = 1 case),
  * alternating optimization (AO) on a relaxed constraint that replaces
    zeta_k(tau) by the tau-independent zeta(q_k, N); the pilot fraction is
    continuous during the alternation, rounded to the grid at the end, and
    the powers are re-solved against the true constraint at the rounded tau.

Rates are in nats per symbol.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .covertness import zeta
from .scenario import FastVaryingParams

__all__ = [
    "FvSolveResult",
    "ergodic_sum_rate",
    "chi_given_tau",
    "es_solve",
    "tau_given_chi",
    "ao_solve",
    "zeta_vector",
]


@dataclass
class FvSolveResult:
    """Solution of the pilot/power problem plus solver diagnostics."""

    chi: np.ndarray
    tau: float
    N_t: int
    objective: float
    lam: float
    method: str
    trace: list
    budget: float
    budget_used: float
    converged: bool = True

    def __post_init__(self):
        self.chi = np.asarray(self.chi, float)
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must lie in (0, 1)")
        if self.N_t < 1:
            raise ValueError("need at least one pilot symbol")
        block = self.N_t / self.tau  # tau = N_t / N, so this must be N
        if abs(block - round(block)) > 1e-6:
            raise ValueError("tau is not on the pilot grid")
        if self.budget_used > self.budget + 1e-12:
            raise ValueError("covertness budget exceeded")


def _snr_terms(params: FastVaryingParams, tau):
    """Per-band SNR coefficients at pilot fraction tau (or a (T, 1) column)."""
    g_t = tau * params.Gk
    e_t = tau * params.Ek + params.mu_tilde
    f_t = tau * params.F1 + params.F2
    return g_t, e_t, f_t


def ergodic_sum_rate(chis, tau: float, params: FastVaryingParams) -> float:
    """(1 - tau) sum_k ln(1 + chi_k tau G_k / (chi_k (tau E_k + mu_k) + tau F1_k + F2_k))."""
    chis = np.asarray(chis, float)
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie in (0, 1)")
    if np.any(chis < 0.0):
        raise ValueError("chi must be nonnegative")
    g_t, e_t, f_t = _snr_terms(params, tau)
    snr = chis * g_t / (chis * e_t + f_t)
    return (1.0 - tau) * float(np.sum(np.log1p(snr)))


def chi_given_tau(tau, params: FastVaryingParams, zeta_values, budget: float):
    """Optimal powers at fixed pilot fractions by dual bisection.

    tau is a scalar or a (T,) array of pilot fractions; zeta_values is
    (T, K), one row of covertness coefficients per tau, or (K,) shared by
    every tau. Returns (chis, lam): chis of shape (T, K) and lam of shape
    (T,), or a (K,) array and a float for a scalar tau, which is the T = 1
    case of the same arithmetic. Rows do not interact: each follows the
    scalar recipe bit for bit.

    Stationarity of each band is a cubic with positive coefficients,
    chi ((G+E) chi + F)(E chi + F) = G F / (lam zeta_k), whose unique
    positive root is found by monotone bisection (vectorized over taus and
    bands). The quadratic budget is strictly decreasing in lam, so an outer
    bisection per row drives it to activity. The budget binds at any
    optimum (the rate is strictly increasing in every chi_k).
    """
    z = np.asarray(zeta_values, float)
    if np.any(z <= 0.0):
        raise ValueError("zeta values must be positive")
    if budget <= 0.0:
        raise ValueError("budget must be positive")
    tau = np.asarray(tau, float)
    if tau.ndim > 1:
        raise ValueError("tau must be a scalar or a 1-D array")
    taus = tau.reshape(-1)
    if not np.all((taus > 0.0) & (taus < 1.0)):
        raise ValueError("tau must lie in (0, 1)")
    shape = (taus.size, params.K)
    if z.shape not in (shape[1:], shape):
        raise ValueError(f"zeta values of shape {z.shape} do not match "
                         f"{taus.size} taus and {params.K} bands")
    z = np.broadcast_to(z, shape)
    g_t, e_t, f_t = _snr_terms(params, taus[:, None])
    a3 = (g_t + e_t) * e_t
    a2 = f_t * (g_t + 2.0 * e_t)
    a1 = f_t * f_t

    def spent(lam: np.ndarray):
        rhs = g_t * f_t / (lam[:, None] * z)
        # Either the cubic or the linear term alone reaching rhs bounds the
        # root, so the smaller of the two caps is a valid upper bracket.
        with np.errstate(divide="ignore"):
            hi = np.minimum(np.cbrt(rhs / np.where(a3 > 0, a3, np.inf)),
                            rhs / a1)
        lo = np.zeros_like(hi)
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            lhs = ((a3 * mid + a2) * mid + a1) * mid
            take = lhs < rhs
            lo = np.where(take, mid, lo)
            hi = np.where(take, hi, mid)
        # A stacked matmul sums each row exactly as np.dot on that row.
        return 0.5 * (z[:, None, :] @ (hi * hi)[:, :, None])[:, 0, 0], hi

    def fail(message: str, rows: np.ndarray):
        raise ArithmeticError(f"{message} (tau = {taus[rows].tolist()})")

    lo = np.full(taus.size, 1e-12)
    s_lo, _ = spent(lo)
    if np.any(s_lo <= budget):
        fail("budget not binding at the bracket floor", s_lo <= budget)
    hi = np.ones(taus.size)
    s_hi, _ = spent(hi)
    guard = 0
    while np.any(s_hi > budget):
        grow = s_hi > budget
        lo = np.where(grow, hi, lo)
        hi = np.where(grow, hi * 2.0, hi)
        s_hi, _ = spent(hi)
        guard += 1
        if guard > 60:
            fail("lambda bracket expansion failed", grow)
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        s_mid, _ = spent(mid)
        above = s_mid > budget
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    lam = 0.5 * (lo + hi)
    used, chis = spent(lam)
    off = np.abs(used - budget) > 1e-10 * budget
    if np.any(off):
        fail("budget activity residual above tolerance", off)
    if tau.ndim == 0:
        return chis[0], float(lam[0])
    return chis, lam


def zeta_vector(params: FastVaryingParams, n_d: float) -> np.ndarray:
    """zeta(q_k, n_d) per band; bands with equal q share one evaluation."""
    qs = [float(q) for q in params.q_norm]
    values = {q: zeta(q, float(n_d)) for q in dict.fromkeys(qs)}
    return np.array([values[q] for q in qs])


def _adversary_samples(params: FastVaryingParams, n_t: int, mode: str) -> int:
    """Samples available to the adversary when n_t symbols are pilots."""
    if mode == "data":
        return params.N - n_t
    if mode == "full":
        return params.N
    raise ValueError("n_d_mode must be 'data' or 'full'")


def es_solve(params: FastVaryingParams,
             n_d_mode: str = "data") -> FvSolveResult:
    """Exhaustive search over the pilot grid; exact fixed-tau subproblems.

    Every grid point N_t = 1..N-1 is solved at once by one batched
    chi_given_tau call on the (N-1, K) matrix of covertness coefficients;
    each row is then scored, and the best rate wins (ties toward fewer
    pilots). n_d_mode selects how many symbols the adversary tests: "data"
    uses the jammed data phase N - N_t (the baseline convention), "full"
    the whole block N.
    """
    budget = params.budget
    n_ts = range(1, params.N)
    taus = [n_t / params.N for n_t in n_ts]
    z = np.array([zeta_vector(params, _adversary_samples(params, n_t, n_d_mode))
                  for n_t in n_ts])
    chis, lams = chi_given_tau(np.array(taus), params, z, budget)
    objs = [ergodic_sum_rate(c, tau, params) for c, tau in zip(chis, taus)]
    trace = [{"tau": tau, "objective": obj, "lam": float(lam)}
             for tau, obj, lam in zip(taus, objs, lams)]
    i = max(range(len(objs)), key=lambda j: (objs[j], -j))
    chi = chis[i]
    return FvSolveResult(chi=chi, tau=taus[i], N_t=n_ts[i], objective=objs[i],
                         lam=float(lams[i]), method="es", trace=trace,
                         budget=budget,
                         budget_used=0.5 * float(np.dot(z[i], chi * chi)))


def tau_given_chi(chis, params: FastVaryingParams) -> float:
    """Optimal continuous pilot fraction at fixed powers.

    The rate is concave in tau with positive slope at 0+ and negative at
    1-, so the derivative has a single root, found by bisection to 1e-10.
    """
    chis = np.asarray(chis, float)
    if np.any(chis < 0.0) or not np.any(chis > 0.0):
        raise ValueError("need a nonnegative, not identically zero chi")
    g_b = chis * params.Gk
    e_b = chis * params.Ek + params.F1
    f_b = chis * params.mu_tilde + params.F2

    def slope(tau: float) -> float:
        snr = g_b * tau / (e_b * tau + f_b)
        gain = g_b * f_b / (((g_b + e_b) * tau + f_b) * (e_b * tau + f_b))
        return float(-np.sum(np.log1p(snr)) + (1.0 - tau) * np.sum(gain))

    lo, hi = 1e-15, 1.0 - 1e-15
    if slope(lo) <= 0.0 or slope(hi) >= 0.0:
        raise ArithmeticError("tau derivative lost its sign change")
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if slope(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    tau = 0.5 * (lo + hi)
    if abs(slope(tau)) > 1e-8 * max(1.0, float(np.sum(g_b / f_b))):
        raise ArithmeticError("tau root residual above tolerance")
    return tau


def ao_solve(params: FastVaryingParams, tau0: float = 0.5, tol: float = 1e-6,
             max_iter: int = 50, n_d_mode: str = "data") -> FvSolveResult:
    """Alternating power/pilot optimization with a final grid refinement.

    During the alternation the covertness coefficients are frozen at
    zeta(q_k, N) (full-block observation), which makes the feasible set
    independent of tau; each half-step is then an exact maximization, so
    the objective trace is nondecreasing. The continuous tau is rounded to
    the nearest grid point (ties toward more pilots) and the powers are
    re-solved against the true coefficients at the rounded tau, so the
    returned point satisfies the actual constraint with activity.
    """
    if not 0.0 < tau0 < 1.0:
        raise ValueError("tau0 must lie in (0, 1)")
    budget = params.budget
    z_frozen = zeta_vector(params, params.N)

    tau = tau0
    trace = []
    prev = None
    converged = False
    for it in range(1, max_iter + 1):
        chis, lam = chi_given_tau(tau, params, z_frozen, budget)
        tau = tau_given_chi(chis, params)
        obj = ergodic_sum_rate(chis, tau, params)
        trace.append({"iteration": it, "objective": obj, "lam": lam,
                      "tau": tau})
        if prev is not None and abs(obj - prev) <= tol * max(abs(prev), 1e-300):
            converged = True
            prev = obj
            break
        prev = obj

    n_t = int(min(max(math.floor(tau * params.N + 0.5), 1), params.N - 1))
    tau_g = n_t / params.N
    z_true = zeta_vector(params, _adversary_samples(params, n_t, n_d_mode))
    if np.any(z_frozen < z_true * (1.0 - 1e-9)):
        warnings.warn(
            "full-block covertness coefficient is smaller than the "
            "data-phase one; the alternation phase was not conservative",
            RuntimeWarning)
    chis, lam = chi_given_tau(tau_g, params, z_true, budget)
    obj = ergodic_sum_rate(chis, tau_g, params)
    used = 0.5 * float(np.dot(z_true, chis * chis))
    trace.append({"iteration": len(trace) + 1, "objective": obj, "lam": lam,
                  "tau": tau_g})
    return FvSolveResult(chi=chis, tau=tau_g, N_t=n_t, objective=obj,
                         lam=lam, method="ao", trace=trace, budget=budget,
                         budget_used=used, converged=converged)
