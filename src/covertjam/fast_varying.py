"""Pilot-length and power allocation for fast-varying fading.

Maximizes the training-aware ergodic sum rate over the transmit powers
(through the band ratios chi_k) and the pilot fraction tau = N_t / N,
subject to the quadratic covertness budget sum_k zeta_k chi_k^2 / 2 <=
2 eps^2 / L. Two solvers:

  * exhaustive search (ES) over the pilot grid Z_N = {1/N, ..., (N-1)/N},
    exact because the fixed-tau problem is concave and solved to optimality
    by a Newton search on its one dual multiplier; the whole grid is one
    call of the fixed-tau kernel chi_given_tau, which is vectorised over
    taus and bands (a scalar tau is its T = 1 case),
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
from .roots import increasing_root, increasing_roots
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


# AO stops once the relative objective change is at most _AO_TOL.
_AO_TOL = 1e-6
_AO_MAX_ITER = 50


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
    """Optimal powers at fixed pilot fractions by a Newton solve of the dual.

    tau is a scalar or a (T,) array of pilot fractions; zeta_values is
    (T, K), one row of covertness coefficients per tau, or (K,) shared by
    every tau. Returns (chis, lam): chis of shape (T, K) and lam of shape
    (T,), or a (K,) array and a float for a scalar tau, which is the T = 1
    case of the same arithmetic. Rows do not interact: each follows the
    scalar recipe bit for bit.

    Stationarity of each band is a cubic with positive coefficients,
    P(chi) = chi ((G+E) chi + F)(E chi + F) = G F / (lam zeta_k) = rhs,
    convex and increasing, so Newton from an upper cap converges to its
    root monotonically. The budget used, s, falls with lam and ln s is
    nearly linear in ln lam, d ln s / d ln lam = -(1/s) sum_k zeta_k chi_k
    rhs_k / P'(chi_k), so Newton on ln lam over [1e-12, 2^61] drives each
    row's budget to activity; both solves are `roots.increasing_roots`.
    The budget binds at any optimum (the rate increases in every chi_k).
    Failures raise ArithmeticError naming the pilot fractions.
    """
    z = np.asarray(zeta_values, float)
    if not np.all((z > 0.0) & (z < np.inf)):
        raise ValueError("zeta values must be positive and finite")
    if not 0.0 < budget < np.inf:
        raise ValueError("budget must be positive and finite")
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
    ln_budget = math.log(budget)

    def gap(y: np.ndarray, rows: np.ndarray):
        """ln budget - ln s at lam = 1e-12 e^y, its y-derivative, the chis."""
        rhs = (g_t[rows] * f_t[rows] / (1e-12 * np.exp(y)[:, None]
                                        * z[rows])).ravel()
        c3, c2, c1 = (c[rows].ravel() for c in (a3, a2, a1))

        def cubic(c, i):
            return ((c3[i] * c + c2[i]) * c + c1[i]) * c - rhs[i], \
                (3.0 * c3[i] * c + 2.0 * c2[i]) * c + c1[i], 1e-15 * rhs[i]

        # Either the cubic or the linear term alone reaching rhs bounds the
        # root, so the smaller of the two caps is a valid upper bracket.
        with np.errstate(divide="ignore"):
            cap = np.minimum(np.cbrt(rhs / np.where(c3 > 0, c3, np.inf)),
                             rhs / c1)
        chi = increasing_roots(cubic, cap, 0.0, cap)
        pull = (chi * rhs / cubic(chi, slice(None))[1]).reshape(-1, params.K)
        chi = chi.reshape(pull.shape)
        # A stacked matmul sums each row exactly as np.dot on that row.
        zr = z[rows][:, None, :]
        s = 0.5 * (zr @ (chi * chi)[:, :, None])[:, 0, 0]
        return ln_budget - np.log(s), (zr @ pull[:, :, None])[:, 0, 0] / s, chi

    def fail(message: str, rows: np.ndarray):
        raise ArithmeticError(f"{message} (tau = {taus[rows].tolist()})")

    every = np.arange(taus.size)
    y_top = math.log(2.0**61 / 1e-12)
    f_lo = gap(np.zeros(taus.size), every)[0]
    if np.any(f_lo >= 0.0):
        fail("budget not binding at the bracket floor", f_lo >= 0.0)
    f_hi = gap(np.full(taus.size, y_top), every)[0]
    if np.any(f_hi < 0.0):
        fail("budget still overspent at lambda = 2^61: bracket expansion "
             "failed", f_hi < 0.0)
    floor = 1e-14 + 1e-15 * abs(ln_budget)
    # ln s is nearly linear in y, so Newton starts on the chord of the ends.
    y = increasing_roots(lambda y, rows: gap(y, rows)[:2] + (floor,),
                         y_top * f_lo / (f_lo - f_hi), 0.0, y_top)
    miss, _, chis = gap(y, every)
    off = np.abs(miss) > 1e-10
    if np.any(off):
        fail("budget activity residual above tolerance", off)
    lam = 1e-12 * np.exp(y)
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
    1-, so the slope has a single root, found by `roots.increasing_root`
    with the slope's derivative in closed form.
    """
    chis = np.asarray(chis, float)
    if not np.all((chis >= 0.0) & (chis < np.inf)) or not np.any(chis > 0.0):
        raise ValueError("need finite, nonnegative chi, not all zero")
    g_b = chis * params.Gk
    e_b = chis * params.Ek + params.F1
    f_b = chis * params.mu_tilde + params.F2

    def minus_slope(tau: float):
        # With D1 = (g+e) tau + f, D2 = e tau + f and h = g f/(D1 D2), the
        # slope is (1-tau) sum h - sum ln(D1/D2), and its derivative
        # -2 sum h - (1-tau) sum h ((g+e)/D1 + e/D2).
        d1 = (g_b + e_b) * tau + f_b
        d2 = e_b * tau + f_b
        gain = g_b * f_b / (d1 * d2)
        loss = float(np.sum(np.log1p(g_b * tau / d2)))
        rest = (1.0 - tau) * float(np.sum(gain))
        curve = float(np.sum(gain * ((g_b + e_b) / d1 + e_b / d2)))
        return loss - rest, 2.0 * float(np.sum(gain)) + (1.0 - tau) * curve, \
            1e-14 * (loss + rest)

    lo, hi = 1e-15, 1.0 - 1e-15
    if minus_slope(lo)[0] >= 0.0 or minus_slope(hi)[0] <= 0.0:
        raise ArithmeticError("tau derivative lost its sign change")
    tau = increasing_root(minus_slope, 0.5, lo, hi)
    if abs(minus_slope(tau)[0]) > 1e-8 * max(1.0, float(np.sum(g_b / f_b))):
        raise ArithmeticError("tau root residual above tolerance")
    return tau


def ao_solve(params: FastVaryingParams, tau0: float = 0.5,
             n_d_mode: str = "data") -> FvSolveResult:
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

    tau, trace, prev, converged = tau0, [], None, False
    for it in range(1, _AO_MAX_ITER + 1):
        chis, lam = chi_given_tau(tau, params, z_frozen, budget)
        tau = tau_given_chi(chis, params)
        obj = ergodic_sum_rate(chis, tau, params)
        trace.append({"iteration": it, "objective": obj, "lam": lam,
                      "tau": tau})
        converged = prev is not None \
            and abs(obj - prev) <= _AO_TOL * max(abs(prev), 1e-300)
        if converged:
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
