"""Pilot-length and power allocation for fast-varying fading.

Maximizes the training-aware ergodic sum rate over the transmit powers
(through the band ratios chi_k) and the pilot fraction tau = N_t / N,
subject to the quadratic covertness budget sum_k zeta_k chi_k^2 / 2 <=
2 eps^2 / L. Two solvers:

  * exact search (ES) over the pilot grid Z_N = {1/N, ..., (N-1)/N},
    exact because the fixed-tau problem is concave and solved to optimality
    by a Newton search on its one dual multiplier. The per-data-symbol rate
    is nondecreasing in the pilot count, which bounds every grid point by
    the solved points above it, and so does the grid point's own problem
    solved with a solved point's (smaller) covertness coefficients; ES
    solves a coarse grid, then only the points neither bound rules out,
    each step one call of the fixed-tau kernel chi_given_tau, which is
    vectorised over taus and bands (a scalar tau is its T = 1 case),
  * alternating optimization (AO) on a relaxed constraint that replaces
    zeta_k(tau) by the tau-independent zeta(q_k, N); the pilot fraction is
    continuous during the alternation, rounded to the grid at the end, and
    the powers are re-solved against the true constraint at the rounded tau.

Rates are in nats per symbol.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass

import numpy as np

# zeta stays importable from here: bench/tracing.py traces it at this
# lookup site as well as at covertness.zeta.
from .covertness import zeta, zeta_pairs  # noqa: F401
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


# AO starts from the pilot fraction _AO_TAU0 and stops once the relative
# objective change is at most _AO_TOL.
_AO_TAU0 = 0.5
_AO_TOL = 1e-6
_AO_MAX_ITER = 50

# ES prunes a pilot count only if its rate bound is strictly below the best
# solved objective times 1 - _ES_PRUNE_MARGIN (see es_solve).
_ES_PRUNE_MARGIN = 1e-8

_EPS = float(np.finfo(float).eps)  # the band roots' residual floor unit


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


def _band_roots(c3, c2, c1, rhs):
    """Roots of the band cubics c3 x^3 + c2 x^2 + c1 x = rhs, elementwise.

    The coefficients are nonnegative with c2, c1 and rhs positive. At the
    root each term is at most rhs and the largest at least rhs / 3, so
    cap = min((rhs/c3)^(1/3), (rhs/c2)^(1/2), rhs/c1) puts the root in
    [cap/3, cap]. From cap a fixed run of three Halley steps, which
    converge cubically, reaches it: on 5.6e7 random cubics, coefficients
    and rhs spread over 0.3 to 120 decades, the worst relative error was
    3.9 eps, at the most balanced cubics, where cap is up to 1.83 times
    the root.

    The steps are checked, not trusted. The Horner value of P(x) - rhs
    is off by at most gamma_6 S ~ 3 eps S, where S = P(x) + rhs sums the
    absolute terms (Higham, Accuracy and Stability of Numerical
    Algorithms, eq. 5.3), and a root off by delta relative leaves an exact
    residual of at most P'(x) x delta <= 3 P(x) delta ~ 1.5 S delta. So a
    root within 6 eps reads within 12 eps S, the floor; the fuzz read at
    most 3.4 eps S. Returns (x, P'(x), ok), ok False where the residual
    exceeds the floor or is not a number.
    """
    with np.errstate(divide="ignore"):
        x = np.minimum(np.minimum(np.cbrt(rhs / c3), np.sqrt(rhs / c2)),
                       rhs / c1)
    for _ in range(3):
        f = ((c3 * x + c2) * x + c1) * x - rhs
        d1 = (3.0 * c3 * x + 2.0 * c2) * x + c1
        x = x - f / (d1 - f * (3.0 * c3 * x + c2) / d1)
    p = ((c3 * x + c2) * x + c1) * x
    ok = np.abs(p - rhs) <= 12.0 * _EPS * (p + rhs)
    return x, (3.0 * c3 * x + 2.0 * c2) * x + c1, ok


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
    solved by `_band_roots`: three Halley steps from an upper cap, then a
    check of the residual against its rounding floor. The budget used, s,
    falls with lam and ln s is nearly linear in ln lam, d ln s / d ln lam
    = -(1/s) sum_k zeta_k chi_k rhs_k / P'(chi_k), so Newton on ln lam over
    [1e-12, 2^61] (`roots.increasing_roots`) drives each row's budget to
    activity. The budget binds at any optimum (the rate increases in every
    chi_k). Failures, a band residual above its floor among them, raise
    ArithmeticError naming the pilot fractions.
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
        rhs = g_t[rows] * f_t[rows] / (1e-12 * np.exp(y)[:, None] * z[rows])
        chi, slope, ok = _band_roots(a3[rows], a2[rows], a1[rows], rhs)
        if not np.all(ok):
            fail("band cubic residual above its rounding floor",
                 rows[~np.all(ok, axis=1)])
        pull = chi * rhs / slope
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


def zeta_vector(params: FastVaryingParams, n_d) -> np.ndarray:
    """zeta(q_k, n_d) per band: (K,) for a scalar n_d, (T, K) for T of them.

    The whole matrix is one `zeta_pairs` call, so the uncached values take
    one ln Phi evaluation; bands with equal q share their values.
    """
    n_d = np.asarray(n_d, float)
    pairs = [(q, n) for n in n_d.ravel() for q in params.q_norm]
    return zeta_pairs(pairs).reshape(n_d.shape + (params.K,))


def _es_rows(params: FastVaryingParams, n_ts: list, z=None) -> dict:
    """N_t -> (chi, lam, objective, zeta row) for the pilot counts n_ts.

    One zeta_vector call and one batched chi_given_tau call cover them all;
    each row has the bits of its own scalar solve. z, one zeta row per
    count, replaces the counts' own zeta(q_k, N - N_t).
    """
    if not n_ts:
        return {}
    taus = np.array(n_ts, float) / params.N
    if z is None:
        z = zeta_vector(params, [params.N - n_t for n_t in n_ts])
    chis, lams = chi_given_tau(taus, params, z, params.budget)
    return {n_t: (chi, float(lam), ergodic_sum_rate(chi, n_t / params.N,
                                                    params), z_row)
            for n_t, chi, lam, z_row in zip(n_ts, chis, lams, z)}


def es_solve(params: FastVaryingParams) -> FvSolveResult:
    """Exact search over the pilot grid N_t = 1..N-1, pruned by a rate bound.

    The adversary tests the jammed data phase of each block, so pilot count
    N_t is the fixed-tau problem at tau = N_t / N with covertness
    coefficients zeta(q_k, N - N_t), solved exactly by chi_given_tau. The
    best rate wins (ties toward fewer pilots), and only the pilot counts
    two bounds cannot rule out are solved:

      * round 1 solves a coarse grid, every isqrt(N)-th count plus N - 1;
      * each other count whose monotone bound (below) is not strictly
        below best * (1 - _ES_PRUNE_MARGIN), best being round 1's best
        objective, gets its refined bound: its own problem at its own tau,
        solved with the zeta row of the nearest solved count b above it,
        in one batched chi_given_tau call and with no new zeta;
      * round 2 solves the counts whose refined bound is not strictly below
        best * (1 - _ES_PRUNE_MARGIN) either.

    Each round is one zeta_vector call (so its cold values take a single
    ln Phi evaluation) and one batched chi_given_tau call, whose rows have
    the bits of scalar solves; so the winner is the exhaustive search's row,
    bit for bit. The trace holds one row per solved count, in N_t order.

    The bound. Write Obj(N_t) = (1 - N_t/N) r(N_t), r being the optimal
    sum over bands of ln(1 + SNR_k). r is nondecreasing in N_t:
      * zeta(q, n) is nondecreasing in n (the n-sample energy is sufficient
        for the n-sample vector, which the (n+1)-sample vector contains,
        so KL and its quadratic coefficient can only grow); more pilots
        leave fewer data symbols, a lower zeta, a larger feasible set;
      * each band's SNR chi tau G / (tau (chi E + F1) + chi mu + F2) is
        nondecreasing in tau, as FastVaryingParams keeps every constant
        nonnegative.
    So N_t's optimal powers are feasible at any b >= N_t and give there at
    least the same r: r(N_t) <= r(b), i.e. Obj(N_t) <= (N - N_t) Obj(b) /
    (N - b) for every solved b >= N_t, and N_t's bound is the smallest of
    these. N - 1 is always solved, so every count has one.

    The refined bound. zeta(q, n) is nondecreasing in n, so b >= N_t has
    zeta(q_k, N - b) <= zeta(q_k, N - N_t): N_t's problem with b's zeta
    row has the larger feasible set, and its optimum bounds Obj(N_t). It
    is never above b's monotone bound, since the rate also grows in tau,
    and the nearest b gives the largest zeta row, so the tightest bound.

    The margin. chi_given_tau drives each row's budget use to activity
    within 1e-10 in ln s, so its powers are off the exact optimum's budget
    by a relative 1e-10 at most, and since no band's ln(1 + SNR) grows
    faster than chi, its rate by at most about 5e-11 relative (off-surface
    errors are second order). Comparing a bound built from one row with
    another row's objective thus needs a slack of a few 1e-10 plus a few
    ulps; _ES_PRUNE_MARGIN = 1e-8 is well above that, and also covers
    relative zeta errors up to about 1e-8. A pruned count is then strictly
    worse than the returned one, so it could not have won.
    """
    n = params.N
    stride = math.isqrt(n)
    rows = _es_rows(params, [*range(stride, n - 1, stride), n - 1])
    cut = max(row[2] for row in rows.values()) * (1.0 - _ES_PRUNE_MARGIN)
    r = np.full(n, np.inf)  # per-data-symbol objective of the solved counts
    for n_t, row in rows.items():
        r[n_t] = row[2] / (n - n_t)
    r_above = np.minimum.accumulate(r[::-1])[::-1]
    candidates = [n_t for n_t in range(1, n) if n_t not in rows
                  and not (n - n_t) * r_above[n_t] < cut]
    solved = sorted(rows)
    nearest = [solved[bisect.bisect(solved, n_t)] for n_t in candidates]
    refined = _es_rows(params, candidates, [rows[b][3] for b in nearest])
    rows.update(_es_rows(params, [n_t for n_t in candidates
                                  if not refined[n_t][2] < cut]))
    n_ts = sorted(rows)
    n_t = max(n_ts, key=lambda m: (rows[m][2], -m))
    chi, lam, obj, z = rows[n_t]
    trace = [{"tau": m / n, "objective": rows[m][2], "lam": rows[m][1]}
             for m in n_ts]
    return FvSolveResult(chi=chi, tau=n_t / n, N_t=n_t, objective=obj,
                         lam=lam, method="es", trace=trace,
                         budget=params.budget,
                         budget_used=0.5 * float(np.dot(z, chi * chi)))


def tau_given_chi(chis, params: FastVaryingParams) -> float:
    """Optimal continuous pilot fraction at fixed powers.

    The rate is concave in tau with positive slope at 0+ and negative at
    1-, so the slope has a single root, found by `roots.increasing_root`
    with the slope's derivative in closed form. Newton starts at tau =
    0.05: from 0.5 its first step usually leaves the bracket, and a call
    took about 16 slope evaluations instead of about 10.
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
    tau = increasing_root(minus_slope, 0.05, lo, hi)
    if abs(minus_slope(tau)[0]) > 1e-8 * max(1.0, float(np.sum(g_b / f_b))):
        raise ArithmeticError("tau root residual above tolerance")
    return tau


def ao_solve(params: FastVaryingParams) -> FvSolveResult:
    """Alternating power/pilot optimization with a final grid refinement.

    The alternation starts at tau = _AO_TAU0 with the covertness
    coefficients frozen at zeta(q_k, N) (full-block observation), which
    makes the feasible set independent of tau; each half-step is then an
    exact maximization, so the objective trace is nondecreasing. The
    continuous tau is rounded to the nearest grid point (ties toward more
    pilots) and the powers are re-solved against the true coefficients
    zeta(q_k, N - N_t) of the jammed data phase at the rounded tau, so the
    returned point satisfies the actual constraint with activity.
    """
    budget = params.budget
    z_frozen = zeta_vector(params, params.N)

    tau, trace, prev, converged = _AO_TAU0, [], None, False
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
    z_true = zeta_vector(params, params.N - n_t)
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
