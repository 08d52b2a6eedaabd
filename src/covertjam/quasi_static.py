"""Power/rate allocation for quasi-static fading.

Maximizes the effective sum rate over the covert region
{chi : sum_k eta(chi_k) <= epsilon}. Three solvers:

  * closed form for a single receiver (the inner SINR threshold gamma* is
    the root of a scalar transcendental equation),
  * a polyblock outer-approximation (POA) global solver exploiting that the
    best-response objective is increasing in chi and the region is normal,
  * a successive-convex-approximation (SCA) local solver on the equivalent
    (t, gamma) formulation with t = chi/gamma, which is fast and in practice
    lands within a few percent of the global optimum.

Rates are in nats per channel use throughout.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq, minimize_scalar

from .covertness import eta, solve_chi_star
from .scenario import QuasiStaticParams

__all__ = [
    "QsSolveResult",
    "ScaState",
    "effective_rate",
    "single_receiver_gamma",
    "closed_form_solve",
    "poa_solve",
    "sca_solve",
    "sca_subproblem",
    "default_sca_state",
]

_VERTEX_CAP = 10**5


@dataclass
class QsSolveResult:
    """Solution of the effective-sum-rate problem plus solver diagnostics."""

    chi: np.ndarray
    gamma: np.ndarray
    rates: np.ndarray
    objective: float
    method: str
    trace: list
    constraint_slack: float
    converged: bool = True

    def __post_init__(self):
        self.chi = np.asarray(self.chi, float)
        self.gamma = np.asarray(self.gamma, float)
        self.rates = np.asarray(self.rates, float)
        if np.any(self.chi < 0.0) or np.any(self.gamma < 0.0):
            raise ValueError("chi and gamma must be nonnegative")
        if self.constraint_slack < -1e-9:
            raise ValueError("covertness constraint violated beyond tolerance")


def effective_rate(chi_k, gamma_k, A_k, B_k):
    """Outage-discounted rate of one receiver (vectorized).

    1{B e^{-A chi/gamma} <= 1} (1 - B e^{-A chi/gamma}) ln(1+gamma);
    zero whenever gamma = 0 or the outage factor exceeds 1 (which includes
    chi = 0, since B > 1). The boundary case B e^{-A chi/gamma} = 1
    contributes zero either way and is treated as inactive.
    """
    chi = np.asarray(chi_k, float)
    gamma = np.asarray(gamma_k, float)
    a = np.asarray(A_k, float)
    b = np.asarray(B_k, float)
    if np.any(chi < 0) or np.any(gamma < 0):
        raise ValueError("chi and gamma must be nonnegative")
    with np.errstate(divide="ignore", over="ignore"):
        outage = b * np.exp(-a * np.where(gamma > 0, chi / np.where(
            gamma > 0, gamma, 1.0), np.inf))
    val = np.where((gamma > 0) & (outage <= 1.0),
                   (1.0 - outage) * np.log1p(gamma), 0.0)
    return float(val) if val.ndim == 0 else val


def _xi(kappa: float, a_chi: float, b: float) -> float:
    """Stationarity function whose root at Xi = B gives kappa* = 1/gamma*."""
    if kappa <= 0.0:
        return 1.0
    m = a_chi * kappa
    # kappa (1+kappa) log1p(1/kappa) = kappa * factor; folding one kappa
    # into m avoids squaring kappa, which overflows near 1e154.
    if kappa > 1e10:
        factor = 1.0 + 0.5 / kappa
    else:
        factor = (1.0 + kappa) * math.log1p(1.0 / kappa)
    return math.exp(min(m, 700.0)) - b * m * factor


def single_receiver_gamma(A1: float, B1: float, chi_cap: float) -> float:
    """Optimal SINR threshold for one receiver at transmit level chi_cap.

    The optimum gamma* = 1/kappa* where kappa* is the unique root of
    Xi(kappa) = B above ln(B)/(A chi); Xi - B changes sign from - to +
    exactly once there, so a bracketed root find is exact. The returned
    gamma keeps the outage factor strictly below 1.
    """
    if A1 <= 0.0 or B1 <= 1.0:
        raise ValueError("need A1 > 0 and B1 > 1")
    if not 0.0 < chi_cap < 1.0:
        raise ValueError("chi_cap must lie in (0, 1)")
    a_chi = A1 * chi_cap
    ln_b = math.log(B1)
    kappa_lo = ln_b / a_chi
    # Below kappa_lo the outage factor exceeds 1 and the rate is zero;
    # Xi(kappa_lo) < B always (the spread factor exceeds 1).
    kappa_hi = (ln_b + 60.0) / a_chi
    f = lambda k: _xi(k, a_chi, B1) - B1
    if not f(kappa_lo) < 0.0:
        raise ArithmeticError("lower bracket violates Xi < B; check inputs")
    lo, hi = kappa_lo, kappa_hi
    guard = 0
    while f(hi) <= 0.0:
        lo, hi = hi, hi * 2.0
        guard += 1
        if guard > 60:
            raise ArithmeticError("bracket expansion failed for kappa*")
    kappa = brentq(f, lo, hi, xtol=1e-300, rtol=1e-15, maxiter=200)
    if kappa < kappa_lo:
        raise ArithmeticError("root fell below the outage-feasible region")
    return 1.0 / kappa


def closed_form_solve(params: QuasiStaticParams) -> QsSolveResult:
    """Single-receiver solution: chi at the covertness cap, gamma in closed form."""
    if params.K != 1:
        raise ValueError("closed form applies to exactly one receiver")
    chi = solve_chi_star(params.epsilon)
    gamma = single_receiver_gamma(params.A[0], params.B[0], chi)
    obj = float(effective_rate(chi, gamma, params.A[0], params.B[0]))
    return QsSolveResult(
        chi=np.array([chi]),
        gamma=np.array([gamma]),
        rates=np.array([math.log1p(gamma)]),
        objective=obj,
        method="closed_form",
        trace=[{"iteration": 0, "objective": obj}],
        constraint_slack=params.epsilon - eta(chi),
    )


class _RateCache:
    """Per-coordinate best-response cache: chi value -> (rate, gamma)."""

    def __init__(self, params: QuasiStaticParams):
        self.params = params
        self._store = [dict() for _ in range(params.K)]

    def rate_gamma(self, k: int, x: float):
        if x <= 0.0:
            return 0.0, 0.0
        # The rate is capped by ln(1 + A x / ln B); below double precision
        # the band contributes nothing and the root find is skipped.
        if self.params.A[k] * x < 1e-15 * math.log(self.params.B[k]):
            return 0.0, 0.0
        hit = self._store[k].get(x)
        if hit is None:
            gamma = single_receiver_gamma(self.params.A[k], self.params.B[k], x)
            rate = float(effective_rate(x, gamma, self.params.A[k],
                                        self.params.B[k]))
            hit = (rate, gamma)
            self._store[k][x] = hit
        return hit

    def value(self, v: np.ndarray) -> float:
        return sum(self.rate_gamma(k, float(v[k]))[0]
                   for k in range(self.params.K))

    def gammas(self, v: np.ndarray) -> np.ndarray:
        return np.array([self.rate_gamma(k, float(v[k]))[1]
                         for k in range(self.params.K)])


def _project_rows(V: np.ndarray, epsilon: float) -> np.ndarray:
    """Row-wise boundary projection factors (vectorized bisection)."""
    V = np.minimum(V, 1.0 - 1e-15)
    budgets = eta(V).sum(axis=1)
    rho = np.ones(len(V))
    need = budgets > epsilon
    if need.any():
        lo = np.zeros(need.sum())
        hi = np.ones(need.sum())
        W = V[need]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            ok = eta(mid[:, None] * W).sum(axis=1) <= epsilon
            lo = np.where(ok, mid, lo)
            hi = np.where(ok, hi, mid)
        rho[need] = lo
    return rho


class _BandRateTable:
    """Per-band best-response rate, tabulated as certified cubic splines.

    The polyblock loop evaluates band rates millions of times; root-finding
    each one dominates the runtime. A spline in ln(chi) reproduces the
    smooth rate curve to ~1e-9; `margin` is a certified inflation added to
    upper bounds so spline error can never prune the true optimum. Below
    `lo` the rate is under 1e-14 (capped by A chi / ln B) and treated as 0.
    """

    def __init__(self, params: QuasiStaticParams, cap: float,
                 knots: int = 1200):
        self.params = params
        self.cap = cap
        self.lo = np.minimum(1e-14 * np.log(params.B) / params.A, 0.5 * cap)
        self.splines = []
        margin = 1e-12
        rng = np.random.default_rng(0)
        for k in range(params.K):
            grid = np.geomspace(self.lo[k], cap, knots)
            vals = np.array([self._exact(k, x) for x in grid])
            spl = CubicSpline(np.log(grid), vals)
            self.splines.append(spl)
            probe = np.exp(rng.uniform(np.log(self.lo[k]), np.log(cap), 64))
            err = max(abs(float(spl(math.log(x))) - self._exact(k, x))
                      for x in probe)
            margin = max(margin, 10.0 * err)
        self.margin = margin

    def _exact(self, k: int, x: float) -> float:
        gamma = single_receiver_gamma(self.params.A[k], self.params.B[k], x)
        return float(effective_rate(x, gamma, self.params.A[k],
                                    self.params.B[k]))

    def sum_rates(self, rows: np.ndarray) -> np.ndarray:
        """Approximate objective for each row of chi values."""
        out = np.zeros(len(rows))
        for k in range(self.params.K):
            x = rows[:, k]
            live = x > self.lo[k]
            if live.any():
                vals = self.splines[k](np.log(x[live]))
                out[live] += np.maximum(vals, 0.0)
        return out


def tv_budget(chis) -> float:
    """sum_k eta(chi_k); the quantity capped by epsilon."""
    return float(np.sum(eta(np.minimum(np.asarray(chis, float), 1 - 1e-15))))


def poa_solve(params: QuasiStaticParams, delta: float = 1e-4,
              max_iter: int = 20000, warm_start=None) -> QsSolveResult:
    """Global polyblock outer approximation of the covert rate problem.

    The feasible chi region is normal (downward closed) inside the box
    [0, chi_star]^K and the best-response objective is increasing, so the
    classic vertex-splitting scheme applies: evaluate the best vertex,
    project it onto the boundary along its ray, split the vertex at the
    projection, prune, and stop when the vertex bound is within delta of
    the best feasible value (a delta-optimal certificate). When the vertex
    cap evicts vertices, the certificate also needs the largest evicted
    bound within delta of the best value; otherwise `converged` is False.

    `warm_start` (a feasible chi vector, e.g. an SCA solution) seeds the
    incumbent, which sharpens pruning; boxes whose bound exceeds it are
    still explored, so the returned value can only match or beat the seed.
    """
    k = params.K
    cache = _RateCache(params)
    cap = solve_chi_star(params.epsilon)
    box = np.full(k, cap)
    table = _BandRateTable(params, cap)
    pad = k * table.margin  # certified bound inflation per vertex

    # Max-heap of (negated bound, insertion order, vertex); insertion order
    # breaks value ties in favour of the older (lower-index) vertex. The
    # top `batch` vertices are processed together so projections and rate
    # lookups vectorize.
    heap = [(-(cache.value(box) + pad), 0, box)]
    seq = 1
    batch = 64
    best_point = box * 0.0
    best_value = 0.0
    if warm_start is not None:
        ws = np.asarray(warm_start, float)
        if ws.shape != (k,) or np.any(ws < 0.0):
            raise ValueError("warm_start must be a nonnegative K-vector")
        if tv_budget(ws) > params.epsilon + 1e-12:
            raise ValueError("warm_start violates the covertness budget")
        best_point = ws
        best_value = cache.value(ws)
    trace = []
    evicted_bound = -math.inf
    converged = False
    pops = 0

    while pops < max_iter:
        popped = []
        while heap and len(popped) < batch:
            neg, _, v = heapq.heappop(heap)
            if -neg <= best_value + delta:
                heap.clear()  # heap order: everything else is lower
                break
            popped.append((-neg, v))
        if not popped:
            converged = evicted_bound <= best_value + delta
            break
        pops += len(popped)
        bounds = np.array([b for b, _ in popped])
        V = np.array([v for _, v in popped])
        rho = _project_rows(V, params.epsilon)
        XF = rho[:, None] * V

        approx = table.sum_rates(XF)
        # Exact re-evaluation of the most promising projections keeps
        # best_value a true objective value, never a spline estimate.
        for i in np.argsort(approx)[::-1][:8]:
            if approx[i] + pad <= best_value:
                break
            f_val = cache.value(XF[i])
            if f_val > best_value:
                best_value = f_val
                best_point = XF[i]
        trace.append({"iteration": pops, "bound": float(bounds[0]),
                      "best_feasible": best_value})
        if bounds[0] - best_value <= delta:
            converged = evicted_bound <= best_value + delta
            break

        m = len(popped)
        children = np.repeat(V, k, axis=0)
        rows = np.arange(m * k)
        cols = np.tile(np.arange(k), m)
        children[rows, cols] = XF.ravel()
        valid = XF.ravel() < V[rows // k, cols]
        child_vals = table.sum_rates(children) + pad
        keep = valid & (child_vals > best_value + delta)
        for i in np.flatnonzero(keep):
            heapq.heappush(heap, (-float(child_vals[i]), seq, children[i]))
            seq += 1
        if len(heap) > _VERTEX_CAP:
            # A sorted list is a heap; the tail holds the lowest bounds.
            heap.sort()
            evicted_bound = max(evicted_bound, -heap[_VERTEX_CAP][0])
            del heap[_VERTEX_CAP:]

    gammas = cache.gammas(best_point)
    obj = float(np.sum(effective_rate(best_point, gammas, params.A, params.B)))
    return QsSolveResult(
        chi=best_point,
        gamma=gammas,
        rates=np.log1p(gammas),
        objective=obj,
        method="poa",
        trace=trace,
        constraint_slack=params.epsilon - tv_budget(best_point),
        converged=converged,
    )


@dataclass
class ScaState:
    """One iterate of the successive convex approximation."""

    t: np.ndarray
    gamma: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    iteration: int
    objective: float

    def __post_init__(self):
        for name in ("t", "gamma", "alpha", "beta"):
            setattr(self, name, np.asarray(getattr(self, name), float))

    def feasibility_residual(self, params: QuasiStaticParams) -> float:
        """Worst constraint violation of the (t, gamma, alpha, beta) point."""
        res = [np.max(self.alpha - (1.0 - params.B * np.exp(-params.A * self.t))),
               np.max(self.beta - np.log1p(self.gamma)),
               float(np.dot(self.t, self.gamma)) - params.epsilon,
               -min(self.t.min(), self.gamma.min(),
                    self.alpha.min(), self.beta.min())]
        return max(float(r) for r in res)


def default_sca_state(params: QuasiStaticParams) -> ScaState:
    """Feasible starting point: uniform chis using half the covert budget."""
    k = params.K
    chi0 = min(solve_chi_star(params.epsilon / (2 * k)),
               params.epsilon / (2 * k))
    gamma = np.array([single_receiver_gamma(params.A[i], params.B[i], chi0)
                      for i in range(k)])
    t = chi0 / gamma
    alpha = 1.0 - params.B * np.exp(-params.A * t)
    beta = np.log1p(gamma)
    return ScaState(t=t, gamma=gamma, alpha=np.maximum(alpha, 0.0), beta=beta,
                    iteration=0, objective=float(np.dot(alpha, beta)))


def _band_newton(rho, lam_l1, lam_l2, a, ln_b, alpha0, beta0):
    """Minimize (x-y)^2 - 2 rho (x+y) + (lam l1/2) t(x)^2 + (lam l2/2) g(y)^2.

    t(x) = (ln B - ln(1-x))/a and g(y) = e^y - 1 come from the activity of
    the outage and rate constraints. The objective is strictly convex on
    x in [0,1), y >= 0; damped Newton on the gradient with a boundary
    check at x = 0 (y = 0 is never optimal unless rho = x = 0).
    """
    x_hi = 1.0 - 1e-12
    y_hi = 300.0
    x = min(max(alpha0, 1e-8), x_hi)
    y = min(max(beta0, 1e-8), y_hi)
    for _ in range(80):
        one_mx = 1.0 - x
        t = (ln_b - math.log(one_mx)) / a
        tp = 1.0 / (a * one_mx)
        ey = math.exp(y)
        g = ey - 1.0
        gx = 2.0 * (x - y) - 2.0 * rho + lam_l1 * t * tp
        gy = 2.0 * (y - x) - 2.0 * rho + lam_l2 * g * ey
        hxx = 2.0 + lam_l1 * (tp * tp + t * tp / one_mx)
        hyy = 2.0 + lam_l2 * ey * (2.0 * ey - 1.0)
        det = hxx * hyy - 4.0
        dx = (hyy * gx + 2.0 * gy) / det
        dy = (2.0 * gx + hxx * gy) / det
        if not (math.isfinite(dx) and math.isfinite(dy)):
            break
        step = 1.0
        while x - step * dx >= x_hi + 1e-15 or x - step * dx < 0.0 \
                or y - step * dy < 0.0:
            step *= 0.5
            if step < 1e-14:
                break
        # The projected step is valid for this convex objective even when
        # backtracking bottoms out (near-singular Hessian at tiny lam).
        x_new = min(max(x - step * dx, 0.0), x_hi)
        y_new = min(max(y - step * dy, 0.0), y_hi)
        if x_new < 1e-12:
            # Candidate corner x = 0: check the sign of the x-gradient there.
            y_c = _beta_root(rho, lam_l2, 0.0)
            gx0 = -2.0 * y_c - 2.0 * rho + lam_l1 * (ln_b / a) / a
            if gx0 >= 0.0:
                return 0.0, y_c
            x_new = 1e-12
        x, y = x_new, y_new
        if abs(gx) + abs(gy) < 1e-12 * (1.0 + abs(rho) + lam_l1 + lam_l2):
            break
    return x, y


def _beta_root(rho, lam_l2, x):
    """Root of 2(y - x) - 2 rho + lam l2 (e^y - 1) e^y = 0, y >= 0."""
    if x + rho <= 0.0:
        return 0.0
    f = lambda y: 2.0 * (y - x) - 2.0 * rho + lam_l2 * math.expm1(y) * math.exp(y)
    hi = 1.0
    while f(hi) <= 0.0:
        hi *= 2.0
        if hi > 1e6:
            raise ArithmeticError("beta bracket expansion failed")
    return brentq(f, 0.0, hi, xtol=1e-300, rtol=1e-15)


def _band_fallback(rho, lam_l1, lam_l2, a, ln_b):
    """Robust nested 1-D solve of the per-band subproblem (slow path)."""

    def inner(x):
        y = _beta_root(rho, lam_l2, x)
        t = (ln_b - math.log1p(-x)) / a
        g = math.expm1(y)
        val = (x - y) ** 2 - 2.0 * rho * (x + y) \
            + 0.5 * (lam_l1 * t * t + lam_l2 * g * g)
        return val, y

    res = minimize_scalar(lambda x: inner(x)[0], bounds=(0.0, 1.0 - 1e-10),
                          method="bounded",
                          options={"xatol": 1e-13, "maxiter": 500})
    x = float(res.x)
    # The bounded minimizer never evaluates the exact endpoint; snap to the
    # corner when the interior value does not beat it.
    if inner(0.0)[0] <= res.fun:
        x = 0.0
    return x, inner(x)[1]


def _subproblem_at_lambda(lam, rho, l1, l2, params, warm):
    """Per-band minimizers at the given dual multiplier."""
    k = params.K
    alpha = np.empty(k)
    beta = np.empty(k)
    for i in range(k):
        ln_b = math.log(params.B[i])
        x, y = _band_newton(rho[i], lam * l1[i], lam * l2[i], params.A[i],
                            ln_b, warm[0][i], warm[1][i])
        t = (ln_b - math.log1p(-x)) / params.A[i]
        g = math.expm1(y)
        gx = 2.0 * (x - y) - 2.0 * rho[i] + lam * l1[i] * t / (params.A[i] * (1 - x))
        gy = 2.0 * (y - x) - 2.0 * rho[i] + lam * l2[i] * g * (g + 1.0)
        scale = 1.0 + lam * (l1[i] + l2[i])
        # Stationarity may legitimately fail at an active clamp: x pinned at
        # its upper guard with the gradient still pushing up, or a corner.
        x_ok = abs(gx) <= 1e-6 * scale or (x >= 1.0 - 1e-11 and gx < 0.0) \
            or (x <= 1e-11 and gx > 0.0)
        y_ok = abs(gy) <= 1e-6 * scale or (y <= 1e-11 and gy > 0.0) \
            or (y >= 300.0 - 1e-9 and gy < 0.0)
        if not np.isfinite(x + y) or not (x_ok and y_ok):
            x, y = _band_fallback(rho[i], lam * l1[i], lam * l2[i],
                                  params.A[i], ln_b)
        alpha[i] = x
        beta[i] = y
    with np.errstate(divide="ignore"):
        t = (np.log(params.B) - np.log1p(-alpha)) / params.A
    gamma = np.expm1(beta)
    return alpha, beta, t, gamma


def sca_subproblem(state: ScaState, params: QuasiStaticParams) -> ScaState:
    """One convex subproblem, solved by dual bisection on its single coupling.

    The trust ellipsoid (1/2) sum(l1 t^2 + l2 gamma^2) <= epsilon with
    l1 = gamma_j/t_j, l2 = t_j/gamma_j touches the bilinear budget at the
    iterate, so the previous point stays feasible and the surrogate
    objective improves monotonically. At fixed multiplier the problem
    separates into per-band strictly convex 2-D problems; the multiplier
    is bisected on the (monotone) ellipsoid residual.
    """
    # A band whose power product has collapsed stays frozen at zero rate;
    # its coordinate would make the trust weights degenerate.
    active = (state.t > 0.0) & (state.gamma > 1e-200) \
        & (state.alpha + state.beta > 0.0)
    if not active.any():
        return ScaState(t=state.t.copy(), gamma=state.gamma.copy(),
                        alpha=np.zeros(params.K), beta=np.zeros(params.K),
                        iteration=state.iteration + 1, objective=0.0)
    sub = _params_subset(params, active)
    l1 = state.gamma[active] / state.t[active]
    l2 = state.t[active] / state.gamma[active]
    rho = state.alpha[active] + state.beta[active]
    warm = (state.alpha[active], state.beta[active])

    def residual(lam):
        alpha, beta, t, gamma = _subproblem_at_lambda(lam, rho, l1, l2,
                                                      sub, warm)
        return 0.5 * float(np.dot(l1, t * t) + np.dot(l2, gamma * gamma)) \
            - params.epsilon, (alpha, beta, t, gamma)

    lo = 1e-12
    r_lo, sol = residual(lo)
    if r_lo <= 0.0:
        alpha, beta, t, gamma = sol
    else:
        hi = 1.0
        r_hi, _ = residual(hi)
        guard = 0
        while r_hi > 0.0:
            lo, hi = hi, hi * 2.0
            r_hi, _ = residual(hi)
            guard += 1
            if guard > 60:
                raise ArithmeticError("dual bracket expansion failed")
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            r_mid, sol = residual(mid)
            if r_mid > 0.0:
                lo = mid
            else:
                hi = mid
        _, sol = residual(hi)  # final point on the feasible side
        alpha, beta, t, gamma = sol

    full = []
    for arr, frozen in (((alpha), 0.0), ((beta), 0.0)):
        out = np.full(params.K, frozen)
        out[active] = arr
        full.append(out)
    t_full = np.where(active, 0.0, state.t)
    t_full[active] = t
    g_full = np.zeros(params.K)
    g_full[active] = gamma
    return ScaState(t=t_full, gamma=g_full, alpha=full[0], beta=full[1],
                    iteration=state.iteration + 1,
                    objective=float(np.dot(full[0], full[1])))


def _params_subset(params: QuasiStaticParams, mask) -> QuasiStaticParams:
    return QuasiStaticParams(A=params.A[mask], B=params.B[mask],
                             epsilon=params.epsilon)


def sca_solve(params: QuasiStaticParams, init: ScaState | None = None,
              tol: float = 1e-6, max_iter: int = 100) -> QsSolveResult:
    """Iterated convex approximation; monotone surrogate objective.

    Starts from `init` (or the half-budget uniform point), runs
    sca_subproblem until the relative objective change drops below tol,
    and maps back chi = t * gamma. The conservative budget sum(chi) <=
    epsilon implies the true constraint sum(eta(chi)) <= epsilon, which is
    re-verified on exit.
    """
    state = init if init is not None else default_sca_state(params)
    if state.feasibility_residual(params) > 1e-8:
        raise ValueError("initial state violates the surrogate constraints")
    trace = [{"iteration": state.iteration, "objective": state.objective}]
    converged = False
    for _ in range(max_iter):
        new = sca_subproblem(state, params)
        trace.append({"iteration": new.iteration, "objective": new.objective})
        rel = abs(new.objective - state.objective) \
            / max(abs(state.objective), 1e-300)
        state = new
        if rel < tol:
            converged = True
            break
    chi = state.t * state.gamma
    slack = params.epsilon - tv_budget(chi)
    if slack < -1e-9:
        raise ArithmeticError("mapped-back SCA point violates the TV budget")
    obj = float(np.sum(effective_rate(chi, state.gamma, params.A, params.B)))
    return QsSolveResult(
        chi=chi,
        gamma=state.gamma.copy(),
        rates=np.log1p(state.gamma),
        objective=obj,
        method="sca",
        trace=trace,
        constraint_slack=slack,
        converged=converged,
    )
