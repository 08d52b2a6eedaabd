"""Power/rate allocation for quasi-static fading.

Maximizes the effective sum rate over the covert region
{chi : sum_k eta(chi_k) <= epsilon}. Three solvers:

  * closed form for a single receiver (the inner SINR threshold gamma* is
    the root of a scalar transcendental equation, solved by one kernel
    vectorized over bands and transmit levels),
  * a global budget-split search (`poa_solve`): objective and budget are
    both separable, so it splits epsilon across the bands' increasing
    best-response rates on a share grid, with a floor-share feasible
    incumbent and a ceil-share upper bound as its delta-certificate,
  * a successive-convex-approximation (SCA) local solver on the equivalent
    (t, gamma) formulation with t = chi/gamma, which is fast and in practice
    lands within a few percent of the global optimum.

Rates are in nats per channel use throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
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

# Largest share grid of the budget-split search (it starts at 64 steps).
_GRID_CAP = 2**16


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


def _threshold_residual(m, a_chi, b):
    """F(m) = ln(e^m / (B (1 + m phi))) and dF/dm, with kappa = m / (A chi).

    phi(kappa) = (1 + kappa) ln(1 + 1/kappa), so F = 0 exactly where
    Xi(kappa) = e^m - B m phi = B. Working in m = A chi kappa keeps kappa
    from overflowing near 1e154; F is convex in m.
    """
    kappa = m / a_chi
    big = kappa > 1e10
    with np.errstate(divide="ignore", invalid="ignore"):
        log_term = np.log1p(1.0 / kappa)
        phi = np.where(big, 1.0 + 0.5 / kappa, (1.0 + kappa) * log_term)
        # d(m phi)/dm = (1 + 2 kappa) ln(1 + 1/kappa) - 1, -> 1 for large kappa
        dphi = np.where(big, 1.0, (1.0 + 2.0 * kappa) * log_term - 1.0)
    return m - np.log(b) - np.log1p(m * phi), 1.0 - dphi / (1.0 + m * phi)


def single_receiver_gamma(A1, B1, chi_cap):
    """Optimal SINR threshold for one receiver at transmit level chi_cap.

    Vectorized over broadcast (A1, B1, chi_cap); scalar inputs give a
    float. The optimum gamma* = 1/kappa* where kappa* is the unique root of
    Xi(kappa) = B above ln(B)/(A chi). In m = A chi kappa the root solves the
    convex F(m) = 0 of `_threshold_residual` on the bracket [ln B, ln B + 60]:
    F < 0 at the outage edge m = ln B, and F > 0 at the right end for every
    finite input, since phi < 711 there keeps ln(1 + m phi) below 14.
    Newton from the right end converges monotonically, with a bisection
    guard. The returned gamma keeps the outage factor B e^{-m} below 1.
    """
    a, b, chi = np.broadcast_arrays(*(np.asarray(v, float)
                                      for v in (A1, B1, chi_cap)))
    if np.any(a <= 0.0) or np.any(b <= 1.0):
        raise ValueError("need A1 > 0 and B1 > 1")
    if np.any(chi <= 0.0) or np.any(chi >= 1.0):
        raise ValueError("chi_cap must lie in (0, 1)")
    a_chi, b = (a * chi).ravel(), b.ravel()
    lo = np.log(b)
    hi = lo + 60.0
    m = hi.copy()
    todo = np.arange(m.size)
    for _ in range(100):
        x, x_lo, x_hi = m[todo], lo[todo], hi[todo]
        f, df = _threshold_residual(x, a_chi[todo], b[todo])
        x_lo = np.where(f > 0.0, x_lo, x)
        x_hi = np.where(f > 0.0, x, x_hi)
        step = x - f / df
        step = np.where((step >= x_lo) & (step <= x_hi), step,
                        0.5 * (x_lo + x_hi))
        m[todo], lo[todo], hi[todo] = step, x_lo, x_hi
        # |f| <= 1e-15 m is the rounding floor of F's three terms.
        done = (np.abs(f) <= 1e-15 * x) | (np.abs(step - x) <= 1e-15 * x)
        todo = todo[~done]
        if todo.size == 0:
            break
    else:
        raise ArithmeticError("kappa* root find did not converge")
    gamma = (a_chi / m).reshape(chi.shape)
    return float(gamma) if gamma.ndim == 0 else gamma


def closed_form_solve(params: QuasiStaticParams) -> QsSolveResult:
    """Single-receiver solution: chi at the covertness cap, gamma in closed form."""
    if params.K != 1:
        raise ValueError("closed form applies to exactly one receiver")
    chi = np.array([solve_chi_star(params.epsilon)])
    gamma, rates = _best_response(params.A, params.B, chi)
    obj = float(rates[0])
    return QsSolveResult(
        chi=chi,
        gamma=gamma,
        rates=np.log1p(gamma),
        objective=obj,
        method="closed_form",
        trace=[{"iteration": 0, "objective": obj}],
        constraint_slack=params.epsilon - tv_budget(chi),
    )


def tv_budget(chis) -> float:
    """sum_k eta(chi_k); the quantity capped by epsilon."""
    return float(np.sum(eta(np.minimum(np.asarray(chis, float), 1 - 1e-15))))


def _best_response(A, B, chi):
    """Best SINR thresholds and their rates, broadcast; zero where chi = 0."""
    a, b, chi = np.broadcast_arrays(A, B, np.asarray(chi, float))
    gamma = np.zeros(chi.shape)
    live = chi > 0.0
    gamma[live] = single_receiver_gamma(a[live], b[live], chi[live])
    return gamma, effective_rate(chi, gamma, a, b)


def _split_dp(table: np.ndarray, budgets):
    """Best sum_k table[k, j_k] over integer shares with sum_k j_k <= budget.

    Max-plus dynamic program, one band at a time: best[b] is the value of
    the bands so far within b grid steps and picks[k][b] is band k's share
    in it. Rows are replaced by their prefix maxima, so the first band's
    share is min(b, G), and the last band is solved at the given budgets
    only. Memory is O(K max(budgets)). Returns (value, shares) per budget.
    """
    k, n = table.shape
    rows = np.maximum.accumulate(table, axis=1)
    span = np.arange(max(budgets) + 1)
    picks = [np.minimum(span, n - 1)]
    best = rows[0][picks[0]]
    for row in rows[1:]:
        pick = np.zeros(span.size, int)
        value = np.zeros(span.size)
        for b in span if len(picks) < k - 1 else budgets:
            top = min(b, n - 1)
            # best[b - j] + row[j] for the band's share j = 0 .. top
            cand = best[b - top:b + 1][::-1] + row[:top + 1]
            pick[b] = np.argmax(cand)
            value[b] = cand[pick[b]]
        picks.append(pick)
        best = value
    out = []
    for budget in budgets:
        shares = np.zeros(k, int)
        for band in range(k - 1, -1, -1):
            shares[band] = picks[band][budget - shares.sum()]
        out.append((float(best[budget]), shares))
    return out


def poa_solve(params: QuasiStaticParams, delta: float = 1e-4,
              warm_start=None) -> QsSolveResult:
    """Global delta-certified solution by a budget-split search.

    Both the objective sum_k r_k(chi_k) and the budget sum_k eta(chi_k) are
    separable, so the problem splits epsilon into shares e_k across the K
    increasing functions g_k(e) = r_k(eta^-1(e)). On the grid e_j = j eps/G
    one kernel call tabulates every g_k. Floor shares (sum_k j_k <= G) are
    feasible, so their best split is the incumbent; the optimum's shares
    rounded up sum to at most G + K - 1 grid steps and each g_k is
    increasing, so the best split at that budget bounds the optimum from
    above. G doubles until bound - incumbent <= delta (`converged`); past
    `_GRID_CAP` the incumbent is returned with `converged` False.

    The name and the "poa" method label predate this search: they were
    kept for the polyblock outer approximation it replaced, because run
    directories, traces and benchmarks refer to them.

    `warm_start` (a feasible chi vector, e.g. an SCA solution) seeds the
    incumbent, so the returned value never falls below it.
    """
    k = params.K
    best_point = np.zeros(k)
    best_value = 0.0
    if warm_start is not None:
        ws = np.asarray(warm_start, float)
        if ws.shape != (k,) or np.any(ws < 0.0):
            raise ValueError("warm_start must be a nonnegative K-vector")
        if tv_budget(ws) > params.epsilon + 1e-12:
            raise ValueError("warm_start violates the covertness budget")
        best_point = ws
        best_value = float(np.sum(_best_response(params.A, params.B, ws)[1]))
    trace = []
    converged, grid = False, 64
    while not converged and grid <= _GRID_CAP:
        chi = np.zeros(grid + 1)
        chi[1:] = solve_chi_star(np.linspace(0.0, params.epsilon, grid + 1)[1:])
        table = _best_response(params.A[:, None], params.B[:, None], chi)[1]
        (_, shares), (bound, _) = _split_dp(table, (grid, grid + k - 1))
        low = float(np.sum(table[np.arange(k), shares]))
        if low > best_value:
            best_value, best_point = low, chi[shares]
            # Shares summed in floating point may exceed epsilon by an ulp.
            while tv_budget(best_point) > params.epsilon:
                best_point = np.nextafter(best_point, 0.0)
        trace.append({"iteration": len(trace) + 1, "bound": bound,
                      "best_feasible": best_value})
        converged = bound - best_value <= delta
        grid *= 2

    gammas, rates = _best_response(params.A, params.B, best_point)
    return QsSolveResult(
        chi=best_point,
        gamma=gammas,
        rates=np.log1p(gammas),
        objective=float(np.sum(rates)),
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
    gamma = single_receiver_gamma(params.A, params.B, chi0)
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
