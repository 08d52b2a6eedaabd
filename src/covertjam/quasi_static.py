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
    lands within a few percent of the global optimum. Each convex
    subproblem is a Newton search on one dual multiplier; at a fixed
    multiplier every band's 2-D problem reduces to one monotone scalar
    equation, solved in plain `math`.

Rates are in nats per channel use throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covertness import solve_chi_star, tv_upper_bound
from .roots import increasing_root, increasing_roots
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

# First and largest share grid of the budget-split search, in steps.
_GRID_START = 64
_GRID_CAP = 2**16
# {epsilon: finest share grid solved so far}, for the most recent epsilon
# only, so it holds at most _GRID_CAP + 1 floats (0.5 MB).
_SHARE_GRID: dict = {}
# Cap on the SCA outage variable x, which keeps t(x) finite.
_X_HI = 1.0 - 1e-12
# SCA stops once the relative objective change is below _SCA_TOL.
_SCA_TOL = 1e-6
_SCA_MAX_ITER = 100


@dataclass
class QsSolveResult:
    """Solution of the effective-sum-rate problem plus solver diagnostics."""

    chi: np.ndarray
    gamma: np.ndarray
    objective: float
    method: str
    trace: list
    constraint_slack: float
    converged: bool = True

    def __post_init__(self):
        self.chi = np.asarray(self.chi, float)
        self.gamma = np.asarray(self.gamma, float)
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


def single_receiver_gamma(A1, B1, chi_cap):
    """Optimal SINR threshold for one receiver at transmit level chi_cap.

    Vectorized over broadcast (A1, B1, chi_cap); scalar inputs give a
    float. The optimum gamma* = 1/kappa* where kappa* is the unique root of
    Xi(kappa) = B above ln(B)/(A chi). In m = A chi kappa the root solves
    the convex F(m) = 0 of `residual` below on the bracket [ln B, ln B + 60]:
    F < 0 at the outage edge m = ln B, and F > 0 at the right end for every
    finite input, since phi < 711 there keeps ln(1 + m phi) below 14.
    Newton from the right end (`roots.increasing_roots`) converges
    monotonically and stops above the root, so the returned gamma keeps
    the outage factor B e^{-m} below 1.
    """
    a, b, chi = np.broadcast_arrays(*(np.asarray(v, float)
                                      for v in (A1, B1, chi_cap)))
    if not np.all((a > 0.0) & (a < np.inf) & (b > 1.0) & (b < np.inf)):
        raise ValueError("need finite A1 > 0 and B1 > 1")
    if not np.all((chi > 0.0) & (chi < 1.0)):
        raise ValueError("chi_cap must lie in (0, 1)")
    a_chi, ln_b = (a * chi).ravel(), np.log(b).ravel()

    def residual(m, rows):
        """F(m) = ln(e^m / (B (1 + m phi))), dF/dm and F's rounding floor.

        With kappa = m / (A chi) and phi(kappa) = (1 + kappa) ln(1 + 1/kappa),
        F = 0 exactly where Xi(kappa) = e^m - B m phi = B. Working in m
        keeps kappa from overflowing near 1e154. |F| <= 1e-15 m is the
        rounding floor of F's three terms.
        """
        kappa = m / a_chi[rows]
        big = kappa > 1e10
        with np.errstate(divide="ignore", invalid="ignore"):
            log_term = np.log1p(1.0 / kappa)
            phi = np.where(big, 1.0 + 0.5 / kappa, (1.0 + kappa) * log_term)
            # d(m phi)/dm = (1 + 2 kappa) ln(1 + 1/kappa) - 1, 1 for big kappa
            dphi = np.where(big, 1.0, (1.0 + 2.0 * kappa) * log_term - 1.0)
        return m - ln_b[rows] - np.log1p(m * phi), \
            1.0 - dphi / (1.0 + m * phi), 1e-15 * m

    m = increasing_roots(residual, ln_b + 60.0, ln_b, ln_b + 60.0)
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
        objective=obj,
        method="closed_form",
        trace=[{"iteration": 0, "objective": obj}],
        constraint_slack=params.epsilon - tv_upper_bound(chi),
    )


def _best_response(A, B, chi):
    """Best SINR thresholds and their rates, broadcast; zero where chi = 0."""
    a, b, chi = np.broadcast_arrays(A, B, np.asarray(chi, float))
    gamma = np.zeros(chi.shape)
    live = chi > 0.0
    gamma[live] = single_receiver_gamma(a[live], b[live], chi[live])
    return gamma, effective_rate(chi, gamma, a, b)


def _refine(coarse: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """Values on a doubled grid: `coarse` at its even points, `odd` between."""
    fine = np.empty(coarse.shape[:-1] + (2 * coarse.shape[-1] - 1,))
    fine[..., ::2] = coarse
    fine[..., 1::2] = odd
    return fine


def _share_grid(epsilon: float, grid: int) -> np.ndarray:
    """Read-only chi_j = solve_chi_star(j epsilon / grid), j = 0 .. grid.

    `grid` is `_GRID_START` times a power of two. linspace(0, eps, 2G + 1)
    has exactly half the step of linspace(0, eps, G + 1) and the same end
    points, so its even points are the coarser grid's bit for bit, and
    solve_chi_star works element by element: grid 2G keeps grid G as its
    even points and solves only the odd ones. The finest grid is cached
    (`_SHARE_GRID`); a coarser one is a strided view of it.
    """
    chi = _SHARE_GRID.pop(epsilon, None)
    _SHARE_GRID.clear()
    if chi is None:
        chi = np.zeros(_GRID_START + 1)
        chi[1:] = solve_chi_star(
            np.linspace(0.0, epsilon, _GRID_START + 1)[1:])
    while chi.size - 1 < grid:
        odd = np.linspace(0.0, epsilon, 2 * chi.size - 1)[1::2]
        chi = _refine(chi, solve_chi_star(odd))
    chi.flags.writeable = False
    _SHARE_GRID[epsilon] = chi
    return chi[::(chi.size - 1) // grid]


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

    The share grid depends on (epsilon, G) only and is cached across
    solves (`_share_grid`); each doubling solves only its new, odd grid
    points and table columns, with the bits of a rebuilt table.

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
        if tv_upper_bound(ws) > params.epsilon + 1e-12:
            raise ValueError("warm_start violates the covertness budget")
        best_point = ws
        best_value = float(np.sum(_best_response(params.A, params.B, ws)[1]))
    a, b = params.A[:, None], params.B[:, None]
    trace = []
    converged, grid = False, _GRID_START
    while not converged and grid <= _GRID_CAP:
        chi = _share_grid(params.epsilon, grid)
        if grid == _GRID_START:
            table = _best_response(a, b, chi)[1]
        else:  # the previous round's table holds the even columns
            table = _refine(table, _best_response(a, b, chi[1::2])[1])
        (_, shares), (bound, _) = _split_dp(table, (grid, grid + k - 1))
        low = float(np.sum(table[np.arange(k), shares]))
        if low > best_value:
            best_value, best_point = low, chi[shares]
            # Shares summed in floating point may exceed epsilon by an ulp.
            while tv_upper_bound(best_point) > params.epsilon:
                best_point = np.nextafter(best_point, 0.0)
        trace.append({"iteration": len(trace) + 1, "bound": bound,
                      "best_feasible": best_value})
        converged = bound - best_value <= delta
        grid *= 2

    gammas, rates = _best_response(params.A, params.B, best_point)
    return QsSolveResult(
        chi=best_point,
        gamma=gammas,
        objective=float(np.sum(rates)),
        method="poa",
        trace=trace,
        constraint_slack=params.epsilon - tv_upper_bound(best_point),
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


def default_sca_state(params: QuasiStaticParams) -> ScaState:
    """Feasible starting point: uniform chis using half the covert budget."""
    k = params.K
    # eta(x) <= x, so each band's eta stays within eps/(2K).
    chi0 = params.epsilon / (2 * k)
    gamma = single_receiver_gamma(params.A, params.B, chi0)
    t = chi0 / gamma
    alpha = 1.0 - params.B * np.exp(-params.A * t)
    beta = np.log1p(gamma)
    return ScaState(t=t, gamma=gamma, alpha=np.maximum(alpha, 0.0), beta=beta,
                    iteration=0, objective=float(np.dot(alpha, beta)))


def _band_optimum(rho, lam_l1, lam_l2, a, ln_b, y_start):
    """Minimize (x-y)^2 - 2 rho (x+y) + (lam l1/2) t(x)^2 + (lam l2/2) g(y)^2.

    t(x) = (ln B - ln(1-x))/a and g(y) = e^y - 1 come from the activity of
    the outage and rate constraints; x lies in [0, 1 - 1e-12], y >= 0 and
    rho > 0. The y-stationarity gives x(y) = y - rho + (lam l2/2) g(y) e^y,
    convex and increasing, and along that curve the x-gradient is
    S(y) = -4 rho + lam l2 g(y) e^y + p(x(y)) with p = lam l1 t t', convex
    and increasing while x(y) is in range and below S(y0) before it. So
    the optimum is the corner x = 0 at x(y0) = 0 when S(y0) >= 0, x pinned
    at its cap when S stays negative up to it, and the root of S
    otherwise. At an end x_e of the range, S = p(x_e) - 2 (rho + y_e - x_e)
    with y_e - x_e in [0, rho], which rules out each end case cheaply.
    Since x(y) >= y - rho, every root lies in [0, rho + 1]. `y_start`
    seeds each root find.
    """
    half = 0.5 * lam_l2

    def x_gap(y, x_end):  # x(y) - x_end
        e = math.exp(y)
        q = half * math.expm1(y) * e
        return (y - rho + q - x_end, 1.0 + half * e * (2.0 * e - 1.0),
                1e-14 * (y + rho + q + x_end))

    def slope(y):  # S(y); +inf once x(y) passes its cap
        e = math.exp(y)
        q = lam_l2 * math.expm1(y) * e
        x = y - rho + 0.5 * q
        if x > _X_HI:
            return math.inf, 1.0, 0.0
        one_mx = 1.0 - x
        t = (ln_b - math.log1p(-x)) / a
        tp = 1.0 / (a * one_mx)
        p = lam_l1 * t * tp
        dp = lam_l1 * tp * (tp + t / one_mx)
        ds = lam_l2 * e * (2.0 * e - 1.0) \
            + dp * (1.0 + half * e * (2.0 * e - 1.0))
        # x(y) is rounded by about 1e-16 (y + rho + q), which reaches S
        # through dp/dx.
        return q + p - 4.0 * rho, ds, \
            1e-14 * (q + p + 4.0 * rho) + 1e-15 * dp * (y + rho + q)

    def end_slope(x_end, p_end, lo):  # y_e with x(y_e) = x_end, S there
        hi = rho + x_end
        y_e = increasing_root(lambda y: x_gap(y, x_end),
                               min(max(y_start, lo), hi), lo, hi)
        return y_e, p_end - 2.0 * (rho + y_e - x_end)

    # x(y) <= y (1 + (lam l2/2) e^(2 rho)) - rho for y <= rho bounds y0 below.
    lo, hi = rho / (1.0 + half * math.exp(2.0 * rho)), rho + 1.0
    p_end = lam_l1 * ln_b / (a * a)
    if p_end > 2.0 * rho:
        lo, s_end = end_slope(0.0, p_end, lo)
        if s_end >= 0.0:
            return 0.0, lo
    p_end = lam_l1 * (ln_b - math.log1p(-_X_HI)) / (a * a * (1.0 - _X_HI))
    if p_end < 4.0 * rho:
        hi, s_end = end_slope(_X_HI, p_end, lo)
        if s_end < 0.0:
            return _X_HI, hi
    y = increasing_root(slope, min(max(y_start, lo), hi), lo, hi)
    return max(x_gap(y, 0.0)[0], 0.0), y


def _subproblem_at_lambda(lam, bands, warm):
    """Per-band (alpha, beta, t, gamma) at multiplier lam, and dr/dlam.

    `bands` holds (index, rho, l1, l2, A, ln B) per active band as floats;
    `warm` holds each band's y from the previous call and is overwritten
    with the new one. Each solution is checked for stationarity; a failure
    names the band (its index in the full problem) and lam. The ellipsoid
    residual falls at dr/dlam = -sum_k v_k^T H_k^-1 v_k (the sum returned),
    H_k the band's Hessian and v_k = (l1 t t', l2 g e^y) the lam-derivative
    of its gradient; the term is v_y^2 / H_yy with x at 0 or at its cap.
    """
    out = np.empty((4, len(bands)))
    pull = 0.0
    for i, (band, rho, l1, l2, a, ln_b) in enumerate(bands):
        x, y = _band_optimum(rho, lam * l1, lam * l2, a, ln_b, warm[i])
        t = (ln_b - math.log1p(-x)) / a
        tp = 1.0 / (a * (1.0 - x))
        e = math.exp(y)
        g = math.expm1(y)
        q = lam * l2 * g * e
        gx = 2.0 * (x - y) - 2.0 * rho + lam * l1 * t * tp
        gy = 2.0 * (y - x) - 2.0 * rho + q
        curve_x = lam * l1 * tp * (tp + t / (1.0 - x))
        tol = 1e-6 * (1.0 + lam * (l1 + l2))
        # x = x(y) carries the rounding of y - rho + q/2, which reaches gx
        # through its curvature: near x = 1 that exceeds 1e-6.
        tol_x = tol + 1e-14 * curve_x * (y + rho + q)
        # x may stop at a clamp with the gradient pointing outward.
        x_ok = abs(gx) <= tol_x or (x >= 1.0 - 1e-11 and gx < 0.0) \
            or (x == 0.0 and gx > 0.0)
        if not (x_ok and abs(gy) <= tol):
            raise ArithmeticError(f"SCA band {band} subproblem is not "
                                  f"stationary at lambda {lam!r}")
        h_xx = 2.0 + curve_x
        h_yy = 2.0 + lam * l2 * e * (2.0 * e - 1.0)
        v_x, v_y = l1 * t * tp, l2 * g * e
        if x == 0.0 or x == _X_HI:
            pull += v_y * v_y / h_yy
        else:
            pull += (h_yy * v_x * v_x + 4.0 * v_x * v_y + h_xx * v_y * v_y) \
                / (h_xx * h_yy - 4.0)
        out[:, i] = x, y, t, g
        warm[i] = y
    return out, pull


def sca_subproblem(state: ScaState, params: QuasiStaticParams) -> ScaState:
    """One convex subproblem, solved by a Newton search on its one dual.

    The trust ellipsoid (1/2) sum(l1 t^2 + l2 gamma^2) <= epsilon with
    l1 = gamma_j/t_j, l2 = t_j/gamma_j touches the bilinear budget at the
    iterate, so the previous point stays feasible and the surrogate
    objective improves monotonically. At fixed multiplier the problem
    separates into per-band strictly convex 2-D problems, each solved
    exactly by `_band_optimum` and checked for stationarity (a failed check
    raises ArithmeticError). The ellipsoid residual r falls with lam, so
    `roots.increasing_root` solves r = -floor (r's rounding floor) in
    w = 1/lam on [2^-61, 1e12], where bisection halves ln lam; r is then
    at most two floors below zero and never above it.
    """
    # A band whose power product has collapsed stays frozen at zero rate;
    # its coordinate would make the trust weights degenerate.
    active = (state.t > 0.0) & (state.gamma > 1e-200) \
        & (state.alpha + state.beta > 0.0)
    l1 = state.gamma[active] / state.t[active]
    l2 = state.t[active] / state.gamma[active]
    rho = state.alpha[active] + state.beta[active]
    bands = list(zip(np.flatnonzero(active).tolist(), rho.tolist(),
                     l1.tolist(), l2.tolist(), params.A[active].tolist(),
                     np.log(params.B[active]).tolist()))
    warm = state.beta[active].tolist()
    floor = 1e-14 * params.epsilon
    feasible = {}

    def residual(w):
        sol, pull = _subproblem_at_lambda(1.0 / w, bands, warm)
        t, gamma = sol[2:]
        r = 0.5 * float(np.dot(l1, t * t) + np.dot(l2, gamma * gamma)) \
            - params.epsilon
        if r <= 0.0:
            feasible[w] = sol
        return r + floor, pull / (w * w), floor

    w = increasing_root(residual, 1e12, 2.0**-61, 1e12)
    if w not in feasible:
        raise ArithmeticError("no dual multiplier up to 2^61 keeps the "
                              "SCA step inside its trust ellipsoid")
    full = np.zeros((4, params.K))
    full[2] = state.t  # frozen bands keep their t, at zero rate
    full[:, active] = feasible[w]
    alpha, beta, t, gamma = full
    return ScaState(t=t, gamma=gamma, alpha=alpha, beta=beta,
                    iteration=state.iteration + 1,
                    objective=float(np.dot(alpha, beta)))


def sca_solve(params: QuasiStaticParams) -> QsSolveResult:
    """Iterated convex approximation; monotone surrogate objective.

    Starts from the half-budget uniform point (`default_sca_state`), runs
    sca_subproblem until the relative objective change drops below
    `_SCA_TOL` (at most `_SCA_MAX_ITER` times), and maps back
    chi = t * gamma. The conservative budget sum(chi) <= epsilon implies
    the true constraint sum(eta(chi)) <= epsilon, which is
    re-verified on exit.
    """
    state = default_sca_state(params)
    trace = [{"iteration": state.iteration, "objective": state.objective}]
    converged = False
    for _ in range(_SCA_MAX_ITER):
        new = sca_subproblem(state, params)
        trace.append({"iteration": new.iteration, "objective": new.objective})
        rel = abs(new.objective - state.objective) \
            / max(abs(state.objective), 1e-300)
        state = new
        if rel < _SCA_TOL:
            converged = True
            break
    chi = state.t * state.gamma
    slack = params.epsilon - tv_upper_bound(chi)
    if slack < -1e-9:
        raise ArithmeticError("mapped-back SCA point violates the TV budget")
    obj = float(np.sum(effective_rate(chi, state.gamma, params.A, params.B)))
    return QsSolveResult(
        chi=chi,
        gamma=state.gamma.copy(),
        objective=obj,
        method="sca",
        trace=trace,
        constraint_slack=slack,
        converged=converged,
    )
