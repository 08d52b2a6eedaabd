"""Monte-Carlo adversary: optimal likelihood-ratio and energy detectors.

Validates the covertness analysis end to end: simulates the adversary's
per-band energies under both hypotheses, runs the likelihood-ratio test at
threshold 1 (the minimum-sum-error point) or a sum-energy detector with an
empirically optimized threshold, and reports the achieved P_FA + P_MD with
a binomial confidence interval.

Conditional on the fading/jamming draw of a block, the per-band sample
vector is isotropic Gaussian, so the total energy is a sufficient statistic
and is drawn directly from the matching Gamma law instead of materializing
N_d complex samples per band.

The likelihood ratio reads each band's ln Psi from one certified cubic
table over the energies' support under both hypotheses, read by one fused
kernel (a log, the interval from the uniform knot step, one gather of
Horner coefficients); tables are memoised per band and process.

Trials run in fixed-size shards, each on its own RNG stream. A shard
keeps one (trials, L, K) array alive, the Gamma scales of the hypothesis
at hand, and draws and reduces the energies a row block of about 2^15
doubles at a time. The draws, and their order in the stream, are those of
drawing every array whole, so results do not depend on the block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .covertness import _require_chi, log_psi
from .quadrature import (
    _SPLINE_KNOTS,
    _WORK_BLOCK,
    _certificate_error,
    _not_a_knot_coeffs,
    _spline_knots,
    gamma_isf,
)
# LogPhiSpline and log_phi_exact stay importable from here: bench/tracing.py
# traces them at this lookup site as well as in quadrature.
from .quadrature import LogPhiSpline, log_phi_exact  # noqa: F401
from .scenario import ScenarioInstance, rng_stream

__all__ = [
    "DetectionEstimate",
    "CovertnessAudit",
    "simulate_detection",
    "covertness_audit",
]

_SHARD = 1 << 14
# Fewest trials per hypothesis that a detection estimate accepts.
_MIN_TRIALS = 10**3
# Spawn-key namespace for detection shards. Scenario sampling uses 0; key 1
# is left to the tests' Monte-Carlo TV estimate.
_STREAM_KEY = 2


@dataclass(frozen=True)
class DetectionEstimate:
    """Empirical detector performance over `trials` trials per hypothesis."""

    p_fa: float
    p_md: float
    sum_error: float
    ci_half_width: float
    trials: int
    detector_kind: str


@dataclass(frozen=True)
class CovertnessAudit:
    """Comparison of an empirical sum error against the 1 - epsilon floor."""

    estimate: DetectionEstimate
    epsilon: float
    bound: float
    slack: float
    passed: bool


def _ci_half_width(fa_count: int, md_count: int, trials: int) -> float:
    # Normal-approximation binomial CI for the sum of two independent
    # error rates; the +1/+2 nudge keeps it positive at empirical 0 or 1.
    pf = (fa_count + 1.0) / (trials + 2.0)
    pm = (md_count + 1.0) / (trials + 2.0)
    return 1.96 * math.sqrt((pf * (1.0 - pf) + pm * (1.0 - pm)) / trials)


# Largest |error| in ln Psi that a band's table may certify. The LRT
# statistic sums L K band terms, so tables within the gate move it by at most
# L K _BAND_GATE, and a trial's verdict can change only if its statistic
# lies that close to 0. Two ln Phi splines per band on the same knots,
# composed through delta, are off by up to 7.8e-7 in ln Psi on dense
# scans (n = 500, q = 31620, chi = 0.01), so the gate is no looser than
# that design.
_BAND_GATE = 1e-6


class _BandLogPsi:
    """Table-backed ln Psi(p, q, .) for one band at fixed sample count.

    p and q are the band's normalized signal and jamming powers. Under
    both hypotheses the energy is z = s * scale with s ~ Gamma(n) and
    scale >= 1, which is 1 + p u + q v <= 1 + 120 q under H1 for u, v
    <= 60. So the table covers [z_lo, z_hi] with z_lo the Gamma(n)
    quantile at 1e-12 and z_hi = (1 + 120 q) times the one at 1 - 1e-12;
    the rare draws outside (probability about 1e-12 below, exponential
    draws beyond ~60 above) take the exact `log_psi`, so no sample is
    ever clamped.

    The table is the not-a-knot cubic spline of exact ln Psi at the
    knots of `LogPhiSpline`'s trimmed grid over [z_lo, z_hi], stored as
    one (intervals, 4) array of Horner coefficients in the interval
    fraction u = (ln z - t_i) / h. A call reads it in one fused pass: a
    clipped log, the interval index from the uniform step (a knot off
    the step by an ulp only moves the sample to the neighbouring cubic,
    which matches at the knot to rounding), one gather of the
    coefficient rows, and Horner in u. It is certified against `log_psi`
    like `LogPhiSpline`, on the knot intervals that samples reach and the
    bends above 1/p and 1/q, at _BAND_GATE. A band whose table fails that
    certificate tries once more on a grid four times finer, and if that
    fails too, reads every sample from `log_psi` instead of raising.
    """

    def __init__(self, p: float, q: float, n: float):
        self.p = p
        self.q = q
        self.n = n
        self.z_lo = gamma_isf(n, 1.0 - 1e-12)
        self.z_hi = (1.0 + 120.0 * q) * gamma_isf(n, 1e-12)
        # A grid four times finer is 256 times more accurate (a cubic
        # spline's error goes as h^4); bands from N_d of about 1000 on
        # need it.
        for knots in (_SPLINE_KNOTS, 4 * _SPLINE_KNOTS):
            self._fit(_spline_knots(self.z_hi, self.z_lo, knots))
            if self.max_abs_err <= _BAND_GATE:
                return
        self.table = None

    def _fit(self, t: np.ndarray) -> None:
        """The table on knots t, and its certificate."""
        self.knots = t
        c = _not_a_knot_coeffs(t, self._exact(np.exp(t)))
        self._z_first = float(np.exp(t[0]))
        # Below an untrimmed grid's first knot (z_lo under _SPLINE_Z_LO,
        # at n near 1) the table is not fitted: those samples are exact.
        self._z_min = max(self.z_lo, self._z_first)
        self._t0 = t[0]
        self._inv_step = (t.size - 1) / (t[-1] - t[0])
        self._last = t.size - 2
        powers = (1.0 / self._inv_step) ** np.arange(4.0)
        self.table = np.ascontiguousarray((c[::-1] * powers[:, None]).T)
        # Certify the knot intervals that samples reach: from the one
        # holding z_min on.
        reached = t[max(np.searchsorted(t, np.log(self._z_min), "right") - 1,
                        0):]
        self.max_abs_err = _certificate_error(
            lambda z: self._horner(np.clip(z, self._z_first, self.z_hi)),
            self._exact, reached, (self.p, self.q))

    def _exact(self, z) -> np.ndarray:
        return log_psi(self.p, self.q, z, self.n)

    def _horner(self, u: np.ndarray) -> np.ndarray:
        """The table at energies u within its knots; overwrites u."""
        np.log(u, out=u)
        u -= self._t0
        u *= self._inv_step
        i = u.astype(np.intp)
        np.minimum(i, self._last, out=i)
        u -= i
        c = self.table.take(i, axis=0)
        out = c[..., 3] * u
        out += c[..., 2]
        out *= u
        out += c[..., 1]
        out *= u
        out += c[..., 0]
        return out

    def __call__(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if self.table is None:
            return self._exact(z).reshape(z.shape)
        u = np.clip(z, self._z_min, self.z_hi, out=np.empty(z.shape))
        # A clipped sample sits on a bound; the reductions are cheaper on
        # the contiguous u than a mask over the strided z.
        clipped = u.size and (u.min() == self._z_min or u.max() == self.z_hi)
        out = self._horner(u)
        if clipped:
            outside = (z < self._z_min) | (z > self.z_hi)
            out[outside] = self._exact(z[outside])
        return out


@lru_cache(maxsize=32)
def _band(p: float, q: float, n: float) -> _BandLogPsi:
    """The band evaluator of (p, q, n), built once per process.

    The cache holds at most 32 tables, of 40 bytes per knot: at most 160 KB
    on the base grid and 640 KB on the finer one. Audit threads share it,
    and a concurrent miss builds the same table twice.
    """
    return _BandLogPsi(p, q, n)


def _run_shard(idx: int, m: int, seed: int, p: np.ndarray, q: np.ndarray,
               n_d: int, blocks: int, statistic):
    """One deterministic slice of m trials; returns (stat0, stat1).

    `statistic(z)` reduces a (rows, blocks, k) energy block to one value
    per row; stat0 and stat1 hold it for each trial under H0 and H1.

    One (m, blocks, k) array is live: the Gamma scale of the hypothesis at
    hand, 1 + q v0 under H0, then (1 + p u1) + q v1 under H1 in the same
    buffer. The energies, and v1, are drawn a row block of about
    _WORK_BLOCK doubles at a time, and each energy block is reduced to its
    rows' statistics at once. The variates and their stream order are
    those of drawing each array whole (v0, z0, u1, v1, z1): consecutive
    block draws continue one stream, and gamma(n, s) is
    s * standard_gamma(n) bit for bit.
    """
    rng = rng_stream(seed, _STREAM_KEY, idx)
    k = len(p)
    rows = max(1, _WORK_BLOCK // (blocks * k))
    row_blocks = [slice(lo, lo + rows) for lo in range(0, m, rows)]

    def draw_and_reduce(scale):
        stat = np.empty(m)
        for r in row_blocks:
            z = rng.standard_gamma(n_d, size=scale[r].shape)
            z *= scale[r]
            stat[r] = statistic(z)
        return stat

    scale = rng.standard_exponential(size=(m, blocks, k))
    scale *= q
    scale += 1.0
    stat0 = draw_and_reduce(scale)
    rng.standard_exponential(out=scale)
    scale *= p
    scale += 1.0
    for r in row_blocks:
        v1 = rng.standard_exponential(size=scale[r].shape)
        v1 *= q
        scale[r] += v1
    return stat0, draw_and_reduce(scale)


def _energy_threshold_errors(t0: np.ndarray, t1: np.ndarray):
    """Minimum empirical sum error of the detector T > tau over all tau.

    Sort-based sweep: every pooled sample value is a candidate threshold.
    The extremes are included: tau = -inf declares H1 always (FA = 1,
    MD = 0) and tau at the largest sample declares it never (FA = 0,
    MD = 1).
    """
    n0, n1 = len(t0), len(t1)
    pooled = np.concatenate([t0, t1])
    labels = np.concatenate([np.zeros(n0, dtype=bool), np.ones(n1, dtype=bool)])
    order = np.argsort(pooled, kind="stable")
    is_h1 = labels[order]
    # After thresholding at the i-th sorted value: FA = #(t0 > tau)/n0,
    # MD = #(t1 <= tau)/n1. Prepend tau = -inf (alarm always: FA=1, MD=0).
    cum1 = np.cumsum(is_h1)
    cum0 = np.arange(1, n0 + n1 + 1) - cum1
    fa = np.concatenate([[n0], n0 - cum0]) / n0
    md = np.concatenate([[0], cum1]) / n1
    total = fa + md
    best = int(np.argmin(total))
    return float(fa[best]), float(md[best])


def simulate_detection(instance: ScenarioInstance, chis, N_d: int, L: int,
                       trials: int = 10**5, seed: int = 0,
                       detector_kind: str = "lrt") -> DetectionEstimate:
    """Empirical min-sum-error of the adversary's detector at the given chis.

    chis holds one band ratio in [0, 1) per receiver; band k carries the
    normalized signal power p_k = chis[k] * instance.q_norm[k]. Per trial
    and hypothesis, each of the L blocks draws fresh fading and jamming
    scales per band and the normalized N_d-sample energy from the
    conditional Gamma law. The LRT is thresholded at 0 in log form; the
    energy detector pools sum-energies and picks the empirically best
    threshold. Deterministic in (seed, trials): trials shard into
    fixed-size RNG streams.
    """
    if detector_kind not in ("lrt", "energy"):
        raise ValueError("detector_kind must be 'lrt' or 'energy'")
    if trials < _MIN_TRIALS:
        raise ValueError(f"need at least {_MIN_TRIALS} trials per hypothesis")
    if N_d < 1 or L < 1:
        raise ValueError("N_d and L must be >= 1")
    q = instance.q_norm
    chis = np.asarray(chis, dtype=float)
    if chis.shape != q.shape:
        raise ValueError("chi vector length must equal the receiver count")
    _require_chi(chis)
    p = chis * q

    if detector_kind == "lrt":
        bands = [(k, _band(float(p[k]), float(q[k]), N_d))
                 for k in range(len(p)) if p[k] > 0.0]

        def statistic(z):
            return sum(psi(z[:, :, k]).sum(axis=1) for k, psi in bands)
    else:
        def statistic(z):
            return z.sum(axis=(1, 2))

    # Lazy: each LRT shard is reduced to counts and freed before the next.
    shards = (_run_shard(i, min(_SHARD, trials - lo), seed, p, q, N_d, L,
                         statistic)
              for i, lo in enumerate(range(0, trials, _SHARD)))
    if detector_kind == "lrt":
        fa_count = md_count = 0
        for stat0, stat1 in shards:
            fa_count += int((stat0 > 0.0).sum())
            md_count += int((stat1 <= 0.0).sum())
            del stat0, stat1
        p_fa = fa_count / trials
        p_md = md_count / trials
    else:
        t0, t1 = (np.concatenate(stats) for stats in zip(*shards))
        p_fa, p_md = _energy_threshold_errors(t0, t1)
        fa_count = int(round(p_fa * trials))
        md_count = int(round(p_md * trials))
    return DetectionEstimate(
        p_fa=p_fa,
        p_md=p_md,
        sum_error=p_fa + p_md,
        ci_half_width=_ci_half_width(fa_count, md_count, trials),
        trials=trials,
        detector_kind=detector_kind,
    )


def covertness_audit(instance: ScenarioInstance, chis, N_d: int, L: int,
                     epsilon: float, trials: int = 10**5,
                     seed: int = 0) -> CovertnessAudit:
    """Check empirically that the adversary's sum error stays >= 1 - epsilon.

    Runs the optimal detector; the audit passes when the empirical sum
    error is above the floor within three CI half-widths of slack.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    est = simulate_detection(instance, chis, N_d, L, trials=trials,
                             seed=seed, detector_kind="lrt")
    bound = 1.0 - epsilon
    slack = est.sum_error + 3.0 * est.ci_half_width - bound
    return CovertnessAudit(estimate=est, epsilon=epsilon, bound=bound,
                           slack=slack, passed=slack >= 0.0)
