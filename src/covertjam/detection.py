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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainccinv

from .covertness import BandDistribution, likelihood_ratio_delta
from .quadrature import LogPhiSpline, log_phi_exact
from .scenario import ScenarioInstance, rng_stream

__all__ = [
    "DetectionEstimate",
    "CovertnessAudit",
    "simulate_detection",
    "covertness_audit",
]

_SHARD = 1 << 14
# Spawn-key namespace for detection shards (scenario sampling uses 0, the
# TV Monte-Carlo uses 1).
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


class _BandLogPsi:
    """Spline-backed ln Psi(p, q, .) for one band at fixed sample count.

    Splines cover the plausible range of the Gamma-mixture draws; the rare
    exceedances (exponential draws beyond ~60) fall back to the exact
    panel integrator, so no sample is ever clamped. Both splines end at
    the same z_hi, hence share their knots, so each sample is located once
    and both are evaluated at that interval.
    """

    def __init__(self, band: BandDistribution, n: float):
        self.p = band.p_norm
        self.q = band.q_norm
        self.n = n
        z_hi = (1.0 + 60.0 * (self.p + self.q)) * float(gammainccinv(n, 1e-12))
        self.z_hi = z_hi
        self._spline_p = LogPhiSpline(self.p, n, z_hi)
        self._spline_q = LogPhiSpline(self.q, n, z_hi)

    def __call__(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        flat = z.ravel()
        at = self._spline_p.locate(flat)
        lp = self._spline_p.evaluate(*at)
        lq = self._spline_q.evaluate(*at)
        high = flat > self.z_hi
        if high.any():
            lp[high] = log_phi_exact(self.p, flat[high], self.n)
            lq[high] = log_phi_exact(self.q, flat[high], self.n)
        delta = likelihood_ratio_delta(self.p, self.q, flat, self.n,
                                       log_phi_p=lp, log_phi_q=lq)
        return np.log1p(delta).reshape(z.shape)


def _shard_sizes(trials: int):
    sizes = [_SHARD] * (trials // _SHARD)
    if trials % _SHARD:
        sizes.append(trials % _SHARD)
    return sizes


def _run_shard(idx: int, m: int, seed: int, p: np.ndarray, q: np.ndarray,
               n_d: int, blocks: int, evaluators, kind: str):
    """One deterministic slice of trials; returns per-shard counts/statistics."""
    rng = rng_stream(seed, _STREAM_KEY, idx)
    k = len(p)
    # Each draw's temporaries are released once used, and z1's scale
    # (1 + p u1) + q v1 is formed in u1's buffer, to bound peak memory.
    v0 = rng.exponential(size=(m, blocks, k))
    z0 = rng.gamma(shape=n_d, scale=1.0 + q * v0)
    del v0
    u1 = rng.exponential(size=(m, blocks, k))
    v1 = rng.exponential(size=(m, blocks, k))
    u1 *= p
    u1 += 1.0
    v1 *= q
    u1 += v1
    del v1
    z1 = rng.gamma(shape=n_d, scale=u1)
    del u1
    if kind == "lrt":
        stat0 = np.zeros(m)
        stat1 = np.zeros(m)
        for band_idx, psi in evaluators:
            stat0 += psi(z0[:, :, band_idx]).sum(axis=1)
            stat1 += psi(z1[:, :, band_idx]).sum(axis=1)
        return int((stat0 > 0.0).sum()), int((stat1 <= 0.0).sum()), None, None
    return None, None, z0.sum(axis=(1, 2)), z1.sum(axis=(1, 2))


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

    Per trial and hypothesis, each of the L blocks draws fresh fading and
    jamming scales per band and the normalized N_d-sample energy from the
    conditional Gamma law. The LRT is thresholded at 0 in log form; the
    energy detector pools sum-energies and picks the empirically best
    threshold. Deterministic in (seed, trials): trials shard into
    fixed-size RNG streams.
    """
    if detector_kind not in ("lrt", "energy"):
        raise ValueError("detector_kind must be 'lrt' or 'energy'")
    if trials < 10**3:
        raise ValueError("need at least 1e3 trials per hypothesis")
    if N_d < 1 or L < 1:
        raise ValueError("N_d and L must be >= 1")
    bands = instance.bands_for_chi(chis)
    for band in bands:
        band.require_covert_domain()
    p = np.array([b.p_norm for b in bands])
    q = np.array([b.q_norm for b in bands])

    evaluators = []
    if detector_kind == "lrt":
        evaluators = [(k, _BandLogPsi(b, N_d))
                      for k, b in enumerate(bands) if b.p_norm > 0.0]

    results = [_run_shard(i, m, seed, p, q, N_d, L, evaluators, detector_kind)
               for i, m in enumerate(_shard_sizes(trials))]

    if detector_kind == "lrt":
        fa_count = sum(r[0] for r in results)
        md_count = sum(r[1] for r in results)
        p_fa = fa_count / trials
        p_md = md_count / trials
    else:
        t0 = np.concatenate([r[2] for r in results])
        t1 = np.concatenate([r[3] for r in results])
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
