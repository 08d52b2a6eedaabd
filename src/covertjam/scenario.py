"""Network geometry, unit handling, and the derived per-receiver constants.

Everything downstream works on dimensionless quantities; this module is the
single place where dBm values are converted (once) to linear milliwatts and
where node positions become path losses.

Geometry convention: the transmitter sits at the origin, the adversary and the
jammer on the negative x-axis at distances d_A and d_J, and the K receivers
are drawn uniformly from a disc of radius r_c centred at (d_R, 0).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
# numpy imports numpy.random on first use; every run draws its scenarios
# from it, so it loads with the package, not inside a run's first draw.
import numpy.random  # noqa: F401


def dbm_to_mw(dbm):
    """Convert dBm to linear milliwatts (elementwise)."""
    return 10.0 ** (np.asarray(dbm, dtype=float) / 10.0)


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic child generator for (seed, key) without stream collisions.

    Uses SeedSequence spawn keys, so streams for different keys are
    statistically independent and reproducible across processes.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def path_loss(pos_a, pos_b, exponent: float = 4.0) -> float:
    """Distance-based path loss ||pos_a - pos_b||^(-exponent), linear scale."""
    a = np.asarray(pos_a, dtype=float)
    b = np.asarray(pos_b, dtype=float)
    d = float(np.linalg.norm(a - b))
    if d <= 0.0:
        raise ValueError("coincident positions give a singular path loss")
    return d ** (-exponent)


def _as_band_vector(value, k: int, name: str) -> np.ndarray:
    """Broadcast a scalar or length-K sequence to a length-K float array."""
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.size == 1:
        arr = np.full(k, arr[0])
    if arr.shape != (k,):
        raise ValueError(f"{name} must be a scalar or length-{k} sequence")
    return arr


@dataclass
class ScenarioConfig:
    """Ground truth of an experiment: geometry, powers, noise levels.

    Powers and noises are stored in dBm here and nowhere else. Q_dBm and
    noise_A_dBm accept a scalar (uniform across bands) or a length-K sequence.
    """

    K: int = 2
    M: int = 20
    d_A: float = 150.0
    d_J: float = 250.0
    d_R: float = 150.0
    r_c: float = 30.0
    path_loss_exponent: float = 4.0
    P_R_dBm: float = 5.0
    Q_dBm: object = 25.0
    noise_A_dBm: object = -80.0
    noise_R_dBm: float = -80.0
    noise_T_dBm: float = -80.0

    def validate(self) -> None:
        for name in ("K", "M", "d_A", "d_J", "d_R", "r_c",
                     "path_loss_exponent", "P_R_dBm", "noise_R_dBm",
                     "noise_T_dBm"):
            if np.ndim(getattr(self, name)) != 0:
                raise ValueError(f"{name} must be a scalar")
        for name in ("K", "M"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer")
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.M < 1:
            raise ValueError("M must be >= 1")
        for name in ("d_A", "d_J", "d_R"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.r_c < 0.0:
            raise ValueError("r_c must be nonnegative")
        if not self.r_c < self.d_R:
            raise ValueError("r_c must be smaller than d_R")
        dbm_fields = [self.P_R_dBm, self.noise_R_dBm, self.noise_T_dBm]
        dbm_fields += list(_as_band_vector(self.Q_dBm, self.K, "Q_dBm"))
        dbm_fields += list(_as_band_vector(self.noise_A_dBm, self.K,
                                           "noise_A_dBm"))
        if not all(math.isfinite(float(v)) for v in dbm_fields):
            raise ValueError("dBm values must be finite")


@dataclass
class ScenarioInstance:
    """One sampled network realization with the link constants it fixes.

    The transmit powers P_k are decision variables and every solver works
    in the band ratio chi_k = p_k / q_k, so only the jamming side of the
    adversary's bands is stored, as q_norm = Q_k S_AJ / sigma2_A; the
    signal side at band ratios chi is p_norm = chi * q_norm. Besides the draw
    itself (receiver positions, channel norms), the fields are the link
    constants `derive_quasi_static` and `derive_fast_varying` read.
    All stored powers are linear milliwatts.
    """

    config: ScenarioConfig
    receiver_pos: np.ndarray          # (K, 2)
    S_AT: float                       # transmitter -> adversary
    S_AJ: float                       # jammer -> adversary
    S_RT: np.ndarray                  # transmitter -> receiver k
    S_RJ: np.ndarray                  # jammer -> receiver k
    h_norm_sq: np.ndarray             # ||h_k||^2 draws, Gamma(M, 1)
    Q_mw: np.ndarray
    sigma2_R: float
    q_norm: np.ndarray                # Q_k * S_AJ / sigma2_A per band
    mu: np.ndarray                    # sigma2_T / (P_R * S_RT)


def sample_scenario(config: ScenarioConfig, seed: int) -> ScenarioInstance:
    """Draw receiver positions and channel gains, then derive all constants.

    Receiver positions are uniform on the disc of radius r_c around
    (d_R, 0); ||h_k||^2 is Gamma(M, 1), the norm of a CN(0, I_M) vector.
    Deterministic given (config, seed).
    """
    config.validate()
    rng = rng_stream(seed, 0)

    k, alpha = config.K, config.path_loss_exponent
    # Uniform on the disc: radius via sqrt transform, then angle.
    radius = config.r_c * np.sqrt(rng.random(k))
    angle = 2.0 * np.pi * rng.random(k)
    centre = np.array([config.d_R, 0.0])
    receiver_pos = centre + np.column_stack([radius * np.cos(angle),
                                             radius * np.sin(angle)])
    h_norm_sq = rng.gamma(shape=config.M, scale=1.0, size=k)

    pos_t = np.zeros(2)
    pos_a = np.array([-config.d_A, 0.0])
    pos_j = np.array([-config.d_J, 0.0])
    s_at = path_loss(pos_a, pos_t, alpha)
    s_aj = path_loss(pos_a, pos_j, alpha)
    s_rt = np.array([path_loss(p, pos_t, alpha) for p in receiver_pos])
    s_rj = np.array([path_loss(p, pos_j, alpha) for p in receiver_pos])

    q_mw = _as_band_vector(dbm_to_mw(config.Q_dBm), k, "Q")
    sigma2_a = _as_band_vector(dbm_to_mw(config.noise_A_dBm), k, "noise_A")
    sigma2_r = float(dbm_to_mw(config.noise_R_dBm))
    sigma2_t = float(dbm_to_mw(config.noise_T_dBm))
    p_r_mw = float(dbm_to_mw(config.P_R_dBm))

    return ScenarioInstance(
        config=config,
        receiver_pos=receiver_pos,
        S_AT=s_at,
        S_AJ=s_aj,
        S_RT=s_rt,
        S_RJ=s_rj,
        h_norm_sq=h_norm_sq,
        Q_mw=q_mw,
        sigma2_R=sigma2_r,
        q_norm=q_mw * s_aj / sigma2_a,
        mu=sigma2_t / (p_r_mw * s_rt),
    )


def _require_problem(epsilon, N=None, L=None) -> None:
    """The problem constants of a solver: epsilon in (0, 1) and, for the
    fast-varying problem, integers N >= 2 and L >= 1.

    Both parameter classes run it, and an experiment spec runs it on every
    sweep point before anything is solved.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if N is None and L is None:
        return
    for name, value, least in (("N", N, 2), ("L", L, 1)):
        if not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer")
        if value < least:
            raise ValueError(f"{name} must be >= {least}")


@dataclass
class QuasiStaticParams:
    """Inputs of the quasi-static rate problem: per-receiver A_k, B_k and eps.

    A_k folds the channel gain and the geometry ratio; B_k > 1 is the outage
    offset exp(sigma2_R / (Q_k S_RJ)).
    """

    A: np.ndarray
    B: np.ndarray
    epsilon: float

    def __post_init__(self):
        self.A = np.asarray(self.A, float)
        self.B = np.asarray(self.B, float)
        if self.A.size < 1 or self.A.shape != self.B.shape:
            raise ValueError("A and B must be equal-length nonempty vectors")
        if not np.all((self.A > 0.0) & (self.A < np.inf)):
            raise ValueError("A_k must be positive and finite")
        if not np.all((self.B > 1.0) & (self.B < np.inf)):
            raise ValueError("B_k must be finite and exceed 1")
        _require_problem(self.epsilon)

    @property
    def K(self) -> int:
        return self.A.size


def derive_quasi_static(instance: ScenarioInstance, epsilon: float) -> QuasiStaticParams:
    """Reduce a sampled scenario to the quasi-static problem constants."""
    a = (instance.S_RT * instance.S_AJ) / (instance.S_RJ * instance.S_AT)
    a = a * instance.h_norm_sq
    b = np.exp(instance.sigma2_R / (instance.Q_mw * instance.S_RJ))
    return QuasiStaticParams(A=a, B=b, epsilon=epsilon)


def gamma_constant(m: int) -> float:
    """Gamma(m + 1/2)^2 / Gamma(m)^2 through log-gamma (finite for any m)."""
    return math.exp(2.0 * (math.lgamma(m + 0.5) - math.lgamma(m)))


@dataclass
class FastVaryingParams:
    """Constants of the fast-varying pilot/power problem, per receiver.

    Gk/Ek carry the jamming-to-signal geometry ratio and the block length;
    F1/F2 are the receiver-side interference terms; mu_tilde is the channel
    estimation penalty. q_norm feeds the covertness coefficient zeta(q, n).
    """

    N: int
    L: int
    Gk: np.ndarray
    Ek: np.ndarray
    mu_tilde: np.ndarray
    F1: np.ndarray
    F2: np.ndarray
    q_norm: np.ndarray
    epsilon: float

    def __post_init__(self):
        _require_problem(self.epsilon, self.N, self.L)
        for name in ("Gk", "Ek", "mu_tilde", "F1", "F2", "q_norm"):
            v = np.asarray(getattr(self, name), float)
            setattr(self, name, v)
            if (not np.all((v >= 0.0) & (v < np.inf))
                    or v.shape != self.Gk.shape):
                raise ValueError(f"{name} must be a finite nonnegative "
                                 f"vector")
        if np.any(self.Gk <= 0.0) or np.any(self.F1 <= 0.0) or np.any(self.q_norm <= 0.0):
            raise ValueError("Gk, F1 and q_norm must be strictly positive")

    @property
    def K(self) -> int:
        return self.Gk.size

    @property
    def budget(self) -> float:
        """Right-hand side of the quadratic covertness constraint."""
        return 2.0 * self.epsilon ** 2 / self.L


def derive_fast_varying(instance: ScenarioInstance, N: int, L: int,
                        epsilon: float) -> FastVaryingParams:
    """Reduce a sampled scenario to the fast-varying problem constants."""
    m = instance.config.M
    g = gamma_constant(m)
    e = m - g
    ratio = instance.Q_mw * instance.S_AJ / instance.S_AT
    recv = (instance.Q_mw * instance.S_RJ + instance.sigma2_R) / instance.S_RT
    return FastVaryingParams(
        N=N,
        L=L,
        Gk=ratio * N * g,
        Ek=ratio * N * e,
        mu_tilde=ratio * instance.mu,
        F1=N * recv,
        F2=instance.mu * recv,
        q_norm=instance.q_norm.copy(),
        epsilon=epsilon,
    )
