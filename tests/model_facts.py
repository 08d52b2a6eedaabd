"""Independent restatements of model facts that only the tests read."""

import numpy as np

from covertjam.scenario import gamma_constant


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
