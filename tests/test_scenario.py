"""Scenario sampling and reduction to the two solver parameterizations."""

import math

import numpy as np
import pytest

from covertjam.scenario import (
    FastVaryingParams,
    QuasiStaticParams,
    ScenarioConfig,
    dbm_to_mw,
    derive_fast_varying,
    derive_quasi_static,
    gamma_constant,
    path_loss,
    rng_stream,
    sample_scenario,
)

from model_facts import beamforming_stats


def test_dbm_conversion():
    assert abs(dbm_to_mw(0.0) - 1.0) < 1e-15
    assert abs(dbm_to_mw(25.0) - 316.22776601683796) < 1e-10
    assert abs(dbm_to_mw(-80.0) - 1e-8) < 1e-22
    assert np.allclose(dbm_to_mw(np.array([0.0, 10.0])), [1.0, 10.0])


def test_path_loss_inverse_quartic():
    a, b = (0.0, 0.0), (10.0, 0.0)
    assert abs(path_loss(a, b) - 1e-4) < 1e-18
    # Doubling the distance costs a factor 16 at exponent 4.
    c = (20.0, 0.0)
    assert abs(path_loss(a, b) / path_loss(a, c) - 16.0) < 1e-9


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(K=0).validate()
    with pytest.raises(ValueError):
        ScenarioConfig(M=0).validate()
    with pytest.raises(ValueError):
        ScenarioConfig(d_A=-1.0).validate()


def test_sampling_deterministic_and_seed_sensitive():
    config = ScenarioConfig(K=3)
    a = sample_scenario(config, 42)
    b = sample_scenario(config, 42)
    c = sample_scenario(config, 43)
    assert np.array_equal(a.receiver_pos, b.receiver_pos)
    assert np.array_equal(a.h_norm_sq, b.h_norm_sq)
    assert not np.array_equal(a.h_norm_sq, c.h_norm_sq)


def test_receivers_stay_in_cluster():
    config = ScenarioConfig(K=64)
    inst = sample_scenario(config, 9)
    centre = np.array([config.d_R, 0.0])
    radii = np.linalg.norm(inst.receiver_pos - centre, axis=1)
    assert np.all(radii <= config.r_c + 1e-9)


def test_rng_stream_independent_keys():
    a = rng_stream(5, 0).random(4)
    b = rng_stream(5, 1).random(4)
    c = rng_stream(5, 0).random(4)
    assert np.array_equal(a, c)
    assert not np.array_equal(a, b)


def test_quasi_static_reduction_formulas():
    inst = sample_scenario(ScenarioConfig(K=2), 7)
    params = derive_quasi_static(inst, 0.005)
    assert isinstance(params, QuasiStaticParams)
    manual_a = (inst.S_RT * inst.S_AJ / (inst.S_RJ * inst.S_AT)) \
        * inst.h_norm_sq
    manual_b = np.exp(inst.sigma2_R / (inst.Q_mw * inst.S_RJ))
    assert np.allclose(params.A, manual_a, rtol=1e-14)
    assert np.allclose(params.B, manual_b, rtol=1e-14)
    assert np.all(params.B > 1.0)


def test_fast_varying_reduction_formulas():
    inst = sample_scenario(ScenarioConfig(K=4), 1)
    n, blocks, eps = 100, 100, 0.05
    params = derive_fast_varying(inst, n, blocks, eps)
    assert isinstance(params, FastVaryingParams)
    assert params.K == 4
    assert abs(params.budget - 2.0 * eps * eps / blocks) < 1e-18
    ratio = inst.Q_mw * inst.S_AJ / inst.S_AT
    g = gamma_constant(inst.config.M)
    assert np.allclose(params.Gk, ratio * n * g, rtol=1e-14)
    assert np.allclose(params.Ek, ratio * n * (inst.config.M - g),
                       rtol=1e-14)
    assert np.allclose(params.mu_tilde, ratio * inst.mu, rtol=1e-14)
    recv = (inst.Q_mw * inst.S_RJ + inst.sigma2_R) / inst.S_RT
    assert np.allclose(params.F1, n * recv, rtol=1e-14)
    assert np.allclose(params.F2, inst.mu * recv, rtol=1e-14)


def test_fast_varying_params_reject_non_finite_vectors():
    # A NaN gain once built and surfaced later as a solver's residual error.
    good = dict(Gk=[1.0, 2.0], Ek=[1.0, 0.0], mu_tilde=[0.1, 0.1],
                F1=[1.0, 1.0], F2=[0.5, 0.5], q_norm=[1.0, 3.0])
    FastVaryingParams(N=10, L=1, epsilon=0.05, **good)
    for name in good:
        for bad in (np.nan, np.inf):
            vectors = dict(good, **{name: [bad, 1.0]})
            with pytest.raises(ValueError, match="finite"):
                FastVaryingParams(N=10, L=1, epsilon=0.05, **vectors)


def test_beamforming_gain_splits_antenna_count():
    # The mean-square / variance split of the beamforming gain conserves
    # the antenna count: G + E = M, and perfect estimation recovers it.
    for m in (1, 2, 5, 20, 40, 400):
        inst = sample_scenario(ScenarioConfig(K=1, M=m), 3)
        params = derive_fast_varying(inst, 10, 1, 0.05)
        scale = 10 * inst.Q_mw * inst.S_AJ / inst.S_AT
        assert np.all(np.abs((params.Gk + params.Ek) / (scale * m) - 1.0)
                      < 1e-12)
        g = gamma_constant(m)
        mean_sq, var = beamforming_stats(m, 10.0, 0.0)
        assert abs(mean_sq - g) < 1e-12 * m
        assert abs(var - (m - g)) < 1e-12 * m


def test_beamforming_noise_floor_term():
    # With noisy estimation part of the gain migrates into the variance.
    mean_sq, var = beamforming_stats(20, 10.0, 5.0)
    g, e = beamforming_stats(20, 10.0, 0.0)
    assert mean_sq < g
    assert var > e
    w = 10.0 / 15.0
    assert abs(mean_sq - w * g) < 1e-12
    assert abs(var - (w * e + 5.0 / 15.0)) < 1e-12


def test_band_vector_broadcast():
    config = ScenarioConfig(K=3, Q_dBm=(20.0, 25.0, 30.0))
    inst = sample_scenario(config, 0)
    assert inst.Q_mw.shape == (3,)
    assert inst.Q_mw[0] < inst.Q_mw[1] < inst.Q_mw[2]
