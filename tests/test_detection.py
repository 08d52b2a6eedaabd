"""Monte-Carlo adversary detection: LRT vs energy detector, audits."""

import tracemalloc

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from covertjam.covertness import (
    eta,
    likelihood_ratio_delta,
    log_psi,
    tv_exact_n,
)
from covertjam.detection import (
    _STREAM_KEY,
    _BandLogPsi,
    _run_shard,
    covertness_audit,
    simulate_detection,
)
from covertjam.quadrature import _SPLINE_KNOTS, _SPLINE_Z_LO, log_phi_exact
from covertjam.scenario import ScenarioConfig, rng_stream, sample_scenario


def _instance(k=1, seed=2):
    return sample_scenario(ScenarioConfig(K=k), seed)


def test_simulation_deterministic():
    inst = _instance()
    a = simulate_detection(inst, [0.5], N_d=50, L=1, trials=20000, seed=3)
    b = simulate_detection(inst, [0.5], N_d=50, L=1, trials=20000, seed=3)
    assert a.sum_error == b.sum_error
    d = simulate_detection(inst, [0.5], N_d=50, L=1, trials=20000, seed=4)
    assert d.sum_error != a.sum_error


def test_sum_error_matches_analytic_tv():
    # The empirical minimum error sum of the likelihood ratio test is
    # 1 - TV of the N_d-sample band laws; the analytic TV is a 1-D integral.
    inst = _instance()
    chi = 0.9
    q = float(inst.q_norm[0])
    est = simulate_detection(inst, [chi], N_d=500, L=1, trials=30000, seed=0)
    analytic = 1.0 - tv_exact_n(chi * q, q, 500.0)
    assert abs(est.sum_error - analytic) <= 3.0 * est.ci_half_width


def test_zero_signal_is_blind():
    inst = _instance()
    est = simulate_detection(inst, [0.0], N_d=100, L=2, trials=20000, seed=1)
    assert est.sum_error >= 1.0 - 3.0 * est.ci_half_width


def test_more_blocks_help_the_adversary():
    inst = _instance()
    one = simulate_detection(inst, [0.3], N_d=200, L=1, trials=30000, seed=5)
    many = simulate_detection(inst, [0.3], N_d=200, L=8, trials=30000, seed=5)
    assert many.sum_error < one.sum_error


def test_lrt_not_worse_than_energy_detector():
    inst = _instance(k=2, seed=8)
    chis = [0.2, 0.6]
    lrt = simulate_detection(inst, chis, N_d=20, L=1, trials=30000, seed=7,
                             detector_kind="lrt")
    energy = simulate_detection(inst, chis, N_d=20, L=1, trials=30000,
                                seed=7, detector_kind="energy")
    ci = lrt.ci_half_width + energy.ci_half_width
    assert lrt.sum_error <= energy.sum_error + 2.0 * ci


def test_band_log_psi_spline_matches_exact():
    # The detector's spline ln Psi against exact log_psi on H1 draws, plus
    # draws above z_hi, where it falls back to the exact evaluator.
    rng = np.random.default_rng(0)
    for p, q, n in ((0.3, 10.0, 20.0), (5.0, 316.0, 500.0), (0.5, 3.0, 5.0)):
        psi = _BandLogPsi(p, q, n)
        scale = 1.0 + p * rng.exponential(size=20000) \
            + q * rng.exponential(size=20000)
        z = np.concatenate([rng.gamma(n, scale),
                            psi.z_hi * np.array([1.01, 2.0, 10.0])])
        got = psi(z)
        want = log_psi(p, q, z, n)
        # ln Psi = ln(q - p r) - ln(q - p) with r = Phi_p/Phi_q, so a ln r
        # error e moves ln Psi by p r/(q - p r) e; 1e-13 is the rounding floor.
        r = 1.0 - np.expm1(want) * (q - p) / p
        spline_err = psi._spline_p.max_abs_err + psi._spline_q.max_abs_err
        bound = p * r / (q - p * r) * spline_err + 1e-13
        high = z > psi.z_hi
        assert high.sum() == 3
        assert np.all(np.abs(got - want)[~high] <= bound[~high])
        assert np.all(np.abs(got - want)[high] <= 1e-13)


def test_band_log_psi_is_bit_identical_to_two_spline_composition():
    # One knot lookup shared by the p and q splines gives the same bits as
    # two CubicSpline evaluations composed through likelihood_ratio_delta.
    p, q, n = 0.3, 10.0, 20.0
    psi = _BandLogPsi(p, q, n)
    assert np.array_equal(psi._spline_p.knots, psi._spline_q.knots)
    t = np.linspace(np.log(_SPLINE_Z_LO), np.log(psi.z_hi), _SPLINE_KNOTS)
    rng = np.random.default_rng(6)
    scale = 1.0 + p * rng.exponential(size=(4000, 3)) \
        + q * rng.exponential(size=(4000, 3))
    z = rng.gamma(n, scale)
    z[0] = psi.z_hi * np.array([1.01, 2.0, 10.0])
    z[1] = [psi.z_hi, _SPLINE_Z_LO * 0.5, np.exp(t[-2])]
    flat = z.ravel()
    high = flat > psi.z_hi
    clamped = np.log(np.clip(flat, _SPLINE_Z_LO, psi.z_hi))
    lp = CubicSpline(t, log_phi_exact(p, np.exp(t), n))(clamped)
    lq = CubicSpline(t, log_phi_exact(q, np.exp(t), n))(clamped)
    lp[high] = log_phi_exact(p, flat[high], n)
    lq[high] = log_phi_exact(q, flat[high], n)
    want = np.log1p(likelihood_ratio_delta(p, q, flat, lp,
                                           lq)).reshape(z.shape)
    assert np.array_equal(psi(z), want)


# p_fa and p_md recorded before the spline evaluation moved off scipy's
# piecewise-polynomial evaluator: a change to the draw order or to the
# detector arithmetic shows up here.
@pytest.mark.parametrize("kind, k, scenario_seed, chis, n_d, blocks, seed, "
                         "p_fa, p_md", [
    ("lrt", 4, 5, [0.03, 0.06, 0.02, 0.05], 90, 15, 11, 0.29485, 0.17015),
    ("lrt", 2, 8, [0.3, 0.6], 500, 1, 12, 0.4188, 0.23825),
    ("energy", 2, 8, [0.2, 0.6], 20, 2, 13, 0.44735, 0.24065),
])
def test_detection_golden_values(kind, k, scenario_seed, chis, n_d, blocks,
                                 seed, p_fa, p_md):
    inst = _instance(k=k, seed=scenario_seed)
    est = simulate_detection(inst, chis, N_d=n_d, L=blocks, trials=20000,
                             seed=seed, detector_kind=kind)
    assert (est.p_fa, est.p_md) == (p_fa, p_md)


def _shard_inputs(k, scenario_seed, chis, n_d):
    q = _instance(k=k, seed=scenario_seed).q_norm
    p = np.asarray(chis) * q
    evaluators = [(i, _BandLogPsi(float(p[i]), float(q[i]), n_d))
                  for i in range(k)]

    def lrt(z):
        return sum(psi(z[:, :, i]).sum(axis=1) for i, psi in evaluators)
    return p, q, lrt


@pytest.mark.parametrize("k, scenario_seed, chis, n_d, blocks", [
    (4, 5, [0.03, 0.06, 0.02, 0.05], 90, 15),  # 31 row blocks of 546
    (2, 8, [0.3, 0.6], 500, 1),                 # one row block
])
def test_shard_draws_match_whole_array_draws(k, scenario_seed, chis, n_d,
                                             blocks):
    # A shard draws its energies a row block at a time; the variates, and
    # so the LRT statistics and energy sums, are those of drawing every
    # array whole with rng.gamma from the same stream.
    p, q, lrt = _shard_inputs(k, scenario_seed, chis, n_d)
    idx, m, seed = 3, 1 << 14, 21
    rng = rng_stream(seed, _STREAM_KEY, idx)
    shape = (m, blocks, k)
    v0 = rng.exponential(size=shape)
    z0 = rng.gamma(shape=n_d, scale=1.0 + q * v0)
    u1 = rng.exponential(size=shape)
    v1 = rng.exponential(size=shape)
    z1 = rng.gamma(shape=n_d, scale=(1.0 + p * u1) + q * v1)
    args = (idx, m, seed, p, q, n_d, blocks)
    stat0, stat1 = _run_shard(*args, lrt)
    assert np.array_equal(stat0, lrt(z0))
    assert np.array_equal(stat1, lrt(z1))
    e0, e1 = _run_shard(*args, lambda z: z.sum(axis=(1, 2)))
    assert np.array_equal(e0, z0.sum(axis=(1, 2)))
    assert np.array_equal(e1, z1.sum(axis=(1, 2)))


def test_shard_holds_one_draw_array():
    # Peak traced memory of a fig9-sized shard (K = 4, L = 15, N_d = 90,
    # 2^14 trials) stays below two (m, L, K) float64 arrays; drawing each
    # array whole took about four of them. The splines are built beforehand.
    m, k, blocks = 1 << 14, 4, 15
    p, q, lrt = _shard_inputs(k, 5, [0.03, 0.06, 0.02, 0.05], 90)
    tracemalloc.start()
    try:
        _run_shard(0, m, 11, p, q, 90, blocks, lrt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * m * blocks * k * 8


def test_detector_kind_validated():
    inst = _instance()
    with pytest.raises(ValueError):
        simulate_detection(inst, [0.1], N_d=10, L=1, trials=100,
                           detector_kind="matched")


@pytest.mark.parametrize("kind", ["lrt", "energy"])
@pytest.mark.parametrize("chis, match", [
    ([1.0], r"outside \[0, 1\)"),
    ([-0.1], r"outside \[0, 1\)"),
    ([float("nan")], r"outside \[0, 1\)"),
    ([0.1, 0.2], "receiver count"),
    ([], "receiver count"),
    (0.1, "receiver count"),
])
def test_chi_vector_validated(chis, match, kind):
    # One band ratio in [0, 1) per receiver, checked before any draw.
    with pytest.raises(ValueError, match=match):
        simulate_detection(_instance(), chis, N_d=10, L=1, trials=1000,
                           detector_kind=kind)


def test_audit_passes_at_the_budget():
    inst = _instance()
    # eta(chi) = 0.005 exactly: the limiting TV equals the budget, and the
    # finite-sample detector cannot beat it.
    from covertjam.covertness import solve_chi_star
    chi = solve_chi_star(0.005)
    audit = covertness_audit(inst, [chi], N_d=500, L=1, epsilon=0.005,
                             trials=20000, seed=2)
    assert audit.passed
    assert audit.bound == 0.995
    assert audit.slack >= 0.0


def test_audit_flags_gross_violation():
    inst = _instance()
    audit = covertness_audit(inst, [0.5], N_d=500, L=1, epsilon=0.005,
                             trials=20000, seed=2)
    assert not audit.passed
    assert audit.slack < 0.0


def test_audit_validates_epsilon():
    inst = _instance()
    with pytest.raises(ValueError):
        covertness_audit(inst, [0.1], N_d=10, L=1, epsilon=1.5, trials=100)
