"""Monte-Carlo adversary detection: LRT vs energy detector, audits."""

import tracemalloc

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from covertjam import covertness, detection
from covertjam.covertness import eta, log_psi, tv_exact_n
from covertjam.detection import (
    _BAND_GATE,
    _STREAM_KEY,
    _BandLogPsi,
    _run_shard,
    covertness_audit,
    simulate_detection,
)
from covertjam.quadrature import (
    _SPLINE_KNOTS,
    _SPLINE_Z_LO,
    _spline_knots,
    log_phi_exact,
)
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


def _dense_z(psi, *bends):
    # 20,001 log-uniform energies over the band's table range, plus 301
    # over [0.9/x, 1.2/x] for each bend x that falls inside it.
    z = [np.exp(np.linspace(np.log(psi.z_lo), np.log(psi.z_hi), 20001))]
    z += [np.linspace(0.9, 1.2, 301) / x for x in bends]
    z = np.concatenate(z)
    return z[(z >= psi.z_lo) & (z <= psi.z_hi)]


def test_band_log_psi_spline_matches_exact():
    # The detector's ln Psi table against exact log_psi on H1 draws and on
    # a dense scan, plus draws above z_hi, where it falls back to the
    # exact evaluator, also in a call where no sample lies below z_lo (at
    # chi = 0.9, ln Psi still rises by 7e-4 beyond z_hi). The certificate
    # reads the middle of every knot interval, so on these bands the dense
    # error is within 5 % of it.
    rng = np.random.default_rng(0)
    for p, q, n in ((0.3, 10.0, 20.0), (5.0, 316.0, 500.0), (0.5, 3.0, 5.0),
                    (9.0, 10.0, 5.0)):
        psi = _BandLogPsi(p, q, n)
        assert psi.table is not None
        assert psi.max_abs_err <= _BAND_GATE
        scale = 1.0 + p * rng.exponential(size=20000) \
            + q * rng.exponential(size=20000)
        z = np.concatenate([rng.gamma(n, scale), _dense_z(psi, p, q),
                            psi.z_hi * np.array([1.01, 2.0, 10.0])])
        err = np.abs(psi(z) - log_psi(p, q, z, n))
        high = z > psi.z_hi
        assert high.sum() == 3
        assert np.max(err[~high]) <= 1.05 * psi.max_abs_err + 1e-13
        assert np.all(err[high] <= 1e-13)
        alone = np.append(z[high], n)
        assert np.array_equal(psi(alone)[:-1], log_psi(p, q, z[high], n))


def test_band_log_psi_table_matches_cubic_spline_of_exact_log_psi():
    # Kernel oracle: the fused read (uniform-step interval, Horner in the
    # interval fraction) agrees with CubicSpline through exact ln Psi at
    # the band's knots, next to every knot and at both ends, to rounding;
    # draws outside [z_lo, z_hi] take log_psi's bits.
    p, q, n = 0.3, 10.0, 20.0
    psi = _BandLogPsi(p, q, n)
    t = psi.knots
    assert t[0] < np.log(psi.z_lo) and t[-1] == np.log(psi.z_hi)
    assert psi.table.shape == (t.size - 1, 4)
    reference = CubicSpline(t, log_psi(p, q, np.exp(t), n))
    rng = np.random.default_rng(6)
    scale = 1.0 + p * rng.exponential(size=(4000, 3)) \
        + q * rng.exponential(size=(4000, 3))
    inner = np.exp(t[(t > np.log(psi.z_lo)) & (t < t[-1])])
    z = np.concatenate([
        rng.gamma(n, scale).ravel(), inner, np.nextafter(inner, 0.0),
        np.nextafter(inner, np.inf), np.exp(np.linspace(t[-2], t[-1], 257)),
        [psi.z_lo, psi.z_hi, np.nextafter(psi.z_hi, 0.0)],
        psi.z_hi * np.array([1.01, 2.0, 10.0]),
        [_SPLINE_Z_LO * 0.5, np.nextafter(psi.z_lo, 0.0), 0.5 * psi.z_lo],
    ])
    outside = (z > psi.z_hi) | (z < psi.z_lo)
    assert outside.sum() == 6
    # A strided column, as the detector passes each band, and a 2-D block
    # whose rows hold the samples in opposite orders.
    got = psi(np.stack([z, z], axis=1)[:, 1])
    assert np.array_equal(psi(np.stack([z, z[::-1]])),
                          np.stack([got, got[::-1]]))
    want = reference(np.log(np.clip(z, psi.z_lo, psi.z_hi)))
    assert np.max(np.abs(got - want)[~outside]) <= 1e-12
    assert np.array_equal(got[outside], log_psi(p, q, z[outside], n))


def test_band_log_psi_below_z_lo_is_exact():
    # Energies below the band's lower end, which the table does not cover,
    # get log_psi's exact value. At n = 1, z_lo is below the grid's first
    # knot, _SPLINE_Z_LO, and the energies between them are exact too.
    for p, q, n in ((5.0, 316.0, 90.0), (0.5, 3.0, 1.0)):
        psi = _BandLogPsi(p, q, n)
        z_min = max(psi.z_lo, np.exp(psi.knots[0]))
        assert (psi.z_lo < z_min) == (n == 1.0)
        z = z_min * np.array([1e-9, 0.01, 0.5, 0.999])
        assert np.array_equal(psi(z), log_psi(p, q, z, n))


@pytest.mark.parametrize("p, q, n, refine", [
    (3.16e-5, 316.0, 500.0, 1),
    (31.6, 316.0, 3000.0, 4),
], ids=["tiny_chi", "n_3000"])
def test_band_is_served_from_its_table(monkeypatch, p, q, n, refine):
    # A tiny chi (1e-7 at q = 316, n = 500) certifies the band's table on
    # the base grid, and n = 3000 on the grid four times finer. Samples
    # inside [z_lo, z_hi], the sharp bend of ln Phi(p, ., n) above z = 1/p
    # included, then evaluate no exact ln Phi or ln Psi, and a dense scan
    # there stays within the gate.
    psi = _BandLogPsi(p, q, n)
    assert psi.table is not None
    assert np.array_equal(psi.knots, _spline_knots(
        psi.z_hi, psi.z_lo, refine * _SPLINE_KNOTS))
    rng = np.random.default_rng(9)
    scale = 1.0 + p * rng.exponential(size=2000) \
        + q * rng.exponential(size=2000)
    draws = rng.gamma(n, scale)
    dense = _dense_z(psi, p)
    if refine == 1:
        assert np.sum((dense >= 0.9 / p) & (dense <= 1.2 / p)) >= 301
    calls = []

    def counting(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(detection, "log_psi", counting(log_psi))
    monkeypatch.setattr(covertness, "log_phi_exact",
                        counting(log_phi_exact))
    inside = np.concatenate([draws[(draws >= psi.z_lo)
                                   & (draws <= psi.z_hi)], dense])
    got = psi(inside)
    assert calls == []
    monkeypatch.undo()
    assert np.max(np.abs(got - log_psi(p, q, inside, n))) <= _BAND_GATE


def test_band_log_psi_table_at_n_d_1000_stays_within_its_gate():
    # Held-out probes alone certified the base-grid table of (3.16, 316,
    # 1000) at 9.7e-7, while a scan uniform in ln z over the knot
    # intervals that samples reach read 1.24e-6 at z ~ 1065, above the
    # gate. Read at the middle of every interval, the base grid fails its
    # certificate, and the band refits on the grid four times finer.
    p, q, n = 3.16, 316.0, 1000.0
    psi = _BandLogPsi(p, q, n)
    t = psi.knots
    first = max(np.searchsorted(t, np.log(psi._z_min), "right") - 1, 0)
    z = np.exp(np.linspace(t[first], t[-1], 20001))
    assert np.max(np.abs(psi(z) - log_psi(p, q, z, n))) <= _BAND_GATE


def test_band_with_an_uncertified_table_reads_log_psi_exactly(monkeypatch):
    # A band whose table fails its certificate (here under a gate no table
    # meets) reads every sample from log_psi instead of raising.
    monkeypatch.setattr(detection, "_BAND_GATE", 0.0)
    p, q, n = 0.3, 10.0, 20.0
    psi = _BandLogPsi(p, q, n)
    assert psi.table is None and psi.max_abs_err > 0.0
    z = np.array([[0.5 * psi.z_lo, psi.z_lo, 20.0],
                  [psi.z_hi, 2.0 * psi.z_hi, 1.0 / p]])
    assert np.array_equal(psi(z), log_psi(p, q, z.ravel(),
                                          n).reshape(z.shape))


def test_band_tables_are_built_once_per_band(monkeypatch):
    # Tables are memoised per (p, q, n): K = 4 bands build 4 tables, and a
    # second run builds none and gives the same estimate.
    builds = []
    real = detection._BandLogPsi

    def counting(*args):
        builds.append(args)
        return real(*args)

    monkeypatch.setattr(detection, "_BandLogPsi", counting)
    detection._band.cache_clear()
    inst = _instance(k=4, seed=5)
    assert np.all(inst.q_norm == inst.q_norm[0])
    chis = [0.03, 0.06, 0.02, 0.05]
    cold = simulate_detection(inst, chis, N_d=90, L=2, trials=2000, seed=3)
    assert len(builds) == 4
    warm = simulate_detection(inst, chis, N_d=90, L=2, trials=2000, seed=3)
    assert len(builds) == 4
    assert warm == cold


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
    # array whole took about four of them. The tables are built beforehand.
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
