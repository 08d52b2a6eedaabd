"""Monte-Carlo adversary detection: LRT vs energy detector, audits."""

import numpy as np
import pytest

from covertjam.covertness import BandDistribution, eta, log_psi, tv_exact_n
from covertjam.detection import (
    _BandLogPsi,
    covertness_audit,
    simulate_detection,
)
from covertjam.scenario import ScenarioConfig, sample_scenario


def _instance(k=1, seed=2):
    return sample_scenario(ScenarioConfig(K=k, seed=seed))


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
        psi = _BandLogPsi(BandDistribution(p_norm=p, q_norm=q), n)
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


def test_detector_kind_validated():
    inst = _instance()
    with pytest.raises(ValueError):
        simulate_detection(inst, [0.1], N_d=10, L=1, trials=100,
                           detector_kind="matched")


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
