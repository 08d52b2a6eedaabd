"""Monte-Carlo adversary detection: LRT vs energy detector, audits."""

import numpy as np
import pytest

from covertjam.covertness import eta, tv_exact_n
from covertjam.detection import (
    covertness_audit,
    lrt_statistic,
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


def test_lrt_statistic_sums_band_log_ratios():
    from covertjam.covertness import BandDistribution, log_psi
    bands = [BandDistribution(p_norm=3.0, q_norm=10.0),
             BandDistribution(p_norm=8.0, q_norm=20.0)]
    energies = np.array([[12.0, 30.0], [25.0, 60.0]])  # (K, L)
    total = lrt_statistic(energies, bands, n=20.0)
    manual = sum(
        float(np.sum(log_psi(b.p_norm, b.q_norm, row, 20.0)))
        for b, row in zip(bands, energies))
    assert abs(total - manual) < 1e-10
    # A silent band contributes nothing.
    quiet = [BandDistribution(p_norm=0.0, q_norm=10.0)]
    assert lrt_statistic(np.array([[12.0]]), quiet, n=20.0) == 0.0


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
