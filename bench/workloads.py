"""The benchmark's workloads: seeded inputs, the timed call, output checks.

Each workload reaches covertjam only through a public entry point
(`run_experiment` or `audit_run`), at jobs=1, and hands it only inputs
generated here from the workload seed. `prepare` builds the inputs and
returns the timed call plus the check that runs after the timer stops.
The entry points are looked up on the `experiments` module at call time,
so a traced repetition sees the wrapped versions.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from covertjam import experiments
from covertjam.covertness import eta, solve_chi_star, zeta
from covertjam.fast_varying import ergodic_sum_rate
from covertjam.quasi_static import effective_rate, single_receiver_gamma
from covertjam.scenario import (ScenarioConfig, derive_fast_varying,
                                derive_quasi_static, sample_scenario)

# qs_sweep: scenarios per sweep point of the stock fig4 spec.
QS_SCENARIOS = 2
# fast_sweep: the middle point of the stock fig7 sweep, one scenario.
FAST_SWEEP = (5.0,)
# audit_replay: row counts per family and trials per audited row.
AUDIT_QS_ROWS = 8
AUDIT_FAST_ROWS = 1
AUDIT_TRIALS = 10**5
# Row families of audit_replay; values follow the stock fig4 and fig9 rows.
QS_EPSILON, QS_N_D, QS_K = 0.005, 500, 2
QS_Q_DBM = (15.0, 20.0, 25.0, 30.0, 35.0)
FAST_EPSILON, FAST_N, FAST_L, FAST_N_T, FAST_K = 0.05, 100, 15, 10, 4
# Relative tolerances of the output checks.
OBJECTIVE_RTOL = 1e-12
BUDGET_RTOL = 1e-9


@dataclass
class Outcome:
    """What the checks found in one repetition's output."""

    attempted: int
    failures: dict = field(default_factory=dict)  # operation -> reasons
    objectives: list = field(default_factory=list)
    ratios: list = field(default_factory=list)  # objective / reference
    trials: int = 0  # Monte-Carlo trials simulated
    hashes: dict = field(default_factory=dict)  # file name -> sha256

    def fail(self, operation: str, reason: str) -> None:
        self.failures.setdefault(operation, []).append(reason)


@dataclass
class Prepared:
    call: Callable[[], Path]  # the timed call; returns the run directory
    check: Callable[[Path], Outcome]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str  # one line, copied into BENCHMARK.json
    bypasses: str
    prepare: Callable  # (seed, workdir, smoke) -> Prepared


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _config_of(row: dict) -> ScenarioConfig:
    def band_value(cell):
        return tuple(float(t) for t in cell.split(";")) if ";" in cell \
            else float(cell)
    return ScenarioConfig(K=int(row["K"]), M=int(row["M"]),
                          Q_dBm=band_value(row["Q_dBm"]),
                          P_R_dBm=band_value(row["P_R_dBm"]))


def _vector(cell: str) -> np.ndarray:
    return np.array([float(t) for t in cell.split(";")])


def _check_budget(row: dict) -> str | None:
    """Reason the row's allocation breaks its covertness budget, or None."""
    chi = _vector(row["chi"])
    epsilon = float(row["epsilon"])
    if row["method"] in ("sca", "poa"):
        used, budget = float(np.sum(eta(chi))), epsilon
        form = "sum eta(chi)"
    else:
        config = _config_of(row)
        q = sample_scenario(config, int(row["scenario_seed"])).q_norm
        n_d = float(row["N_d"])
        z = np.array([zeta(float(qk), n_d) for qk in q])
        used = 0.5 * float(np.dot(z, chi * chi))
        budget = 2.0 * epsilon ** 2 / int(row["L"])
        form = "sum zeta chi^2 / 2"
    if used > budget * (1.0 + BUDGET_RTOL):
        return f"{form} = {used!r} exceeds {budget!r}"
    return None


def _check_sweep(spec, methods, out_dir: Path) -> Outcome:
    """Every solver row present, error-free, reproducible and within budget."""
    rows = _read_csv(out_dir / "points.csv")
    expected = len(spec.sweep) * spec.scenarios_per_point * len(methods)
    outcome = Outcome(attempted=expected,
                      hashes={"points.csv": _sha256(out_dir / "points.csv")})
    for i in range(len(rows), expected):
        outcome.fail(f"missing row {i}", "points.csv is short")
    for row in rows:
        op = (f"{row['method']} point {row['point_index']} "
              f"scenario {row['scenario_index']}")
        if row["method"] not in methods:
            outcome.fail(op, f"unexpected method {row['method']!r}")
            continue
        if row["error"]:
            outcome.fail(op, row["error"])
            continue
        objective = float(row["objective"])
        outcome.objectives.append(objective)
        outcome.ratios.append(objective / reference_objective(row))
        again = experiments.recompute_objective(spec, row)
        if not math.isclose(again, objective, rel_tol=OBJECTIVE_RTOL):
            outcome.fail(op, f"objective {objective!r} recomputes to {again!r}")
        reason = _check_budget(row)
        if reason:
            outcome.fail(op, reason)
    return outcome


def _prepare_qs(seed: int, workdir: Path, smoke: bool) -> Prepared:
    size = dict(sweep=(25.0,), scenarios_per_point=1) if smoke \
        else dict(scenarios_per_point=QS_SCENARIOS)
    spec = experiments.default_spec("fig4_rate_vs_Q", seed=seed, jobs=1,
                                    output_dir=str(workdir), **size)
    return Prepared(call=lambda: experiments.run_experiment(spec),
                    check=lambda out: _check_sweep(spec, ("sca", "poa"), out))


def _prepare_fast(seed: int, workdir: Path, smoke: bool) -> Prepared:
    # The smoke size shortens the block, and with it the pilot grid.
    size = dict(scenario={"N": 12}) if smoke else {}
    spec = experiments.default_spec("fig7_rate_vs_PR", sweep=FAST_SWEEP,
                                    scenarios_per_point=1, seed=seed, jobs=1,
                                    output_dir=str(workdir), **size)
    return Prepared(call=lambda: experiments.run_experiment(spec),
                    check=lambda out: _check_sweep(spec, ("es", "ao"), out))


def _cell(value) -> str:
    if isinstance(value, np.ndarray):
        return ";".join(format(float(v), ".17g") for v in value)
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _equal_eta_allocation(config: ScenarioConfig, scenario_seed: int,
                          epsilon: float):
    """Every band at solve_chi_star(eps/K), each at its best SINR threshold."""
    params = derive_quasi_static(sample_scenario(config, scenario_seed),
                                 epsilon)
    chi = np.full(config.K, solve_chi_star(epsilon / config.K))
    gamma = np.array([single_receiver_gamma(a, b, c)
                      for a, b, c in zip(params.A, params.B, chi)])
    return chi, gamma, float(np.sum(effective_rate(chi, gamma, params.A,
                                                   params.B)))


def _equal_budget_allocation(config: ScenarioConfig, scenario_seed: int,
                             n: int, blocks: int, epsilon: float, n_t: int):
    """chi splitting the quadratic budget equally over bands, at n_t pilots.

    Each band takes 2 eps^2 / (L K) of sum_k zeta(q_k, N - N_t) chi_k^2 / 2.
    """
    params = derive_fast_varying(sample_scenario(config, scenario_seed), n,
                                 blocks, epsilon)
    z = np.array([zeta(float(q), float(n - n_t)) for q in params.q_norm])
    chi = np.sqrt(2.0 * params.budget / (config.K * z))
    return chi, ergodic_sum_rate(chi, n_t / n, params)


def reference_objective(row: dict) -> float:
    """Objective of a fixed simple allocation for the row's scenario.

    Solver objectives vary several-fold from scenario to scenario; their
    ratio to this reference varies by a few percent, so the mean ratio is a
    quality metric that stays steady across workload seeds.
    """
    config, seed = _config_of(row), int(row["scenario_seed"])
    epsilon = float(row["epsilon"])
    if row["method"] in ("sca", "poa"):
        return _equal_eta_allocation(config, seed, epsilon)[2]
    n = int(row["N"])
    return _equal_budget_allocation(config, seed, n, int(row["L"]), epsilon,
                                    max(n // 10, 1))[1]


def _qs_row(index: int, rng: np.random.Generator) -> dict:
    """A fig4-like row at the equal-eta allocation."""
    q_dbm = float(rng.choice(QS_Q_DBM))
    scenario_seed = int(rng.integers(2**62))
    config = ScenarioConfig(K=QS_K, Q_dBm=q_dbm)
    chi, gamma, objective = _equal_eta_allocation(config, scenario_seed,
                                                  QS_EPSILON)
    return dict(figure="fig4_rate_vs_Q", point_index=index,
                sweep_param="Q_dBm", sweep_value=q_dbm, scenario_index=0,
                scenario_seed=scenario_seed, method="sca", objective=objective,
                epsilon=QS_EPSILON, K=QS_K, M=config.M, Q_dBm=q_dbm,
                P_R_dBm=config.P_R_dBm, N_d=QS_N_D, L=1, chi=chi, gamma=gamma)


def _fast_row(index: int, rng: np.random.Generator) -> dict:
    """A fig9-like row at the equal quadratic-budget allocation.

    A split by eta alone ignores the L blocks and fails the audit for L > 1.
    """
    scenario_seed = int(rng.integers(2**62))
    config = ScenarioConfig(K=FAST_K)
    chi, objective = _equal_budget_allocation(
        config, scenario_seed, FAST_N, FAST_L, FAST_EPSILON, FAST_N_T)
    return dict(figure="fig9_rate_vs_eps", point_index=index,
                sweep_param="epsilon", sweep_value=FAST_EPSILON,
                scenario_index=0, scenario_seed=scenario_seed, method="ao",
                objective=objective, epsilon=FAST_EPSILON, K=FAST_K,
                M=config.M, Q_dBm=float(config.Q_dBm),
                P_R_dBm=config.P_R_dBm, N=FAST_N, L=FAST_L,
                N_d=FAST_N - FAST_N_T, N_t=FAST_N_T, tau=FAST_N_T / FAST_N,
                chi=chi)


def _check_audit(trials: int, run_dir: Path) -> Outcome:
    """One audit row per input row, and every row passes."""
    inputs = _read_csv(run_dir / "points.csv")
    rows = _read_csv(run_dir / "audit.csv")
    outcome = Outcome(attempted=len(inputs), trials=len(rows) * trials,
                      hashes={"audit.csv": _sha256(run_dir / "audit.csv")})
    for row in inputs:
        outcome.objectives.append(float(row["objective"]))
        outcome.ratios.append(outcome.objectives[-1] /
                              reference_objective(row))
    for i in range(len(rows), len(inputs)):
        outcome.fail(f"missing audit row {i}", "audit.csv is short")
    for i, row in enumerate(rows[:len(inputs)]):
        if row["passed"] != "True":
            outcome.fail(f"audit row {i}",
                         f"sum error {row['sum_error']} below bound "
                         f"{row['bound']} (slack {row['slack']})")
    for i in range(len(inputs), len(rows)):
        outcome.fail(f"extra audit row {i}", "audit.csv is long")
    return outcome


def _prepare_audit(seed: int, workdir: Path, smoke: bool) -> Prepared:
    n_qs, n_fast, trials = (1, 1, 2000) if smoke \
        else (AUDIT_QS_ROWS, AUDIT_FAST_ROWS, AUDIT_TRIALS)
    rng = np.random.default_rng([seed, 0xA0D17])
    rows = [_qs_row(i, rng) for i in range(n_qs)]
    rows += [_fast_row(n_qs + i, rng) for i in range(n_fast)]
    spec = experiments.default_spec("fig4_rate_vs_Q", seed=seed, jobs=1,
                                    scenarios_per_point=1, trials=trials,
                                    output_dir=str(workdir))
    run_dir = workdir / spec.figure_id
    run_dir.mkdir(parents=True, exist_ok=True)
    experiments.save_spec(spec, run_dir / "spec.ini")
    with open(run_dir / "points.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(experiments.POINT_COLUMNS)
        for row in rows:
            writer.writerow([_cell(row.get(col, ""))
                             for col in experiments.POINT_COLUMNS])
    return Prepared(
        call=lambda: experiments.audit_run(run_dir, trials=trials, seed=seed,
                                           jobs=1),
        check=lambda out: _check_audit(trials, out.parent))


WORKLOADS = {w.name: w for w in (
    Workload(
        "qs_sweep",
        "stock fig4 sweep, SCA then POA for K=2: the only workload that runs "
        "the quasi-static solvers",
        "fast_varying, detection and the Phi quadrature: the no-change "
        "control for those layers",
        _prepare_qs),
    Workload(
        "fast_sweep",
        "stock fig7 ES and AO for K=4, N=100, L=100: the slowest default "
        "figure, dominated by chi_given_tau, then by cold zeta",
        "the quasi-static solvers and detection",
        _prepare_fast),
    Workload(
        "audit_replay",
        "audit_run at 1e5 trials over seeded fig4-like and fig9-like rows: "
        "the Monte-Carlo adversary, with no solver in the path",
        "every solver: the audited rows come from the seed, so a solver "
        "change cannot change what is audited",
        _prepare_audit),
)}
