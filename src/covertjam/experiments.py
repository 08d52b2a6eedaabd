"""Figure-sweep experiment runner: CSV emission, audits, default tables.

A figure is one row of ``FIGURES``: the parameter it sweeps and its stock
sweep, scenario and problem defaults, the methods it runs, whether it
records convergence traces, and its axis labels. A method is an entry of
one of two tables, ``_BOUNDS`` (the limiting-density bounds of fig2) and
``_SOLVERS``, and each table has one point runner. ``_point`` resolves a
sweep value to its scenario config and problem: a swept value that names a
``ScenarioConfig`` field overrides the scenario, one that names a problem
default (epsilon) overrides the problem, and ``instance`` only labels the
point. The problem decides the solver family: one with N (fig6-9) is
fast-varying, one without (fig3-5) quasi-static. A trace figure solves
scenario 0 of each point and writes ``traces.csv``.

Each run writes a self-contained directory ``<output_dir>/<figure_id>/``:

  * ``points.csv``   one row per (sweep point, scenario, method). Solver
                     rows carry the scenario seed and every config field
                     needed to rebuild the instance, so objectives can be
                     recomputed from scratch and solutions replayed through
                     the detection audit.
  * ``summary.csv``  per (sweep point, method) mean/std aggregates.
  * ``traces.csv``   per-iteration objective curves (convergence figures).
  * ``plot.py``      standalone matplotlib script over those CSVs.
  * ``spec.ini``     the resolved experiment spec, reloadable by audits.

Runs are deterministic byte for byte: scenario seeds derive from
(spec.seed, point index, scenario index) through SeedSequence spawn keys,
sweep points run serially in point order, and floats are written with
round-trip precision. ``audit_run``'s ``jobs`` threads across the rows of
an audit (its workers only compute; rows are written in order); it is the
only parallel level in the package.

For the quasi-static figures the audit columns record the finite-sample
proxy adversary (N_d = 500 energies, L = 1 block); the fast figures record
the jammed data phase N - N_t over the actual L blocks.
"""

from __future__ import annotations

import configparser
import csv
import dataclasses
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .covertness import _require_chi, band_affinity, hellinger_bound, \
    limit_kl, pinsker_budget, tv_numeric_product, tv_upper_bound
from .detection import _MIN_TRIALS, covertness_audit
from .fast_varying import ao_solve, ergodic_sum_rate, es_solve
from .quasi_static import effective_rate, poa_solve, sca_solve
from .scenario import ScenarioConfig, _require_problem, derive_fast_varying, \
    derive_quasi_static, sample_scenario

__all__ = [
    "FIGURE_IDS",
    "ExperimentSpec",
    "default_sweep",
    "default_spec",
    "load_spec",
    "save_spec",
    "run_experiment",
    "audit_run",
    "recompute_objective",
    "list_defaults",
]

# The slow-fading figures audit against a 500-sample single-block
# adversary.
_QS_AUDIT_N_D = 500

POINT_COLUMNS = (
    "figure", "point_index", "sweep_param", "sweep_value", "scenario_index",
    "scenario_seed", "method", "objective", "ci", "epsilon", "K", "M",
    "Q_dBm", "P_R_dBm", "N", "L", "N_d", "N_t", "tau", "lam", "chi",
    "gamma", "error",
)

SUMMARY_COLUMNS = (
    "figure", "sweep_param", "sweep_value", "method", "n_ok", "n_failed",
    "mean_objective", "std_objective",
)

TRACE_COLUMNS = (
    "figure", "point_index", "sweep_value", "method", "iteration",
    "objective", "tau", "lam",
)

AUDIT_COLUMNS = (
    "figure", "point_index", "scenario_index", "method", "epsilon", "N_d",
    "L", "trials", "sum_error", "ci_half_width", "bound", "slack", "passed",
)

_CONFIG_FIELDS = {f.name for f in dataclasses.fields(ScenarioConfig)}


@dataclass
class ExperimentSpec:
    """One figure run: which sweep, how many scenarios, where to write."""

    figure_id: str
    sweep: tuple
    scenarios_per_point: int = 20
    seed: int = 0
    output_dir: str = "runs"
    trials: int = 10**5
    scenario: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.figure_id not in FIGURE_IDS:
            raise ValueError(f"unknown figure_id {self.figure_id!r}; "
                             f"expected one of {FIGURE_IDS}")
        self.sweep = tuple(self.sweep)
        if not self.sweep:
            raise ValueError("sweep must be nonempty")
        if self.scenarios_per_point < 1:
            raise ValueError("scenarios_per_point must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        problem = FIGURES[self.figure_id].problem
        unknown = sorted(set(self.scenario) - _CONFIG_FIELDS - set(problem))
        if unknown:
            raise ValueError(
                f"unknown [scenario] key(s) {unknown} for {self.figure_id}; "
                f"expected a ScenarioConfig field or one of {sorted(problem)}")
        # A bad value fails here, once, rather than in every row of the run.
        if self.sweep_param == "chi":
            _require_chi(np.asarray(self.sweep, dtype=float))
        for value in self.sweep:
            config, problem = _point(self, value)
            config.validate()
            if problem:
                _require_problem(**problem)

    @property
    def sweep_param(self) -> str:
        return FIGURES[self.figure_id].sweep_param


def default_sweep(figure_id: str) -> tuple:
    if figure_id not in FIGURE_IDS:
        raise ValueError(f"unknown figure_id {figure_id!r}")
    return FIGURES[figure_id].sweep


def default_spec(figure_id: str, jobs: int = 1, **kwargs) -> ExperimentSpec:
    """Spec with the figure's stock sweep unless one is given.

    `jobs` must be 1: sweep points run serially. The keyword remains only
    because the bench harness (`bench/workloads.py`) passes jobs=1 by name.
    """
    if jobs != 1:
        raise TypeError("default_spec takes no jobs; sweeps run serially")
    kwargs.setdefault("sweep", default_sweep(figure_id))
    return ExperimentSpec(figure_id=figure_id, **kwargs)


# ---------------------------------------------------------------------------
# serialization helpers


def _fmt(value) -> str:
    """CSV cell formatting with float round-trip precision."""
    if isinstance(value, (list, tuple, np.ndarray)):
        return ";".join(format(float(v), ".17g") for v in value)
    if value is None or value == "":
        return ""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _parse_vector(cell: str) -> np.ndarray:
    return np.array([float(tok) for tok in cell.split(";")])


def _err(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _write_csv(path: Path, columns, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(col, "")) for col in columns])


def save_spec(spec: ExperimentSpec, path) -> None:
    parser = configparser.ConfigParser()
    parser.optionxform = str
    parser["experiment"] = {
        "figure": spec.figure_id,
        "sweep": ",".join(_fmt(v) for v in spec.sweep),
        "scenarios_per_point": str(spec.scenarios_per_point),
        "seed": str(spec.seed),
        "output_dir": spec.output_dir,
        "trials": str(spec.trials),
    }
    if spec.scenario:
        parser["scenario"] = {k: _fmt(v) for k, v in spec.scenario.items()}
    with open(path, "w") as fh:
        parser.write(fh)


def _parse_number(token: str):
    try:
        return int(token)
    except ValueError:
        return float(token)


# The [experiment] keys save_spec writes, then the legacy ones load_spec
# still accepts from old run directories.
_SPEC_KEYS = ("figure", "sweep", "scenarios_per_point", "seed", "output_dir",
              "trials", "jobs", "quad_order")


def load_spec(path) -> ExperimentSpec:
    """Read an INI experiment spec (same file format ``save_spec`` emits)."""
    parser = configparser.ConfigParser()
    parser.optionxform = str
    if not parser.read(str(path)):
        raise FileNotFoundError(f"cannot read spec file {path}")
    if "experiment" not in parser:
        raise ValueError(f"{path}: missing [experiment] section")
    unknown = [name for name in parser.sections()
               if name not in ("experiment", "scenario")]
    if unknown:
        raise ValueError(f"{path}: unknown section [{unknown[0]}]; only "
                         "[experiment] and [scenario] are read")
    sect = parser["experiment"]
    unknown = [key for key in sect if key not in _SPEC_KEYS]
    if unknown:
        raise ValueError(f"{path}: unknown [experiment] key {unknown[0]!r}; "
                         f"known keys are {', '.join(_SPEC_KEYS)}")
    # Run directories written before ln Phi had a single evaluator record
    # quad_order = 0 (the default rule); any other order no longer exists.
    if sect.getint("quad_order", 0) != 0:
        raise ValueError(f"{path}: quad_order = {sect['quad_order']} is not "
                         "supported; only 0 (or no quad_order key) loads")
    # Only the keys the file has are passed: ExperimentSpec (and the
    # figure's stock sweep) supply the rest.
    given = {"figure_id": sect.get("figure", "").strip()}
    sweep_raw = sect.get("sweep", "").strip()
    if sweep_raw:
        given["sweep"] = tuple(_parse_number(tok.strip())
                               for tok in sweep_raw.split(",") if tok.strip())
    # An old jobs key is ignored: sweeps once ran on threads, same bytes.
    for key in ("scenarios_per_point", "seed", "trials"):
        if key in sect:
            given[key] = sect.getint(key)
    if "output_dir" in sect:
        given["output_dir"] = sect["output_dir"]
    if "scenario" in parser:
        scenario = given["scenario"] = {}
        for key, raw in parser["scenario"].items():
            # save_spec writes a vector as a CSV cell, ";"-separated.
            values = tuple(_parse_number(t.strip())
                           for t in raw.replace(";", ",").split(","))
            scenario[key] = values if len(values) > 1 else values[0]
    return default_spec(**given)


# ---------------------------------------------------------------------------
# scenario plumbing


def _scenario_seed(seed: int, point_index: int, scenario_index: int) -> int:
    """Deterministic per-(run, point, scenario) seed; fits in int64."""
    seq = np.random.SeedSequence(entropy=int(seed),
                                 spawn_key=(int(point_index),
                                            int(scenario_index)))
    return int(seq.generate_state(1, np.uint64)[0] >> 1)


def _point(spec: ExperimentSpec, value):
    """(config, problem) of one sweep value, unchecked.

    Both start from the figure's defaults. The spec's [scenario] overrides
    and then the swept value replace them: a ScenarioConfig field in the
    config, a problem key (epsilon) in the problem; anything else
    (instance) replaces nothing.
    """
    fig = FIGURES[spec.figure_id]
    config, problem = dict(fig.scenario), dict(fig.problem)
    for key, v in [*spec.scenario.items(), (fig.sweep_param, value)]:
        if key in _CONFIG_FIELDS:
            config[key] = v
        elif key in problem:
            problem[key] = v
    return ScenarioConfig(**config), problem


def _base_row(spec: ExperimentSpec, point_index: int, value,
              scenario_index, seed, config: ScenarioConfig | None) -> dict:
    row = {
        "figure": spec.figure_id,
        "point_index": point_index,
        "sweep_param": spec.sweep_param,
        "sweep_value": value,
        "scenario_index": scenario_index,
        "scenario_seed": seed,
    }
    if config is not None:
        row.update(K=config.K, M=config.M, Q_dBm=config.Q_dBm,
                   P_R_dBm=config.P_R_dBm)
    return row


# ---------------------------------------------------------------------------
# method tables and point runners; a runner returns (point_rows, trace_rows)
# for one sweep index. The table entries look their function up as a module
# global at call time, so patching e.g. `experiments.sca_solve` reaches every
# figure.

# Solvers: (derived params, result of the figure's previous method) -> result.
_SOLVERS = {
    "sca": lambda params, previous: sca_solve(params),
    "poa": lambda params, previous: poa_solve(
        params, delta=1e-3,
        warm_start=None if previous is None else previous.chi),
    "es": lambda params, previous: es_solve(params),
    "ao": lambda params, previous: ao_solve(params),
}

# Bound-comparison methods: (band ratios, trials, seed) -> (objective, ci).
_BOUNDS = {
    "tv_numeric": lambda chis, trials, seed: tv_numeric_product(
        chis, samples=trials, seed=seed),
    "proposed_bound": lambda chis, trials, seed: (tv_upper_bound(chis), None),
    "pinsker_bound": lambda chis, trials, seed: (
        pinsker_budget([limit_kl(float(c)) for c in chis], 1), None),
    "hellinger_bound": lambda chis, trials, seed: (hellinger_bound(
        float(np.prod([band_affinity(float(c)) for c in chis]))), None),
}


def _bounds_point(spec: ExperimentSpec, i: int):
    chi = float(spec.sweep[i])
    seed = _scenario_seed(spec.seed, i, 0)
    base = _base_row(spec, i, chi, 0, seed, None)
    base.update(K=2, chi=np.array([chi, chi]))
    rows = []
    try:
        for method in FIGURES[spec.figure_id].methods:
            objective, ci = _BOUNDS[method](base["chi"], spec.trials, seed)
            rows.append({**base, "method": method, "objective": objective,
                         "ci": ci})
    except Exception as exc:
        rows.append({**base, "method": "bounds", "error": _err(exc)})
    return rows, []


def _derive(instance, problem: dict):
    """Solver inputs of an instance: the fast-varying problem if it has N."""
    if "N" in problem:
        return derive_fast_varying(instance, problem["N"], problem["L"],
                                   problem["epsilon"])
    return derive_quasi_static(instance, problem["epsilon"])


def _solver_point(spec: ExperimentSpec, i: int):
    """Rows of sweep point i: each scenario, then each of the figure's methods.

    A trace figure runs scenario 0 only. A row records its problem; a
    quasi-static one also records the proxy adversary, N_d = 500 and L = 1.
    """
    fig = FIGURES[spec.figure_id]
    value = spec.sweep[i]
    config, problem = _point(spec, value)
    fast = "N" in problem
    recorded = problem if fast else {**problem, "N_d": _QS_AUDIT_N_D, "L": 1}
    rows, traces = [], []
    for j in range(1 if fig.trace else spec.scenarios_per_point):
        seed = _scenario_seed(spec.seed, i, j)
        base = {**_base_row(spec, i, value, j, seed, config), **recorded}
        try:
            params = _derive(sample_scenario(config, seed), problem)
        except Exception as exc:
            rows.append({**base, "method": "scenario", "error": _err(exc)})
            continue
        res = None
        for method in fig.methods:
            try:
                res = _SOLVERS[method](params, res)
            except Exception as exc:
                rows.append({**base, "method": method, "error": _err(exc)})
                continue
            if fast:
                cells = {"tau": res.tau, "N_t": res.N_t,
                         "N_d": problem["N"] - res.N_t, "lam": res.lam}
            else:
                cells = {"gamma": res.gamma}
            rows.append({**base, "method": method, "objective": res.objective,
                         "chi": res.chi, **cells})
            if fig.trace:
                traces.extend({"figure": spec.figure_id, "point_index": i,
                               "sweep_value": value, "method": method, **t}
                              for t in res.trace)
    return rows, traces


# ---------------------------------------------------------------------------
# the figure table


@dataclass(frozen=True)
class Figure:
    """One figure: what it sweeps, its defaults, how it runs, its labels.

    `runner(spec, i)` returns the point and trace rows of sweep index i.
    `scenario` and `problem` are the defaults under the spec's [scenario]
    overrides. A `trace` figure solves scenario 0 of each point and
    writes traces.csv.
    """

    sweep_param: str
    sweep: tuple
    runner: Callable
    methods: tuple
    xlabel: str
    ylabel: str
    scenario: dict = field(default_factory=dict)
    problem: dict = field(default_factory=dict)
    trace: bool = False


# Stock covertness levels and block geometry per solver family: the
# fast-fading figures use 100-symbol blocks over 100 coherence intervals,
# except the epsilon sweep, which fixes N*L = 1500.
_QS_PROBLEM = {"epsilon": 0.005}
_FAST_PROBLEM = {"N": 100, "L": 100, "epsilon": 0.05}
_QS_RATE = "effective sum rate [nats]"
_FAST_RATE = "ergodic sum rate [nats/symbol]"

FIGURES = {
    "fig2_tv_bounds": Figure(
        "chi", (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
        _bounds_point,
        ("tv_numeric", "proposed_bound", "pinsker_bound", "hellinger_bound"),
        "chi", "total variation"),
    "fig3_sca_convergence": Figure(
        "instance", (0, 1, 2, 3), _solver_point, ("sca",), "instance",
        _QS_RATE, scenario={"K": 3}, problem=_QS_PROBLEM, trace=True),
    "fig4_rate_vs_Q": Figure(
        "Q_dBm", (15.0, 20.0, 25.0, 30.0, 35.0), _solver_point,
        ("sca", "poa"), "jammer power Q [dBm]", _QS_RATE,
        scenario={"K": 2}, problem=_QS_PROBLEM),
    "fig5_rate_vs_M": Figure(
        "M", (5, 10, 20, 40), _solver_point, ("sca",), "transmit antennas M",
        _QS_RATE, scenario={"K": 4}, problem=_QS_PROBLEM),
    "fig6_ao_convergence": Figure(
        "instance", (0, 1, 2, 3), _solver_point, ("ao",), "instance",
        _FAST_RATE, scenario={"K": 4}, problem=_FAST_PROBLEM, trace=True),
    "fig7_rate_vs_PR": Figure(
        "P_R_dBm", (0.0, 5.0, 10.0), _solver_point, ("es", "ao"),
        "receiver jamming power P_R [dBm]", _FAST_RATE,
        scenario={"K": 4}, problem=_FAST_PROBLEM),
    "fig8_rate_vs_Q_fast": Figure(
        "Q_dBm", (15.0, 25.0, 45.0), _solver_point, ("ao",),
        "jammer power Q [dBm]", _FAST_RATE,
        scenario={"K": 4}, problem=_FAST_PROBLEM),
    "fig9_rate_vs_eps": Figure(
        "epsilon", (0.01, 0.02, 0.05, 0.1, 0.2), _solver_point, ("ao",),
        "covertness level epsilon", _FAST_RATE,
        scenario={"K": 4}, problem={"N": 100, "L": 15, "epsilon": None}),
}
FIGURE_IDS = tuple(FIGURES)


def _summarize(spec: ExperimentSpec, points: list) -> list:
    groups: dict = {}
    for row in points:
        key = (row["point_index"], row["method"])
        groups.setdefault(key, []).append(row)
    out = []
    for (point_index, method) in sorted(groups):
        rows = groups[(point_index, method)]
        oks = [float(r["objective"]) for r in rows if not r.get("error")]
        failed = sum(1 for r in rows if r.get("error"))
        out.append({
            "figure": spec.figure_id,
            "sweep_param": spec.sweep_param,
            "sweep_value": rows[0]["sweep_value"],
            "method": method,
            "n_ok": len(oks),
            "n_failed": failed,
            "mean_objective": float(np.mean(oks)) if oks else "",
            "std_objective": float(np.std(oks)) if oks else "",
        })
    return out


def run_experiment(spec: ExperimentSpec) -> Path:
    """Execute one figure sweep and write its run directory.

    Per-scenario solver failures are recorded in the `error` column of
    points.csv and the sweep keeps going; only setup errors (bad spec,
    unwritable output) raise.
    """
    out_dir = Path(spec.output_dir) / spec.figure_id
    out_dir.mkdir(parents=True, exist_ok=True)
    fig = FIGURES[spec.figure_id]
    points, traces = [], []
    for i in range(len(spec.sweep)):
        point_rows, trace_rows = fig.runner(spec, i)
        points.extend(point_rows)
        traces.extend(trace_rows)

    _write_csv(out_dir / "points.csv", POINT_COLUMNS, points)
    _write_csv(out_dir / "summary.csv", SUMMARY_COLUMNS,
               _summarize(spec, points))
    if fig.trace:
        _write_csv(out_dir / "traces.csv", TRACE_COLUMNS, traces)
    (out_dir / "plot.py").write_text(_plot_script(spec))
    save_spec(spec, out_dir / "spec.ini")
    return out_dir


# ---------------------------------------------------------------------------
# audit and recomputation


def _row_instance(spec: ExperimentSpec, row: dict):
    """The instance of a points.csv row: the spec's config under the row's
    cells, which hold every field a sweep sets, at the row's seed."""
    cells = {"K": int(row["K"]), "M": int(row["M"])}
    for name in ("Q_dBm", "P_R_dBm"):
        cell = row[name]
        if ";" in cell:
            cells[name] = tuple(float(t) for t in cell.split(";"))
        else:
            cells[name] = float(cell)
    config = dataclasses.replace(_point(spec, spec.sweep[0])[0], **cells)
    return sample_scenario(config, int(row["scenario_seed"]))


def recompute_objective(spec: ExperimentSpec, row: dict) -> float:
    """Rebuild the scenario named by a points.csv row and re-evaluate it."""
    method, chis = row["method"], _parse_vector(row["chi"])
    if method in _BOUNDS:
        return _BOUNDS[method](chis, spec.trials, int(row["scenario_seed"]))[0]
    if method not in _SOLVERS:
        raise ValueError(f"cannot recompute objective for method {method!r}")
    problem = {"epsilon": float(row["epsilon"])}
    if row["N"]:
        problem.update(N=int(row["N"]), L=int(row["L"]))
    params = _derive(_row_instance(spec, row), problem)
    if row["N"]:
        return ergodic_sum_rate(chis, float(row["tau"]), params)
    gammas = _parse_vector(row["gamma"])
    return float(np.sum(effective_rate(chis, gammas, params.A, params.B)))


def audit_run(run_dir, trials: int = 10**5, seed: int = 0, jobs: int = 1,
              max_rows: int | None = None) -> Path:
    """Replay every solver row of a run through the detection audit.

    Writes audit.csv next to the run's points.csv: one row per replayed
    solution with the empirical sum error, its confidence half-width and
    a pass flag against the row's epsilon floor. The default trial count
    resolves a five-fold power inflation at the tightest stock epsilon
    (0.005), where the sum-error deficit is only about 0.02. A run with no
    replayable solver row, or fewer than 1e3 trials, is rejected before
    any replay, so an audit that checked nothing never reads as a pass.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if max_rows is not None and max_rows < 1:
        raise ValueError("max_rows must be >= 1")
    if trials < _MIN_TRIALS:
        raise ValueError(f"trials must be >= {_MIN_TRIALS}")
    run_dir = Path(run_dir)
    spec = load_spec(run_dir / "spec.ini")
    with open(run_dir / "points.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    candidates = [
        (idx, row) for idx, row in enumerate(rows)
        if not row["error"] and row["chi"] and row["N_d"]
        and row["scenario_seed"] and row["method"] in _SOLVERS
    ]
    if not candidates:
        raise ValueError(f"{run_dir} has no solver row to audit")
    if max_rows is not None:
        candidates = candidates[:max_rows]

    def replay(item):
        idx, row = item
        audit = covertness_audit(
            _row_instance(spec, row), _parse_vector(row["chi"]),
            int(row["N_d"]), int(row["L"]), float(row["epsilon"]),
            trials=trials, seed=_scenario_seed(seed, idx, 0))
        return {
            "figure": row["figure"],
            "point_index": int(row["point_index"]),
            "scenario_index": int(row["scenario_index"]),
            "method": row["method"],
            "epsilon": float(row["epsilon"]),
            "N_d": int(row["N_d"]),
            "L": int(row["L"]),
            "trials": trials,
            "sum_error": audit.estimate.sum_error,
            "ci_half_width": audit.estimate.ci_half_width,
            "bound": audit.bound,
            "slack": audit.slack,
            "passed": audit.passed,
        }

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            audit_rows = list(pool.map(replay, candidates))
    else:
        audit_rows = [replay(item) for item in candidates]
    path = run_dir / "audit.csv"
    _write_csv(path, AUDIT_COLUMNS, audit_rows)
    return path


# ---------------------------------------------------------------------------
# defaults table and plot script emission


def list_defaults() -> str:
    """Human-readable table of the stock scenario and figure defaults."""
    lines = ["scenario defaults (distances in m, powers in dBm)"]
    lines += [f"  {f.name:20s} {f.default:g}"
              for f in dataclasses.fields(ScenarioConfig)]
    lines += ["", "figures: [scenario] and problem defaults, then the sweep",
              f"  (quasi-static rows audit at N_d = {_QS_AUDIT_N_D}, L = 1)"]
    for figure_id, fig in FIGURES.items():
        defaults = {**fig.scenario, **fig.problem}
        defaults.pop(fig.sweep_param, None)
        # str of a Python float is its shortest round-trip form.
        cells = [f"{k} = {v}" for k, v in defaults.items()]
        cells.append(f"{fig.sweep_param} = "
                     + ",".join(str(v) for v in fig.sweep))
        lines.append(f"  {figure_id:22s} " + ", ".join(cells))
    return "\n".join(lines)


_PLOT_TEMPLATE = '''#!/usr/bin/env python3
"""Render {figure} from the CSVs beside this script."""
import csv
from collections import defaultdict
from pathlib import Path

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

HERE = Path(__file__).resolve().parent
KIND = {kind!r}


def read(name):
    with open(HERE / name, newline="") as fh:
        return list(csv.DictReader(fh))


fig, ax = plt.subplots(figsize=(6.4, 4.2))
if KIND == "trace":
    series = defaultdict(list)
    for row in read("traces.csv"):
        series[row["sweep_value"]].append(
            (int(row["iteration"]), float(row["objective"])))
    for key in sorted(series):
        pts = sorted(series[key])
        ax.plot([p[0] for p in pts], [p[1] for p in pts], marker="o",
                label=f"instance {{key}}")
    ax.set_xlabel("iteration")
else:
    series = defaultdict(list)
    for row in read("summary.csv"):
        if row["mean_objective"] == "":
            continue
        series[row["method"]].append((float(row["sweep_value"]),
                                      float(row["mean_objective"]),
                                      float(row["std_objective"])))
    for method in sorted(series):
        pts = sorted(series[method])
        ax.errorbar([p[0] for p in pts], [p[1] for p in pts],
                    yerr=[p[2] for p in pts], marker="o", capsize=3,
                    label=method)
    ax.set_xlabel({xlabel!r})
ax.set_ylabel({ylabel!r})
ax.grid(True, alpha=0.3)
ax.legend()
fig.tight_layout()
out = HERE / "{figure}.png"
fig.savefig(out, dpi=150)
print("wrote", out)
'''


def _plot_script(spec: ExperimentSpec) -> str:
    fig = FIGURES[spec.figure_id]
    return _PLOT_TEMPLATE.format(
        figure=spec.figure_id,
        kind="trace" if fig.trace else "sweep",
        xlabel=fig.xlabel,
        ylabel=fig.ylabel,
    )
