"""Figure-sweep experiment runner: CSV emission, audits, default tables.

A figure is one row of ``FIGURES``: the parameter it sweeps and its stock
sweep, scenario and problem defaults, the methods it runs, whether it
records convergence traces, and its axis labels. Three point runners serve
all eight figures: the limiting-density bounds (fig2), the quasi-static
solvers (fig3-5) and the fast-varying solvers (fig6-9). A swept value that
names a ``ScenarioConfig`` field overrides the scenario, one that names a
problem default (epsilon) overrides the problem, and ``instance`` only
labels the point. A trace figure solves scenario 0 of each point and
writes ``traces.csv``.

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
from .scenario import ScenarioConfig, derive_fast_varying, derive_quasi_static, \
    sample_scenario

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

# Baseline covertness levels and block geometry per figure family. The
# slow-fading figures audit against a 500-sample single-block adversary;
# the fast-fading ones default to 100-symbol blocks over 100 coherence
# intervals, except the epsilon sweep which fixes N*L = 1500.
_QS_EPSILON = 0.005
_QS_AUDIT_N_D = 500
_FAST_DEFAULTS = {"N": 100, "L": 100, "epsilon": 0.05}

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
_CONFIG_INT_FIELDS = {"K", "M"}
_STOCK_CONFIG = ScenarioConfig()
_QS_METHODS = ("sca", "poa")
_FAST_METHODS = ("es", "ao")


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
            _build_config(self, _point_inputs(self, value)[0]).validate()

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


def load_spec(path) -> ExperimentSpec:
    """Read an INI experiment spec (same file format ``save_spec`` emits)."""
    parser = configparser.ConfigParser()
    parser.optionxform = str
    if not parser.read(str(path)):
        raise FileNotFoundError(f"cannot read spec file {path}")
    if "experiment" not in parser:
        raise ValueError(f"{path}: missing [experiment] section")
    sect = parser["experiment"]
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
            raw = raw.strip()
            if key in _CONFIG_INT_FIELDS:
                scenario[key] = int(raw)
            elif "," in raw:
                scenario[key] = tuple(float(t) for t in raw.split(","))
            else:
                scenario[key] = float(raw)
    return default_spec(**given)


# ---------------------------------------------------------------------------
# scenario plumbing


def _scenario_seed(seed: int, point_index: int, scenario_index: int) -> int:
    """Deterministic per-(run, point, scenario) seed; fits in int64."""
    seq = np.random.SeedSequence(entropy=int(seed),
                                 spawn_key=(int(point_index),
                                            int(scenario_index)))
    return int(seq.generate_state(1, np.uint64)[0] >> 1)


def _split_overrides(overrides: dict):
    config = {k: v for k, v in overrides.items() if k in _CONFIG_FIELDS}
    problem = {k: v for k, v in overrides.items() if k not in _CONFIG_FIELDS}
    return config, problem


def _build_config(spec: ExperimentSpec, sweep_override: dict) -> ScenarioConfig:
    merged = dict(FIGURES[spec.figure_id].scenario)
    user_config, _ = _split_overrides(spec.scenario)
    merged.update(user_config)
    merged.update(sweep_override)
    return ScenarioConfig(**merged)


def _point_inputs(spec: ExperimentSpec, value):
    """(config override, problem) of one sweep value.

    The problem is the figure's defaults under the spec's overrides. The
    swept value then wins: a ScenarioConfig field is cast to the type of
    its stock value and overrides the config, a problem key (epsilon)
    overrides the problem, and anything else (instance) overrides nothing.
    """
    fig = FIGURES[spec.figure_id]
    _, user_problem = _split_overrides(spec.scenario)
    problem = {**fig.problem, **user_problem}
    override = {}
    name = fig.sweep_param
    if name in _CONFIG_FIELDS:
        override[name] = type(getattr(_STOCK_CONFIG, name))(value)
    elif name in fig.problem:
        problem[name] = value
    return override, problem


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
# point runners; each returns (point_rows, trace_rows) for one sweep index.
# Solvers are looked up as module globals at call time, never stored, so
# patching e.g. `experiments.sca_solve` reaches every figure.


def _bound_value(method: str, chis, trials: int, seed: int):
    """(objective, ci) of one bound-comparison method at band ratios chis."""
    if method == "tv_numeric":
        return tv_numeric_product(chis, samples=trials, seed=seed)
    if method == "proposed_bound":
        return tv_upper_bound(chis), None
    if method == "pinsker_bound":
        return pinsker_budget([limit_kl(float(c)) for c in chis], 1), None
    if method == "hellinger_bound":
        affinity = float(np.prod([band_affinity(float(c)) for c in chis]))
        return hellinger_bound(affinity), None
    raise ValueError(f"cannot recompute objective for method {method!r}")


def _bounds_point(spec: ExperimentSpec, i: int):
    chi = float(spec.sweep[i])
    seed = _scenario_seed(spec.seed, i, 0)
    base = _base_row(spec, i, chi, 0, seed, None)
    base.update(K=2, chi=np.array([chi, chi]))
    rows = []
    try:
        for method in FIGURES[spec.figure_id].methods:
            objective, ci = _bound_value(method, base["chi"], spec.trials,
                                         seed)
            rows.append({**base, "method": method, "objective": objective,
                         "ci": ci})
    except Exception as exc:
        rows.append({**base, "method": "bounds", "error": _err(exc)})
    return rows, []


def _solver_point(spec: ExperimentSpec, i: int, override: dict,
                  problem_cells: dict, derive, solve):
    """Rows of sweep point i: each scenario, then each of the figure's methods.

    A trace figure runs scenario 0 only. `derive` turns a sampled instance
    into solver inputs; `solve(method, params, previous)` returns the
    result and its row cells, `previous` being the result of the method
    before it.
    """
    fig = FIGURES[spec.figure_id]
    value = spec.sweep[i]
    config = _build_config(spec, override)
    rows, traces = [], []
    for j in range(1 if fig.trace else spec.scenarios_per_point):
        seed = _scenario_seed(spec.seed, i, j)
        base = {**_base_row(spec, i, value, j, seed, config), **problem_cells}
        try:
            params = derive(sample_scenario(config, seed))
        except Exception as exc:
            rows.append({**base, "method": "scenario", "error": _err(exc)})
            continue
        res = None
        for method in fig.methods:
            try:
                res, cells = solve(method, params, res)
            except Exception as exc:
                rows.append({**base, "method": method, "error": _err(exc)})
                continue
            rows.append({**base, "method": method,
                         "objective": res.objective, **cells})
            if fig.trace:
                traces.extend({"figure": spec.figure_id, "point_index": i,
                               "sweep_value": value, "method": method, **t}
                              for t in res.trace)
    return rows, traces


def _qs_point(spec: ExperimentSpec, i: int):
    override, problem = _point_inputs(spec, spec.sweep[i])
    epsilon = float(problem["epsilon"])

    def solve(method, params, previous):
        if method == "sca":
            res = sca_solve(params)
        else:
            res = poa_solve(params, delta=1e-3,
                            warm_start=None if previous is None
                            else previous.chi)
        return res, {"chi": res.chi, "gamma": res.gamma}

    return _solver_point(
        spec, i, override, {"epsilon": epsilon, "N_d": _QS_AUDIT_N_D, "L": 1},
        lambda instance: derive_quasi_static(instance, epsilon), solve)


def _fast_point(spec: ExperimentSpec, i: int):
    override, problem = _point_inputs(spec, spec.sweep[i])
    n, blocks = int(problem["N"]), int(problem["L"])
    epsilon = float(problem["epsilon"])

    def solve(method, params, previous):
        res = (es_solve if method == "es" else ao_solve)(params)
        return res, {"chi": res.chi, "tau": res.tau, "N_t": res.N_t,
                     "N_d": n - res.N_t, "lam": res.lam}

    return _solver_point(
        spec, i, override, {"epsilon": epsilon, "N": n, "L": blocks},
        lambda instance: derive_fast_varying(instance, n, blocks, epsilon),
        solve)


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


_QS_PROBLEM = {"epsilon": _QS_EPSILON}
_QS_RATE = "effective sum rate [nats]"
_FAST_RATE = "ergodic sum rate [nats/symbol]"

FIGURES = {
    "fig2_tv_bounds": Figure(
        "chi", (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
        _bounds_point,
        ("tv_numeric", "proposed_bound", "pinsker_bound", "hellinger_bound"),
        "chi", "total variation"),
    "fig3_sca_convergence": Figure(
        "instance", (0, 1, 2, 3), _qs_point, ("sca",), "instance", _QS_RATE,
        scenario={"K": 3}, problem=_QS_PROBLEM, trace=True),
    "fig4_rate_vs_Q": Figure(
        "Q_dBm", (15.0, 20.0, 25.0, 30.0, 35.0), _qs_point, ("sca", "poa"),
        "jammer power Q [dBm]", _QS_RATE,
        scenario={"K": 2}, problem=_QS_PROBLEM),
    "fig5_rate_vs_M": Figure(
        "M", (5, 10, 20, 40), _qs_point, ("sca",), "transmit antennas M",
        _QS_RATE, scenario={"K": 4}, problem=_QS_PROBLEM),
    "fig6_ao_convergence": Figure(
        "instance", (0, 1, 2, 3), _fast_point, ("ao",), "instance",
        _FAST_RATE, scenario={"K": 4}, problem=_FAST_DEFAULTS, trace=True),
    "fig7_rate_vs_PR": Figure(
        "P_R_dBm", (0.0, 5.0, 10.0), _fast_point, ("es", "ao"),
        "receiver jamming power P_R [dBm]", _FAST_RATE,
        scenario={"K": 4}, problem=_FAST_DEFAULTS),
    "fig8_rate_vs_Q_fast": Figure(
        "Q_dBm", (15.0, 25.0, 45.0), _fast_point, ("ao",),
        "jammer power Q [dBm]", _FAST_RATE,
        scenario={"K": 4}, problem=_FAST_DEFAULTS),
    "fig9_rate_vs_eps": Figure(
        "epsilon", (0.01, 0.02, 0.05, 0.1, 0.2), _fast_point, ("ao",),
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


def _row_config(spec: ExperimentSpec, row: dict) -> ScenarioConfig:
    """The config of a points.csv row: the spec's, under the row's cells."""
    cells = {"K": int(row["K"]), "M": int(row["M"])}
    for name in ("Q_dBm", "P_R_dBm"):
        cell = row[name]
        if ";" in cell:
            cells[name] = tuple(float(t) for t in cell.split(";"))
        else:
            cells[name] = float(cell)
    return _build_config(spec, cells)


def recompute_objective(spec: ExperimentSpec, row: dict) -> float:
    """Rebuild the scenario named by a points.csv row and re-evaluate it."""
    method = row["method"]
    chis = _parse_vector(row["chi"])
    if method in _QS_METHODS:
        config = _row_config(spec, row)
        instance = sample_scenario(config, int(row["scenario_seed"]))
        params = derive_quasi_static(instance, float(row["epsilon"]))
        gammas = _parse_vector(row["gamma"])
        return float(np.sum(effective_rate(chis, gammas,
                                           params.A, params.B)))
    if method in _FAST_METHODS:
        config = _row_config(spec, row)
        instance = sample_scenario(config, int(row["scenario_seed"]))
        params = derive_fast_varying(instance, int(row["N"]), int(row["L"]),
                                     float(row["epsilon"]))
        return ergodic_sum_rate(chis, float(row["tau"]), params)
    return _bound_value(method, chis, spec.trials,
                        int(row["scenario_seed"]))[0]


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
        and row["scenario_seed"] and row["method"] in _QS_METHODS + _FAST_METHODS
    ]
    if not candidates:
        raise ValueError(f"{run_dir} has no solver row to audit")
    if max_rows is not None:
        candidates = candidates[:max_rows]

    def replay(item):
        idx, row = item
        config = _row_config(spec, row)
        instance = sample_scenario(config, int(row["scenario_seed"]))
        audit = covertness_audit(
            instance, _parse_vector(row["chi"]), int(row["N_d"]),
            int(row["L"]), float(row["epsilon"]), trials=trials,
            seed=_scenario_seed(seed, idx, 0))
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
    config = ScenarioConfig()
    lines = [
        "scenario defaults",
        f"  d_A (adversary distance)      {config.d_A:g} m",
        f"  d_J (jammer distance)         {config.d_J:g} m",
        f"  d_R (receiver cluster)        {config.d_R:g} m",
        f"  r_c (cluster radius)          {config.r_c:g} m",
        f"  path loss exponent            {config.path_loss_exponent:g}",
        f"  P_R (receiver jamming power)  {config.P_R_dBm:g} dBm",
        f"  Q (jammer power)              {config.Q_dBm:g} dBm",
        f"  noise floors                  {config.noise_R_dBm:g} dBm",
        f"  M (transmit antennas)         {config.M}",
        "",
        "slow-fading problem defaults",
        f"  epsilon                       {_QS_EPSILON:g}",
        f"  audit adversary               N_d = {_QS_AUDIT_N_D}, L = 1",
        "",
        "fast-fading problem defaults",
        f"  N (symbols per block)         {_FAST_DEFAULTS['N']}",
        f"  L (blocks)                    {_FAST_DEFAULTS['L']}",
        f"  epsilon                       {_FAST_DEFAULTS['epsilon']:g}",
        "",
        "figure sweeps",
    ]
    for figure_id, fig in FIGURES.items():
        # str of a Python float is its shortest round-trip form.
        sweep = ",".join(str(v) for v in fig.sweep)
        k = fig.scenario.get("K", config.K)
        lines.append(f"  {figure_id:22s} K = {k}, {fig.sweep_param} = {sweep}")
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
