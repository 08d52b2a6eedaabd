"""Experiment runner: spec handling, CSV artifacts, audits, CLI."""

import ast
import csv
import dataclasses
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from covertjam import cli, experiments
from covertjam.experiments import (
    FIGURE_IDS,
    FIGURES,
    POINT_COLUMNS,
    ExperimentSpec,
    audit_run,
    default_spec,
    default_sweep,
    list_defaults,
    load_spec,
    recompute_objective,
    run_experiment,
    save_spec,
)


def _read(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(figure_id="fig1_nope", sweep=(1.0,))
    with pytest.raises(ValueError):
        ExperimentSpec(figure_id="fig4_rate_vs_Q", sweep=())
    with pytest.raises(ValueError):
        ExperimentSpec(figure_id="fig4_rate_vs_Q", sweep=(25.0,),
                       scenarios_per_point=0)
    # Sweeps run serially; jobs=1 is the one value default_spec takes.
    assert default_spec("fig4_rate_vs_Q", jobs=1) == \
        default_spec("fig4_rate_vs_Q")
    with pytest.raises(TypeError, match="jobs"):
        default_spec("fig4_rate_vs_Q", jobs=2)


def test_spec_rejects_unknown_scenario_keys(tmp_path):
    # A [scenario] key is a ScenarioConfig field or one of the figure's
    # problem keys; anything else is a typo that would run the stock value.
    for key in ("Kk", "eps"):
        with pytest.raises(ValueError, match=f"'{key}'"):
            default_spec("fig4_rate_vs_Q", scenario={key: 3})
    with pytest.raises(ValueError, match="'N'"):
        default_spec("fig4_rate_vs_Q", scenario={"N": 20})
    path = tmp_path / "spec.ini"
    path.write_text("[experiment]\nfigure = fig4_rate_vs_Q\n"
                    "[scenario]\nKk = 3\n")
    with pytest.raises(ValueError, match="'Kk'"):
        load_spec(path)
    spec = default_spec("fig9_rate_vs_eps",
                        scenario={"K": 3, "Q_dBm": 20.0, "N": 20, "L": 5})
    assert spec.scenario["K"] == 3


def test_spec_rejects_scenario_seed(tmp_path):
    # Scenario seeds derive from the run's [experiment] seed, so a
    # [scenario] seed is an unknown key that would never be used.
    with pytest.raises(ValueError, match=r"unknown \[scenario\].*'seed'"):
        default_spec("fig4_rate_vs_Q", scenario={"seed": 5})
    path = tmp_path / "spec.ini"
    path.write_text("[experiment]\nfigure = fig4_rate_vs_Q\n"
                    "[scenario]\nseed = 5\n")
    with pytest.raises(ValueError, match=r"unknown \[scenario\].*'seed'"):
        load_spec(path)


@pytest.mark.parametrize("figure, sweep, scenario, match", [
    ("fig4_rate_vs_Q", "25", "P_R_dBm = 0, 5", "P_R_dBm must be a scalar"),
    ("fig4_rate_vs_Q", "25", "M = 0", "M must be >= 1"),
    ("fig7_rate_vs_PR", "0", "noise_T_dBm = -80, -70",
     "noise_T_dBm must be a scalar"),
    ("fig5_rate_vs_M", "10", "Q_dBm = 20, 25, 30",
     "Q_dBm must be a scalar or length-4"),
    ("fig5_rate_vs_M", "0", "K = 3", "M must be >= 1"),
    ("fig2_tv_bounds", "0.5, 1.2", "K = 2", r"outside \[0, 1\)"),
    ("fig7_rate_vs_PR", "0", "N = 2.5", "N must be an integer"),
    ("fig9_rate_vs_eps", "0.05", "N = 1", "N must be >= 2"),
    ("fig9_rate_vs_eps", "0.05", "L = 0", "L must be >= 1"),
    ("fig4_rate_vs_Q", "25", "epsilon = 2", r"epsilon must lie in \(0, 1\)"),
    ("fig4_rate_vs_Q", "25", "M = 10.5", "M must be an integer"),
    ("fig7_rate_vs_PR", "0", "K = 2.5", "K must be an integer"),
], ids=["P_R_vector", "M_zero", "noise_T_vector", "Q_length", "M_swept_to_0",
        "chi_above_1", "N_fraction", "N_one", "L_zero", "epsilon_two",
        "M_fraction", "K_fraction"])
def test_bad_scenario_rejected_before_any_row(tmp_path, capsys, figure,
                                               sweep, scenario, match):
    # A bad [scenario] value or sweep point is a spec error: load_spec
    # raises, and `covertjam run` exits with status 2 and writes nothing,
    # instead of recording the same failure in every row.
    ini = tmp_path / "spec.ini"
    ini.write_text(f"[experiment]\nfigure = {figure}\nsweep = {sweep}\n"
                   f"scenarios_per_point = 1\n"
                   f"output_dir = {tmp_path / 'runs'}\n"
                   f"[scenario]\n{scenario}\n")
    with pytest.raises(ValueError, match=match):
        load_spec(ini)
    assert cli.main(["run", str(ini)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "runs" / figure / "points.csv").exists()


@pytest.mark.parametrize("extra, match", [
    ("trails = 50\n", r"unknown \[experiment\] key 'trails'"),
    ("[scenaro]\nK = 9\n", r"unknown section \[scenaro\]"),
], ids=["experiment_key", "section"])
def test_unknown_spec_key_or_section_rejected(tmp_path, capsys, extra, match):
    # A misspelt [experiment] key or section would otherwise run the stock
    # value without a word; it is a spec error like a bad [scenario] key.
    ini = tmp_path / "spec.ini"
    ini.write_text("[experiment]\nfigure = fig2_tv_bounds\nsweep = 0.2\n"
                   f"output_dir = {tmp_path / 'runs'}\n{extra}")
    with pytest.raises(ValueError, match=match):
        load_spec(ini)
    assert cli.main(["run", str(ini)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "runs" / "fig2_tv_bounds" / "points.csv").exists()


def test_default_sweeps_cover_every_figure():
    for figure_id in FIGURE_IDS:
        sweep = default_sweep(figure_id)
        assert len(sweep) >= 1
        spec = default_spec(figure_id)
        assert spec.sweep == sweep


def test_spec_roundtrip_through_ini(tmp_path):
    spec = default_spec("fig8_rate_vs_Q_fast", seed=5,
                        scenario={"M": 10, "P_R_dBm": 7.5,
                                  "noise_A_dBm": (-80.0, -79.5, -81, -80)})
    path = tmp_path / "spec.ini"
    save_spec(spec, path)
    back = load_spec(path)
    assert back.figure_id == spec.figure_id
    assert back.sweep == spec.sweep
    assert back.seed == 5
    assert back.scenario["M"] == 10
    assert abs(back.scenario["P_R_dBm"] - 7.5) < 1e-12
    # A per-band vector is saved as a CSV cell (";"-separated) and reads
    # back, as the comma-separated form does.
    assert back.scenario["noise_A_dBm"] == (-80, -79.5, -81, -80)


def test_load_spec_fills_default_sweep(tmp_path):
    path = tmp_path / "spec.ini"
    path.write_text("[experiment]\nfigure = fig5_rate_vs_M\n")
    spec = load_spec(path)
    # The figure's stock sweep and ExperimentSpec's defaults, field by field.
    stock = default_spec("fig5_rate_vs_M")
    assert stock.sweep == default_sweep("fig5_rate_vs_M")
    for f in dataclasses.fields(ExperimentSpec):
        assert getattr(spec, f.name) == getattr(stock, f.name), f.name


def test_bound_comparison_figure(tmp_path):
    spec = default_spec("fig2_tv_bounds", sweep=(0.1, 0.5),
                        trials=40000, seed=1, output_dir=str(tmp_path))
    out = run_experiment(spec)
    rows = _read(out / "points.csv")
    by = {(r["sweep_value"], r["method"]): float(r["objective"])
          for r in rows}
    for chi_key in ("0.10000000000000001", "0.5"):
        tv = by[(chi_key, "tv_numeric")]
        proposed = by[(chi_key, "proposed_bound")]
        pinsker = by[(chi_key, "pinsker_bound")]
        hellinger = by[(chi_key, "hellinger_bound")]
        ci = next(float(r["ci"]) for r in rows
                  if r["sweep_value"] == chi_key
                  and r["method"] == "tv_numeric")
        assert tv <= proposed + 3.0 * ci
        assert tv <= pinsker + 3.0 * ci
        assert tv <= hellinger + 3.0 * ci
        # The additive eta bound beats Pinsker throughout the covert
        # range; the Hellinger route only catches up at large chi.
        assert proposed < pinsker
    chi_small = "0.10000000000000001"
    assert by[(chi_small, "proposed_bound")] < by[(chi_small,
                                                   "hellinger_bound")]
    assert (out / "plot.py").exists()
    assert (out / "spec.ini").exists()


def test_bound_figure_at_tiny_chi_has_no_error_row(tmp_path):
    # The limiting-density KL is 6.45e-5 at chi = 1e-4; a quadrature that
    # rounds it negative makes the Pinsker bound raise.
    out = run_experiment(default_spec("fig2_tv_bounds", sweep=(1e-4,),
                                      trials=2000, output_dir=str(tmp_path)))
    rows = _read(out / "points.csv")
    assert len(rows) == 4
    assert not any(r["error"] for r in rows)


_EXPECTED_METHODS = {
    "fig2_tv_bounds": {"tv_numeric", "proposed_bound", "pinsker_bound",
                       "hellinger_bound"},
    "fig3_sca_convergence": {"sca"},
    "fig4_rate_vs_Q": {"sca", "poa"},
    "fig5_rate_vs_M": {"sca"},
    "fig6_ao_convergence": {"ao"},
    "fig7_rate_vs_PR": {"es", "ao"},
    "fig8_rate_vs_Q_fast": {"ao"},
    "fig9_rate_vs_eps": {"ao"},
}
_TRACE_FIGURES = {"fig3_sca_convergence", "fig6_ao_convergence"}


@pytest.mark.parametrize("figure_id", FIGURE_IDS)
def test_figure_table_contract(figure_id, tmp_path):
    fig = FIGURES[figure_id]
    value = fig.sweep[0]
    # Short pilot blocks keep the fast-fading solvers quick.
    scenario = {"N": 20} if "N" in fig.problem else {}
    out = run_experiment(default_spec(
        figure_id, sweep=(value,), scenarios_per_point=2, trials=2000,
        seed=1, output_dir=str(tmp_path), scenario=scenario))
    rows = _read(out / "points.csv")
    assert rows and not any(r["error"] for r in rows)
    assert {r["method"] for r in rows} == _EXPECTED_METHODS[figure_id]
    assert (out / "traces.csv").exists() == (figure_id in _TRACE_FIGURES)
    if figure_id in _TRACE_FIGURES:
        assert {r["scenario_index"] for r in rows} == {"0"}
        assert _read(out / "traces.csv")
    for row in rows:
        assert float(row["sweep_value"]) == value
        if fig.sweep_param in POINT_COLUMNS:
            cells = row[fig.sweep_param].split(";")
            assert all(float(c) == value for c in cells)
    plot = (out / "plot.py").read_text()
    assert repr(fig.xlabel) in plot and repr(fig.ylabel) in plot


def test_runs_are_byte_identical(tmp_path):
    kwargs = dict(sweep=(20.0, 30.0), scenarios_per_point=2, seed=3)
    a = run_experiment(default_spec("fig4_rate_vs_Q",
                                    output_dir=str(tmp_path / "a"), **kwargs))
    b = run_experiment(default_spec("fig4_rate_vs_Q",
                                    output_dir=str(tmp_path / "b"), **kwargs))
    for name in ("points.csv", "summary.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_every_row_objective_recomputable(tmp_path):
    for figure_id, kwargs in (
            ("fig4_rate_vs_Q", dict(sweep=(25.0,), scenarios_per_point=2)),
            ("fig9_rate_vs_eps", dict(sweep=(0.05,),
                                      scenarios_per_point=2)),
            ("fig2_tv_bounds", dict(sweep=(0.3,), trials=20000)),
    ):
        spec = default_spec(figure_id, seed=2, output_dir=str(tmp_path),
                            **kwargs)
        out = run_experiment(spec)
        spec_back = load_spec(out / "spec.ini")
        for row in _read(out / "points.csv"):
            if row["error"] or not row["chi"]:
                continue
            val = recompute_objective(spec_back, row)
            assert abs(val - float(row["objective"])) <= 1e-9, \
                (figure_id, row["method"])


def test_summary_aggregates_points(tmp_path):
    spec = default_spec("fig5_rate_vs_M", sweep=(10, 20),
                        scenarios_per_point=3, seed=1,
                        output_dir=str(tmp_path))
    out = run_experiment(spec)
    points = _read(out / "points.csv")
    summary = _read(out / "summary.csv")
    for srow in summary:
        group = [float(p["objective"]) for p in points
                 if p["sweep_value"] == srow["sweep_value"]
                 and p["method"] == srow["method"] and not p["error"]]
        assert int(srow["n_ok"]) == len(group)
        assert abs(float(srow["mean_objective"]) - np.mean(group)) < 1e-12


def test_convergence_figures_emit_traces(tmp_path):
    spec = default_spec("fig6_ao_convergence", sweep=(0, 1), seed=4,
                        output_dir=str(tmp_path))
    out = run_experiment(spec)
    traces = _read(out / "traces.csv")
    assert {t["sweep_value"] for t in traces} == {"0", "1"}
    for key in ("0", "1"):
        objs = [float(t["objective"]) for t in traces
                if t["sweep_value"] == key][:-1]
        assert all(b >= a - 1e-10 for a, b in zip(objs, objs[1:]))


def test_partial_failures_recorded_not_raised(tmp_path, monkeypatch):
    # A solver that fails on every scenario must not stop the run: it
    # completes and records the reason per row.
    def broken(params):
        raise ArithmeticError("solver failed")

    monkeypatch.setattr(experiments, "sca_solve", broken)
    spec = default_spec("fig5_rate_vs_M", sweep=(10,),
                        scenarios_per_point=2, seed=1,
                        output_dir=str(tmp_path))
    out = run_experiment(spec)
    rows = _read(out / "points.csv")
    assert len(rows) == 2
    assert all(r["error"] == "ArithmeticError: solver failed" for r in rows)
    summary = _read(out / "summary.csv")
    assert summary[0]["n_failed"] == "2"
    assert summary[0]["mean_objective"] == ""


def test_audit_passes_clean_run(tmp_path):
    spec = default_spec("fig4_rate_vs_Q", sweep=(25.0,),
                        scenarios_per_point=2, seed=6,
                        output_dir=str(tmp_path))
    out = run_experiment(spec)
    path = audit_run(out, trials=20000)
    rows = _read(path)
    assert len(rows) == 4  # 2 scenarios x {sca, poa}
    assert all(r["passed"] == "True" for r in rows)


def test_audit_detects_power_inflation(tmp_path):
    spec = default_spec("fig4_rate_vs_Q", sweep=(25.0,),
                        scenarios_per_point=2, seed=6,
                        output_dir=str(tmp_path / "clean"))
    out = run_experiment(spec)
    bad = tmp_path / "bad" / "fig4_rate_vs_Q"
    shutil.copytree(out, bad)
    pts = bad / "points.csv"
    rows = _read(pts)
    for row in rows:
        if row["chi"]:
            row["chi"] = ";".join(format(5.0 * float(t), ".17g")
                                  for t in row["chi"].split(";"))
    with open(pts, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]),
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    path = audit_run(bad, trials=10**5, max_rows=2)
    audited = _read(path)
    assert len(audited) == 2
    assert all(r["passed"] == "False" for r in audited)


def test_audit_trivial_epsilon_passes(tmp_path):
    spec = default_spec("fig4_rate_vs_Q", sweep=(25.0,),
                        scenarios_per_point=1, seed=6,
                        output_dir=str(tmp_path))
    out = run_experiment(spec)
    pts = out / "points.csv"
    rows = _read(pts)
    for row in rows:
        row["epsilon"] = "0.99"
        if row["chi"]:
            row["chi"] = ";".join(format(5.0 * float(t), ".17g")
                                  for t in row["chi"].split(";"))
    with open(pts, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]),
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    audited = _read(audit_run(out, trials=5000))
    assert audited and all(r["passed"] == "True" for r in audited)


def test_audit_replays_legacy_quad_order_key(tmp_path):
    # Runs written when ln Phi had a selectable Laguerre order carry
    # quad_order = 0 in spec.ini; they still replay. Other orders are gone.
    spec = default_spec("fig4_rate_vs_Q", sweep=(25.0,),
                        scenarios_per_point=1, seed=6,
                        output_dir=str(tmp_path))
    out = run_experiment(spec)
    ini = out / "spec.ini"
    text = ini.read_text()
    assert "quad_order" not in text
    ini.write_text(text.replace("[experiment]\n",
                                "[experiment]\nquad_order = 0\n"))
    rows = _read(audit_run(out, trials=5000, max_rows=1))
    assert rows and rows[0]["passed"] == "True"
    ini.write_text(text.replace("[experiment]\n",
                                "[experiment]\nquad_order = 160\n"))
    with pytest.raises(ValueError, match="quad_order"):
        audit_run(out, trials=5000, max_rows=1)


def test_audit_replays_legacy_jobs_key(tmp_path):
    # Runs written when sweep points ran on threads carry jobs = N in
    # spec.ini. jobs never changed a run's bytes, so the key is ignored:
    # the spec loads unchanged and audit.csv is the same.
    spec = default_spec("fig4_rate_vs_Q", sweep=(25.0,),
                        scenarios_per_point=1, seed=6,
                        output_dir=str(tmp_path))
    out = run_experiment(spec)
    ini = out / "spec.ini"
    text = ini.read_text()
    assert "\njobs = " not in text
    current = audit_run(out, trials=5000).read_bytes()
    ini.write_text(text.replace("[experiment]\n", "[experiment]\njobs = 4\n"))
    assert load_spec(ini) == spec
    assert audit_run(out, trials=5000).read_bytes() == current


def test_audit_validates_max_rows_and_jobs(tmp_path, capsys):
    out = run_experiment(default_spec(
        "fig4_rate_vs_Q", sweep=(25.0,), scenarios_per_point=1, seed=6,
        output_dir=str(tmp_path)))
    for kwargs in ({"max_rows": 0}, {"max_rows": -1}, {"jobs": 0},
                   {"jobs": -3}):
        name = next(iter(kwargs))
        with pytest.raises(ValueError, match=name):
            audit_run(out, trials=5000, **kwargs)
    for flag in ("--max-rows", "--jobs"):
        assert cli.main(["audit", str(out), "--trials", "5000", flag,
                         "0"]) == 2
        assert "must be >= 1" in capsys.readouterr().err
    assert not (out / "audit.csv").exists()


def test_audit_rejects_empty_audits(tmp_path, capsys):
    # A run without solver rows (fig2 holds only bounds and the numeric
    # TV) and a trial count below 1e3 are errors before any replay; the
    # CLI exits with status 2 and writes no audit.csv.
    bounds = run_experiment(default_spec(
        "fig2_tv_bounds", sweep=(0.2,), trials=2000, seed=0,
        output_dir=str(tmp_path / "bounds")))
    solved = run_experiment(default_spec(
        "fig4_rate_vs_Q", sweep=(25.0,), scenarios_per_point=1, seed=6,
        output_dir=str(tmp_path / "solved")))
    for out, trials, match in ((bounds, 5000, "no solver row"),
                               (solved, 0, "trials must be >= 1000"),
                               (solved, 999, "trials must be >= 1000")):
        with pytest.raises(ValueError, match=match):
            audit_run(out, trials=trials)
        assert cli.main(["audit", str(out), "--trials", str(trials)]) == 2
        assert match in capsys.readouterr().err
        assert not (out / "audit.csv").exists()


def test_audit_csv_is_byte_identical_across_jobs(tmp_path):
    # Audit rows are the one parallel layer: threads change nothing in
    # audit.csv.
    out = run_experiment(default_spec(
        "fig9_rate_vs_eps", sweep=(0.05, 0.1, 0.2), scenarios_per_point=1,
        seed=1, output_dir=str(tmp_path / "run")))
    serial = audit_run(out, trials=5000, jobs=1).read_bytes()
    assert len(serial.splitlines()) == 4  # header + one row per point
    assert audit_run(out, trials=5000, jobs=2).read_bytes() == serial


def test_defaults_listing_mentions_stock_values():
    text = list_defaults()
    for f in dataclasses.fields(experiments.ScenarioConfig):
        assert f"  {f.name} " in text, f.name
    assert "150" in text       # adversary distance
    assert "25" in text        # jammer power dBm
    assert "0.005" in text     # slow-fading epsilon
    assert "fig9_rate_vs_eps" in text
    # Sweeps print in shortest round-trip form, not the CSV cell format.
    assert "chi = 0.05,0.1,0.2" in text
    assert "epsilon = 0.01,0.02,0.05" in text


def test_cli_run_audit_defaults(tmp_path, capsys):
    ini = tmp_path / "spec.ini"
    ini.write_text("[experiment]\nfigure = fig9_rate_vs_eps\n"
                   "sweep = 0.05,0.2\nscenarios_per_point = 1\nseed = 1\n"
                   f"output_dir = {tmp_path / 'runs'}\n")
    assert cli.main(["run", str(ini)]) == 0
    # run has no --jobs: sweep points run serially.
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", str(ini), "--jobs", "2"])
    assert exc.value.code == 2
    run_dir = tmp_path / "runs" / "fig9_rate_vs_eps"
    assert (run_dir / "points.csv").exists()
    assert cli.main(["audit", str(run_dir), "--trials", "5000",
                     "--max-rows", "2"]) == 0
    assert cli.main(["defaults"]) == 0
    out = capsys.readouterr().out
    assert "fig9_rate_vs_eps" in out


def test_cli_flag_overrides_spec(tmp_path):
    ini = tmp_path / "spec.ini"
    ini.write_text("[experiment]\nfigure = fig2_tv_bounds\nsweep = 0.2\n"
                   "trials = 50\nseed = 9\n"
                   f"output_dir = {tmp_path / 'runs'}\n")
    assert cli.main(["run", str(ini), "--trials", "20000"]) == 0
    rows = _read(tmp_path / "runs" / "fig2_tv_bounds" / "points.csv")
    # CI at 2e4 samples is far tighter than 50 samples could give.
    ci = next(float(r["ci"]) for r in rows if r["method"] == "tv_numeric")
    assert ci < 0.01


# One fresh interpreter: import the package and its CLI, run every figure
# at its first sweep point with one scenario, audit two rows of the fig4
# (SCA, POA) and fig7 (ES, AO) runs, and print the SciPy modules loaded.
# fig8's first point (Q = 15 dBm) takes zeta from the H0 energy rule, and
# fig2 the limiting-density bounds. argv[1] is the output directory.
_SCIPY_GUARD = """
import sys
import covertjam, covertjam.cli, covertjam.experiments as ex
out = sys.argv[1]
for figure_id in ex.FIGURE_IDS:
    run = ex.run_experiment(ex.default_spec(
        figure_id, sweep=ex.FIGURES[figure_id].sweep[:1],
        scenarios_per_point=1, trials=2000, output_dir=f"{out}/{figure_id}"))
    if figure_id in ("fig4_rate_vs_Q", "fig7_rate_vs_PR"):
        ex.audit_run(run, trials=2000, seed=1, max_rows=2)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_solver_and_audit_paths_load_no_scipy(tmp_path):
    # Every figure, the solvers and the Monte-Carlo adversary run on numpy
    # alone: no scipy module is loaded.
    src = Path(experiments.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", _SCIPY_GUARD, str(tmp_path)],
                         env=env, check=True, capture_output=True, text=True,
                         timeout=300)
    assert out.stdout.splitlines() == ["[]"]


def test_package_sources_import_no_scipy():
    # Static: no module of the package imports scipy, at top level or
    # inside a function.
    src = Path(experiments.__file__).resolve().parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}: {name}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == []
