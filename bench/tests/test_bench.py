"""Tests of the benchmark's own code: span arithmetic, wrappers, checks,
the compare verdicts, and a smallest-size run of every workload."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, layer_metrics, self_times  # noqa: E402


def _tree():
    """run_experiment [0, 100] holding a POA call and a recursive ln Phi."""
    return [
        Span("experiments.run_experiment", -1, 0, 100),
        Span("quasi_static.poa_solve", 0, 10, 50, {"pops": 7,
                                                    "unconverged": 0}),
        Span("quasi_static.single_receiver_gamma", 1, 20, 30),
        Span("quadrature.log_phi_exact", 0, 60, 90, {"points": 40000}),
        Span("quadrature.log_phi_exact", 3, 65, 75, {"points": 32768}),
        Span("quadrature.log_phi_exact", 3, 76, 85, {"points": 7232}),
    ]


def test_self_times_subtract_children_and_sum_to_root():
    spans = _tree()
    assert self_times(spans) == [30, 30, 10, 11, 10, 9]
    assert sum(self_times(spans)) == spans[0].end - spans[0].start


def test_recursive_span_counts_once_in_calls_and_total():
    m = layer_metrics(_tree())
    assert m["quadrature.log_phi_exact.calls"] == 1
    assert m["quadrature.log_phi_exact.points"] == 40000
    assert m["quadrature.log_phi_exact.total_s"] == pytest.approx(30e-9)
    assert m["experiments.run_experiment.self_s"] == pytest.approx(30e-9)
    assert m["quasi_static.poa_solve.pops"] == 7
    assert m["quasi_static.single_receiver_gamma.calls"] == 1
    assert m["fast_varying.es_solve.calls"] == 0
    assert set(m) == {name for name, _, _ in tracing.layer_metric_specs()}


def test_repeat_ratio_counts_keys_seen_earlier():
    spans = [Span("covertness.zeta", -1, 10 * i, 10 * i + 5,
                  {"key": (q, 90.0, None)})
             for i, q in enumerate((3.0, 4.0, 3.0, 3.0))]
    m = layer_metrics(spans)
    assert m["covertness.zeta.calls"] == 4
    assert m["covertness.zeta.repeat_ratio"] == 0.5


def test_wrapper_returns_the_same_value():
    tracer = Tracer()
    value = object()
    wrapped = tracer.wrap("covertness.zeta", lambda a, b=2: (value, a, b))
    assert wrapped(1, b=3) == (value, 1, 3)
    assert len(tracer.spans) == 1 and tracer.spans[0].end >= \
        tracer.spans[0].start


def test_wrapper_reraises_the_same_exception_and_unwinds():
    tracer = Tracer()
    error = ArithmeticError("no root")

    def fail():
        raise error

    outer = tracer.wrap("covertness.zeta", fail)
    with pytest.raises(ArithmeticError) as info:
        outer()
    assert info.value is error
    tracer.wrap("quadrature.log_phi_exact", lambda: None)()
    assert tracer.spans[1].parent == -1  # the failed span left the stack


def test_install_patches_every_lookup_site_and_uninstall_restores():
    import importlib
    sites = [(layer, importlib.import_module(f"covertjam.{mod}"), attr)
             for layer in tracing.LAYERS for mod, attr in layer.sites]
    originals = [getattr(module, attr) for _, module, attr in sites]
    with Tracer() as tracer:
        for (layer, module, attr), original in zip(sites, originals):
            assert getattr(module, attr) is not original
            assert getattr(module, attr).__wrapped__ is original
        from covertjam import fast_varying
        fast_varying.zeta(3.0, 20.0)
    assert [s.name for s in tracer.spans][0] == "covertness.zeta"
    assert all(getattr(module, attr) is original
               for (_, module, attr), original in zip(sites, originals))


def test_sweep_check_flags_a_wrong_objective(tmp_path):
    prepared = workloads.WORKLOADS["qs_sweep"].prepare(0, tmp_path, True)
    out = prepared.call()
    assert prepared.check(out).failures == {}
    points = out / "points.csv"
    lines = points.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[1].split(",")
    col = header.index("objective")
    cells[col] = repr(float(cells[col]) * 1.01)
    points.write_text("\n".join([lines[0], ",".join(cells)] + lines[2:])
                      + "\n")
    outcome = prepared.check(out)
    assert len(outcome.failures) == 1
    assert "recomputes" in next(iter(outcome.failures.values()))[0]


@pytest.mark.parametrize("better,base,new,expected", [
    ("lower", [10.0 + 0.1 * i for i in range(10)],
     [8.0 + 0.1 * i for i in range(10)], "improved"),
    ("lower", [10.0 + 0.1 * i for i in range(10)],
     [12.0 + 0.1 * i for i in range(10)], "worse"),
    ("lower", [10.0 + 0.1 * i for i in range(10)],
     [10.05 + 0.1 * i for i in range(10)][::-1], "unchanged"),
    ("higher", [10.0 + 3.0 * i for i in range(10)],
     [10.5 + 3.0 * i for i in range(10)][::-1], "unresolved"),
    ("lower", [1.0] * 9, [0.5] * 9, "unresolved"),
])
def test_verdict(better, base, new, expected):
    assert run.verdict(base, new, better, bound=0.1) == expected


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [w["why"] for w in spec["workloads"]] == \
        [workloads.WORKLOADS[n].why for n in run.WORKLOAD_NAMES]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == run.per_layer_specs()


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_smallest_run_of_each_workload(name, tmp_path):
    summary = run.run_workload(name, seed=3, seconds=0, trace=True,
                               smoke=True, results_dir=tmp_path / "results",
                               work_root=tmp_path / "work")
    assert summary["correct"], summary["failures"]
    assert summary["failed"] == 0 and summary["attempted"] >= 2
    assert set(summary["metrics"]) == \
        {name for name, _, _ in run.per_layer_specs()}
    assert summary["report"]["failed_share"] == 0.0
    assert summary["layers"]["trace.spans"] > 0
    assert (tmp_path / "results" / f"{name}-seed3-spans.csv").is_file()
    assert not any((tmp_path / "work").iterdir())
