"""Span tracing installed from outside the package, and per-layer metrics.

A `Tracer` wraps the public functions of every covertjam layer by patching
each module attribute through which the package looks them up (the
modules import each other's functions by name, so patching only the
defining module would miss most calls). Each wrapped call records one
span: layer name, start and end in integer nanoseconds, the index of the
enclosing span, and counts taken from the arguments and the returned
result. Spans stay in memory until `write_spans`.

Self time is a span's duration minus the part of it covered by child
spans. With integer nanoseconds and one thread, the self times of all
spans add up exactly to the duration of the root span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    parent: int  # index of the enclosing span, -1 for a root
    start: int  # perf_counter_ns
    end: int = 0
    counts: dict = field(default_factory=dict)


_signature = functools.lru_cache(maxsize=None)(inspect.signature)


def _bound(fn, args, kwargs):
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _iteration_counts(fn, args, kwargs, result):
    return {"iterations": len(result.trace),
            "unconverged": int(not result.converged)}


def _pop_counts(fn, args, kwargs, result):
    # POA records its running pop count in every trace entry.
    return {"pops": result.trace[-1]["iteration"] if result.trace else 0,
            "unconverged": int(not result.converged)}


def _log_phi_points(fn, args, kwargs, result):
    return {"points": int(np.size(_bound(fn, args, kwargs)["z"]))}


def _spline_error(fn, args, kwargs, result):
    return {"max_abs_err": float(result.max_abs_err)}


def _detection_trials(fn, args, kwargs, result):
    return {"trials": int(_bound(fn, args, kwargs)["trials"])}


def _zeta_key(fn, args, kwargs, result):
    arguments = _bound(fn, args, kwargs)
    rule = arguments["rule"]
    return {"key": (float(arguments["q"]), float(arguments["n"]),
                    None if rule is None else rule.n_quad)}


@dataclass(frozen=True)
class Layer:
    """One traced function: its span name, lookup sites and metrics."""

    name: str  # module.function, as in covertjam
    sites: tuple  # (module, attribute) pairs that resolve to the function
    metrics: tuple  # (metric, unit, better) reported for this layer
    counter: object = None  # fn(fn, args, kwargs, result) -> counts dict


# Metrics are named layer.metric. `calls`/`builds`, `total_s` and counts
# cover only outermost spans of a layer (a recursive call is part of its
# caller); `self_s` sums the self time of every span of the layer;
# `repeat_ratio` is the share of calls whose (q, n, rule order) key an
# earlier call of the repetition already had.
LAYERS = (
    Layer("experiments.run_experiment",
          (("experiments", "run_experiment"),),
          (("self_s", "s", "lower"),)),
    Layer("experiments.audit_run",
          (("experiments", "audit_run"),),
          (("self_s", "s", "lower"),)),
    Layer("scenario.sample_scenario",
          (("scenario", "sample_scenario"), ("experiments", "sample_scenario")),
          (("calls", "count", "lower"), ("total_s", "s", "lower"))),
    Layer("quasi_static.sca_solve",
          (("quasi_static", "sca_solve"), ("experiments", "sca_solve")),
          (("calls", "count", "lower"), ("total_s", "s", "lower"),
           ("iterations", "count", "lower"), ("unconverged", "count", "lower")),
          _iteration_counts),
    Layer("quasi_static.poa_solve",
          (("quasi_static", "poa_solve"), ("experiments", "poa_solve")),
          (("calls", "count", "lower"), ("total_s", "s", "lower"),
           ("pops", "count", "lower"), ("unconverged", "count", "lower")),
          _pop_counts),
    Layer("quasi_static.single_receiver_gamma",
          (("quasi_static", "single_receiver_gamma"),),
          (("calls", "count", "lower"), ("total_s", "s", "lower"))),
    Layer("fast_varying.es_solve",
          (("fast_varying", "es_solve"), ("experiments", "es_solve")),
          (("calls", "count", "lower"), ("total_s", "s", "lower"))),
    Layer("fast_varying.ao_solve",
          (("fast_varying", "ao_solve"), ("experiments", "ao_solve")),
          (("calls", "count", "lower"), ("total_s", "s", "lower"),
           ("iterations", "count", "lower"), ("unconverged", "count", "lower")),
          _iteration_counts),
    Layer("fast_varying.chi_given_tau",
          (("fast_varying", "chi_given_tau"),),
          (("calls", "count", "lower"), ("self_s", "s", "lower"))),
    Layer("fast_varying.tau_given_chi",
          (("fast_varying", "tau_given_chi"),),
          (("calls", "count", "lower"), ("total_s", "s", "lower"))),
    Layer("covertness.zeta",
          (("covertness", "zeta"), ("fast_varying", "zeta")),
          (("calls", "count", "lower"), ("total_s", "s", "lower"),
           ("repeat_ratio", "share", "lower")),
          _zeta_key),
    Layer("quadrature.h0_energy_rule",
          (("quadrature", "h0_energy_rule"), ("covertness", "h0_energy_rule")),
          (("calls", "count", "lower"), ("total_s", "s", "lower"))),
    Layer("quadrature.log_phi_exact",
          (("quadrature", "log_phi_exact"), ("covertness", "log_phi_exact"),
           ("detection", "log_phi_exact")),
          (("calls", "count", "lower"), ("points", "count", "lower"),
           ("total_s", "s", "lower")),
          _log_phi_points),
    Layer("quadrature.LogPhiSpline",
          (("quadrature", "LogPhiSpline"), ("detection", "LogPhiSpline")),
          (("builds", "count", "lower"), ("total_s", "s", "lower"),
           ("max_abs_err", "1", "lower")),
          _spline_error),
    Layer("detection.simulate_detection",
          (("detection", "simulate_detection"),),
          (("calls", "count", "lower"), ("trials", "count", "lower"),
           ("self_s", "s", "lower")),
          _detection_trials),
)

# Counts combined by maximum rather than by sum.
_MAX_COUNTS = {"max_abs_err"}


def layer_metric_specs():
    """[(metric name, unit, better)] for every per-layer metric."""
    return [(f"{layer.name}.{metric}", unit, better)
            for layer in LAYERS for metric, unit, better in layer.metrics]


class Tracer:
    """Records spans around wrapped callables; one instance per repetition."""

    def __init__(self, rep: int = 0):
        self.rep = rep
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list = []

    def wrap(self, name: str, fn, counter=None):
        """Callable that behaves as `fn` and records a span per call."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, time.perf_counter_ns())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
            if counter is not None:
                span.counts = counter(fn, args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        """Patch every lookup site of every layer; `uninstall` undoes it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for layer in LAYERS:
            sites = [(importlib.import_module(f"covertjam.{mod}"), attr)
                     for mod, attr in layer.sites]
            original = getattr(*sites[0])
            if any(getattr(module, attr) is not original
                   for module, attr in sites):
                raise RuntimeError(f"lookup sites of {layer.name} disagree")
            wrapper = self.wrap(layer.name, original, layer.counter)
            for module, attr in sites:
                self._restore.append((module, attr, original))
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def self_times(spans) -> list[int]:
    """Per-span duration minus the part of it covered by its children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def _outermost(spans) -> list[bool]:
    """True for spans with no ancestor of the same layer."""
    flags = []
    for s in spans:
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        flags.append(p < 0)
    return flags


def layer_metrics(spans) -> dict:
    """Per-layer metric values (seconds as float) from one repetition's spans."""
    agg = {layer.name: {"calls": 0, "total_ns": 0, "self_ns": 0,
                        "counts": {}, "keys": []} for layer in LAYERS}
    for span, self_ns, is_outer in zip(spans, self_times(spans),
                                       _outermost(spans)):
        a = agg[span.name]
        a["self_ns"] += self_ns
        if not is_outer:
            continue
        a["calls"] += 1
        a["total_ns"] += span.end - span.start
        for key, value in span.counts.items():
            if key == "key":
                a["keys"].append(value)
                continue
            prev = a["counts"].get(key, 0)
            a["counts"][key] = max(prev, value) if key in _MAX_COUNTS \
                else prev + value
    out = {}
    for layer in LAYERS:
        a = agg[layer.name]
        for metric, _, _ in layer.metrics:
            if metric in ("calls", "builds"):
                value = a["calls"]
            elif metric == "total_s":
                value = a["total_ns"] * 1e-9
            elif metric == "self_s":
                value = a["self_ns"] * 1e-9
            elif metric == "repeat_ratio":
                value = 1.0 - len(set(a["keys"])) / a["calls"] \
                    if a["calls"] else 0.0
            else:
                value = a["counts"].get(metric, 0)
            out[f"{layer.name}.{metric}"] = value
    return out


def write_spans(path, tracer: Tracer) -> None:
    """Append the tracer's spans as CSV: rep,index,name,start_ns,end_ns,parent."""
    with open(path, "a") as fh:
        if fh.tell() == 0:
            fh.write("rep,index,name,start_ns,end_ns,parent\n")
        for i, s in enumerate(tracer.spans):
            fh.write(f"{tracer.rep},{i},{s.name},{s.start},{s.end},"
                     f"{s.parent}\n")
