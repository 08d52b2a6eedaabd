#!/usr/bin/env python3
"""covertjam benchmark: end-to-end and per-layer metrics of three workloads.

    python3 bench/run.py --workload qs_sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30
    python3 bench/run.py --compare BASE.jsonl NEW.jsonl

A run repeats the workload until --seconds have passed (at least three
repetitions, or one untraced/traced pair with --trace 1), each repetition
in a fresh interpreter started from bench/rep.py, and reports medians over
the repetitions. --trace 0 reports the end-to-end metrics; --trace 1
alternates untraced and traced repetitions and reports the per-layer
metrics plus the tracing overhead (traced minus untraced wall time).

Every run prints a table of its metrics, appends a record to
.bench_results/runs.jsonl (git revision, CPU, library versions, output
hashes and per-repetition values included) and prints, as its last line,
one JSON object with the keys correct, attempted, failed and metrics. It
exits nonzero when any output check fails. --compare reads two such
record files and gives, per workload and metric, each side's median and
quartiles, the ratio to the base, and a verdict.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402  (needs HERE on sys.path)

WORKLOAD_NAMES = ("qs_sweep", "fast_sweep", "audit_replay")
MIN_REPS = 3
REP_TIMEOUT_S = 150

# (name, unit, better): reported on every workload with --trace 0 and
# gated by the bounds in BENCHMARK.json.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("objective_ratio", "1", "higher"),
)
# Printed and recorded, not gated. mean_objective (sweeps only) varies
# several-fold with the scenario seed, so objective_ratio, its ratio to a
# fixed reference allocation, is gated instead. failed_share is 0 on a
# correct run. trials_per_s (audit_replay only) is a fixed multiple of
# 1 / wall_s.
REPORTED = (
    ("mean_objective", "nats", "higher"),
    ("failed_share", "share", "lower"),
    ("trials_per_s", "1/s", "higher"),
)
TRACE_METRICS = (
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)


def per_layer_specs():
    return tracing.layer_metric_specs() + list(TRACE_METRICS)


class RepError(RuntimeError):
    """A repetition crashed or timed out; its stderr says why."""


def _run_rep(workload, seed, workdir, smoke, spans_path, rep):
    cmd = [sys.executable, str(HERE / "rep.py"), workload, str(seed),
           str(workdir), "--smoke", str(int(smoke)), "--rep", str(rep)]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    spawn_ns = time.perf_counter_ns()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RepError(f"{workload} repetition {rep} timed out") from None
    finally:
        # Also on SIGTERM (see main) or Ctrl-C: never leave a child behind.
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise RepError(f"{workload} repetition {rep} exited with "
                       f"{proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    # perf_counter is CLOCK_MONOTONIC, shared by parent and child, so this
    # covers interpreter start, imports and input generation.
    result["setup_s"] = (result["ready_ns"] - spawn_ns) * 1e-9
    return result


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def environment() -> dict:
    git = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        git = proc.stdout.strip() or None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git": git,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


def _summarize(name, reps, traced_reps):
    """Check agreement between repetitions and compute every metric."""
    failures = {}
    for i, rep in enumerate(reps + traced_reps):
        for op, reasons in rep["failures"].items():
            failures.setdefault(op, []).extend(
                f"rep {i}: {reason}" for reason in reasons)
    attempted = sum(r["attempted"] for r in reps + traced_reps)
    failed = sum(len(r["failures"]) for r in reps + traced_reps)
    first = reps[0]
    for i, rep in enumerate(reps[1:] + traced_reps, start=1):
        if rep["hashes"] != first["hashes"]:
            failures.setdefault("determinism", []).append(
                f"rep {i} wrote other bytes than rep 0 "
                f"({'traced' if 'layers' in rep else 'untraced'})")
            failed += 1

    wall = statistics.median([r["wall_s"] for r in reps])
    report = {
        "wall_s": wall,
        "setup_s": statistics.median([r["setup_s"] for r in reps]),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in reps]),
        # 0 only when every row failed, which the checks already report.
        "objective_ratio": _mean(first["ratios"]),
    }
    if first["trials"]:
        report["trials_per_s"] = first["trials"] / wall
    else:
        report["mean_objective"] = _mean(first["objectives"])

    layers = {}
    if traced_reps:
        counts = None
        for i, rep in enumerate(traced_reps):
            if rep["roots"] != 1 or rep["self_sum_ns"] != rep["root_ns"]:
                failures.setdefault("trace", []).append(
                    f"traced rep {i}: {rep['roots']} root spans, self times "
                    f"sum to {rep['self_sum_ns']} ns of {rep['root_ns']} ns")
                failed += 1
            rep_counts = {k: v for k, v in rep["layers"].items()
                          if not k.endswith("_s")}
            if counts is not None and rep_counts != counts:
                failures.setdefault("trace", []).append(
                    f"traced rep {i}: counts differ from traced rep 0")
                failed += 1
            counts = counts or rep_counts
        for key in traced_reps[0]["layers"]:
            layers[key] = statistics.median(
                [r["layers"][key] for r in traced_reps])
        traced_wall = statistics.median([r["wall_s"] for r in traced_reps])
        layers["trace.wall_s"] = traced_wall
        layers["trace.untraced_wall_s"] = wall
        layers["trace.overhead_s"] = traced_wall - wall
        layers["trace.spans"] = traced_reps[0]["spans"]
    report["failed_share"] = failed / attempted
    return {
        "workload": name,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "report": report,
        "layers": layers,
        "hashes": first["hashes"],
    }


def run_workload(name, seed, seconds, trace=False, smoke=False,
                 results_dir=ROOT / ".bench_results",
                 work_root=ROOT / ".bench_work") -> dict:
    """Repeat one workload for `seconds`, check it, and summarize it."""
    if name not in WORKLOAD_NAMES:
        raise ValueError(f"unknown workload {name!r}")
    results_dir.mkdir(parents=True, exist_ok=True)
    work = work_root / f"{name}-{seed}-{os.getpid()}"
    spans_path = results_dir / f"{name}-seed{seed}-spans.csv"
    if trace and spans_path.exists():
        spans_path.unlink()
    reps, traced_reps = [], []
    start = time.perf_counter()
    try:
        while True:
            i = len(reps) + len(traced_reps)
            traced = trace and i % 2 == 1
            result = _run_rep(name, seed, work / f"rep{i}", smoke,
                              spans_path if traced else None, i)
            (traced_reps if traced else reps).append(result)
            elapsed = time.perf_counter() - start
            if trace:
                if traced and elapsed >= seconds:
                    break
            elif len(reps) >= MIN_REPS and elapsed >= seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    summary = _summarize(name, reps, traced_reps)
    summary.update(
        seed=seed, seconds=seconds, trace=int(trace), smoke=int(smoke),
        reps=[{k: r[k] for k in ("wall_s", "setup_s", "peak_rss_mb")}
              for r in reps],
        traced_reps=[{"wall_s": r["wall_s"]} for r in traced_reps],
        env=environment(),
    )
    summary["metrics"] = _gated_metrics(summary)
    with open(results_dir / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(summary) + "\n")
    return summary


def _gated_metrics(summary) -> dict:
    if summary["trace"]:
        specs, values = per_layer_specs(), summary["layers"]
    else:
        specs, values = END_TO_END, summary["report"]
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in specs}


def _print_summary(summary) -> None:
    print(f"== {summary['workload']}  seed {summary['seed']}  "
          f"trace {summary['trace']}  reps {len(summary['reps'])}"
          f"+{len(summary['traced_reps'])} traced  "
          f"{'correct' if summary['correct'] else 'INCORRECT'}")
    units = {name: unit for name, unit, _ in
             END_TO_END + REPORTED + tuple(per_layer_specs())}
    for name, value in list(summary["report"].items()) + \
            list(summary["layers"].items()):
        print(f"  {name:45s} {value:14.6g} {units[name]}")
    for file_name, digest in summary["hashes"].items():
        print(f"  sha256 {file_name:37s} {digest}")
    env = summary["env"]
    print("  env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for op, reasons in summary["failures"].items():
        for reason in reasons:
            print(f"  FAILED {op}: {reason}")


# ---------------------------------------------------------------------------
# compare mode


def verdict(base, new, better, bound=None) -> str:
    """improved / unchanged / unresolved / worse for paired runs.

    Pairs are (base[i], new[i]). A side wins a pair when its value is
    better; ties count for neither. A change is improved (or worse) when it
    wins (or loses) at least nine tenths of at least ten pairs and the
    medians differ by more than the base's quartile distance. It is also
    worse when its median is worse than the base's by more than `bound`
    (a share of the base median). Otherwise it is unchanged when the base's
    quartile distance fits within the bound, or when every new run beats
    every base run; else unresolved.
    """
    n = min(len(base), len(new))
    if n < 10:
        return "unresolved"
    sign = 1.0 if better == "higher" else -1.0
    gains = [sign * (c - b) for b, c in zip(base, new)]
    wins = sum(g > 0 for g in gains)
    losses = sum(g < 0 for g in gains)
    mid_b, mid_n = statistics.median(base), statistics.median(new)
    q1, _, q3 = statistics.quantiles(base, n=4)
    spread = q3 - q1
    diff = sign * (mid_n - mid_b)
    if wins >= 0.9 * n and diff > spread:
        return "improved"
    if losses >= 0.9 * n and -diff > spread:
        return "worse"
    if bound is not None and -diff > bound * abs(mid_b):
        return "worse"
    all_better = min(sign * c for c in new) > max(sign * b for b in base)
    if bound is None or spread <= bound * abs(mid_b) or all_better:
        return "unchanged"
    return "unresolved"


def _load_records(path) -> dict:
    groups = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                key = (rec["workload"], rec["trace"], rec["smoke"])
                groups.setdefault(key, []).append(rec)
    return groups


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare(base_path, new_path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    better = {name: b for name, _, b in
              END_TO_END + REPORTED + tuple(per_layer_specs())}
    base, new = _load_records(base_path), _load_records(new_path)
    for key in sorted(set(base) & set(new)):
        workload, trace, smoke = key
        print(f"== {workload} (trace {trace}{', smoke' if smoke else ''}): "
              f"{len(base[key])} base runs, {len(new[key])} new runs")
        print(f"  {'metric':45s} {'base q1/median/q3':>32s} "
              f"{'new q1/median/q3':>32s}  ratio (base)  verdict")
        names = []
        for rec in base[key] + new[key]:
            for name in list(rec["report"]) + list(rec["layers"]):
                if name not in names:
                    names.append(name)
        for name in names:
            b = [r["report"].get(name, r["layers"].get(name))
                 for r in base[key]]
            c = [r["report"].get(name, r["layers"].get(name))
                 for r in new[key]]
            if None in b or None in c:
                continue
            qb, qc = _quartiles(b), _quartiles(c)
            ratio = qc[1] / qb[1] if qb[1] else float("nan")
            v = verdict(b, c, better[name], bounds.get(name))
            print(f"  {name:45s} {qb[0]:10.4g} {qb[1]:10.4g} {qb[2]:10.4g} "
                  f"{qc[0]:10.4g} {qc[1]:10.4g} {qc[2]:10.4g}  "
                  f"{ratio:6.3f} ({qb[1]:.4g})  {v}")
    return 0


# ---------------------------------------------------------------------------


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0].strip(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload or --compare is required")
    if not (ROOT / "src" / "covertjam" / "__init__.py").is_file():
        print(f"error: no covertjam sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    summaries = []
    for name in names:
        try:
            summary = run_workload(name, args.seed, args.seconds,
                                   bool(args.trace))
        except RepError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        _print_summary(summary)
        summaries.append(summary)
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": summaries[0]["metrics"] if len(summaries) == 1 else
        {s["workload"]: s["metrics"] for s in summaries},
    }))
    return 0 if all(s["correct"] for s in summaries) else 1


if __name__ == "__main__":
    sys.exit(main())
