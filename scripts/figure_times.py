#!/usr/bin/env python3
"""Median start-up and wall time of each stock figure spec, for two checkouts.

Usage: python3 scripts/figure_times.py [--runs R] [--figures ID,...]
                                      [--audit-rows N] BASE NEW

BASE and NEW are repository roots whose `src` holds covertjam (say a
`git archive` of the parent and this one). Every run is one stock figure
spec, `default_spec(figure_id)`, written to a temporary directory by a
fresh interpreter that imports covertjam from that checkout's `src`, so
the process-wide caches start empty as in a user's `covertjam run`. Runs
are serial. For each figure the checkouts alternate, and their order
flips from one round to the next, so slow drift of the host falls on
both. The time is that of `run_experiment` alone, without interpreter
start-up and imports. Prints the median and quartiles per figure and
checkout, and the ratio of the medians, NEW over BASE.

Before the figures, the start-up rows: R fresh interpreters per checkout,
alternating the same way, each timing `import covertjam.experiments`
(what every CLI run, audit and bench repetition pays before its work)
and reading its peak resident set size after the import.

With --audit-rows N, each run of a figure with solver rows then audits
its first N rows, `audit_run(run_dir, max_rows=N, jobs=1)` at the default
1e5 trials, in the same interpreter, and a second row per figure gives
the audit's throughput in trials per second.
"""

import argparse
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# One run in a fresh interpreter: argv is (src, figure_id, output_dir,
# audit_rows). Prints the run's seconds, then the audit's trials per second
# when it audits.
_CHILD = """
import csv, sys, time
from pathlib import Path
src = Path(sys.argv[1]).resolve()
sys.path.insert(0, str(src))
import covertjam
from covertjam import experiments
if Path(covertjam.__file__).resolve().parent != src / "covertjam":
    raise ImportError(f"covertjam imported from {covertjam.__file__}")
if sys.argv[2] == "--list":
    print(*experiments.FIGURE_IDS)
    raise SystemExit
spec = experiments.default_spec(sys.argv[2], output_dir=sys.argv[3])
start = time.perf_counter()
run_dir = experiments.run_experiment(spec)
print(time.perf_counter() - start)
rows = int(sys.argv[4])
if rows and set(experiments.FIGURES[sys.argv[2]].methods) \\
        & set(experiments._SOLVERS):
    start = time.perf_counter()
    audit = experiments.audit_run(run_dir, max_rows=rows, jobs=1)
    seconds = time.perf_counter() - start
    with open(audit, newline="") as fh:
        print(sum(int(row["trials"]) for row in csv.DictReader(fh)) / seconds)
"""


# One import in a fresh interpreter: argv is (src,); prints the seconds the
# import took and the peak RSS in MB after it.
_IMPORT_CHILD = """
import resource, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import covertjam.experiments
seconds = time.perf_counter() - start
print(seconds, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
"""


def _child(src: Path, *args, code: str = _CHILD) -> str:
    done = subprocess.run([sys.executable, "-c", code, str(src), *args],
                          capture_output=True, text=True, check=True)
    return done.stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs=2, type=Path,
                        metavar="BASE NEW")
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per figure and checkout, at least 2 "
                             "(default 5)")
    parser.add_argument("--figures", default=None,
                        help="comma-separated figure ids (default: all)")
    parser.add_argument("--audit-rows", type=int, default=0, metavar="N",
                        help="also audit each run's first N solver rows "
                             "and report trials per second (default 0: "
                             "no audit)")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    if args.audit_rows < 0:
        parser.error("--audit-rows must be at least 0")
    srcs = [c.resolve() / "src" for c in args.checkouts]
    figures = (args.figures.split(",") if args.figures
               else _child(srcs[0], "--list").split())

    print(f"{'figure':22s}" + "".join(
        f"  {'median':>10s} {'q1-q3':>15s}" for _ in srcs) + "  ratio")
    startup = [[], []], [[], []]  # seconds, then peak RSS, per checkout
    for r in range(args.runs):
        for i in ((0, 1) if r % 2 == 0 else (1, 0)):
            seconds, rss = _child(srcs[i], code=_IMPORT_CHILD).split()
            startup[0][i].append(float(seconds))
            startup[1][i].append(float(rss))
    _row("import [s]", startup[0])
    _row("import peak RSS [MB]", startup[1], digits=1)
    with tempfile.TemporaryDirectory() as tmp:
        for figure_id in figures:
            times, rates = [[] for _ in srcs], [[] for _ in srcs]
            for r in range(args.runs):
                for i in ((0, 1) if r % 2 == 0 else (1, 0)):
                    out = Path(tmp) / f"{i}-{r}"
                    seconds, *rate = _child(srcs[i], figure_id, str(out),
                                            str(args.audit_rows)).split()
                    times[i].append(float(seconds))
                    rates[i] += map(float, rate)
            _row(f"{figure_id} [s]", times)
            if rates[0]:
                _row("  audit [trials/s]", rates, digits=0)
    return 0


def _row(name: str, values: list, digits: int = 3) -> None:
    """One table row: median and quartiles per checkout, then the ratio of
    the medians, NEW over BASE."""
    stats = [statistics.quantiles(v, n=4, method="inclusive") for v in values]
    print(f"{name:22s}" + "".join(
        f"  {q2:10.{digits}f} {q1:7.{digits}f}-{q3:<7.{digits}f}"
        for q1, q2, q3 in stats)
        + f"  {stats[1][1] / stats[0][1]:.3f}", flush=True)


if __name__ == "__main__":
    raise SystemExit(main())
