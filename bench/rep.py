"""One repetition of one workload, in a fresh interpreter.

    python3 bench/rep.py WORKLOAD SEED WORKDIR --smoke 0|1 --spans PATH --rep N

run.py starts this script once per repetition, because covertjam's
process-wide lru_caches (zeta, the H0 rule, gamma_rule, the Laguerre
rules) start empty in a user's `covertjam run` too. The script imports
covertjam from this checkout, builds the inputs, times the workload's
call, checks the output after the timer stops, and prints one JSON line.
With --spans it traces the timed call and appends its spans to PATH.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("workdir", type=Path)
    parser.add_argument("--smoke", type=int, default=0)
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--rep", type=int, default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(SRC), str(HERE)]
    import covertjam
    if Path(covertjam.__file__).resolve().parent != SRC / "covertjam":
        raise ImportError(f"covertjam imported from {covertjam.__file__}, "
                          f"not from {SRC}")
    import tracing
    import workloads

    prepared = workloads.WORKLOADS[args.workload].prepare(
        args.seed, args.workdir, bool(args.smoke))
    ready_ns = time.perf_counter_ns()

    tracer = tracing.Tracer(args.rep) if args.spans else None
    with tracer or contextlib.nullcontext():
        start = time.perf_counter_ns()
        out = prepared.call()
        wall_ns = time.perf_counter_ns() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    outcome = prepared.check(out)
    result = {
        "ready_ns": ready_ns,
        "wall_s": wall_ns * 1e-9,
        "peak_rss_mb": peak_rss_mb,
        "attempted": outcome.attempted,
        "failures": outcome.failures,
        "objectives": outcome.objectives,
        "ratios": outcome.ratios,
        "trials": outcome.trials,
        "hashes": outcome.hashes,
    }
    if tracer:
        tracing.write_spans(args.spans, tracer)
        spans = tracer.spans
        roots = [s for s in spans if s.parent < 0]
        result.update(
            layers=tracing.layer_metrics(spans),
            spans=len(spans),
            roots=len(roots),
            root_ns=sum(s.end - s.start for s in roots),
            self_sum_ns=sum(tracing.self_times(spans)),
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
