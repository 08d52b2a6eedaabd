"""Command line front end: run figure sweeps, audit runs, print defaults."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys

from . import experiments


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covertjam",
        description="Jamming-aided covert communication design experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run", help="execute the experiment described by an INI spec file")
    run_p.add_argument("spec_file", help="INI file with an [experiment] "
                       "section and an optional [scenario] section")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the spec's seed")
    run_p.add_argument("--output-dir", dest="output_dir", default=None)
    run_p.add_argument("--scenarios-per-point", dest="scenarios_per_point",
                       type=int, default=None)

    audit_p = sub.add_parser(
        "audit", help="replay a run's solutions through the detection audit")
    audit_p.add_argument("run_dir", help="directory written by `run`")
    audit_p.add_argument("--trials", type=int, default=10**5)
    audit_p.add_argument("--seed", type=int, default=0)
    audit_p.add_argument("--jobs", type=int, default=1)
    audit_p.add_argument("--max-rows", dest="max_rows", type=int,
                         default=None,
                         help="audit only the first N solver rows")

    sub.add_parser("defaults",
                   help="print the stock scenario table and figure sweeps")
    return parser


def _run(args) -> int:
    spec = experiments.load_spec(args.spec_file)
    overrides = {
        name: getattr(args, name)
        for name in ("seed", "output_dir", "scenarios_per_point")
        if getattr(args, name) is not None
    }
    if overrides:
        spec = dataclasses.replace(spec, **overrides)
    out_dir = experiments.run_experiment(spec)
    with open(out_dir / "points.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    failed = sum(1 for row in rows if row["error"])
    print(f"{spec.figure_id}: {len(rows)} rows "
          f"({failed} failed) -> {out_dir}")
    return 0 if failed == 0 else 1


def _audit(args) -> int:
    path = experiments.audit_run(args.run_dir, trials=args.trials,
                                 seed=args.seed, jobs=args.jobs,
                                 max_rows=args.max_rows)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    failed = sum(1 for row in rows if row["passed"] != "True")
    print(f"audit: {len(rows)} rows checked, {failed} failed -> {path}")
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "defaults":
        print(experiments.list_defaults())
        return 0
    try:
        return _run(args) if args.command == "run" else _audit(args)
    except ValueError as exc:
        # A spec, flag or run directory the library rejects: a usage error.
        print(f"covertjam {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
