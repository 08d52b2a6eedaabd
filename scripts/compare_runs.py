#!/usr/bin/env python3
"""Compare two trees written by scripts/reduced_runs.py, file by file.

Usage: python3 scripts/compare_runs.py A B

For each file under either tree, prints "identical", or for a CSV that
differs only in numbers the largest relative difference of a float cell
(with its column and row), or what else differs. Every audit.csv row
whose `passed` or `sum_error` cell differs is listed with both values.
Exits 0 when the trees differ at most in float cells and no audit
verdict flips, and 1 otherwise.
"""

import csv
import sys
from pathlib import Path


def _files(root: Path) -> set:
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}


def _read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _rel_diff(a: str, b: str):
    """|a - b| / max(|a|, |b|) of two float cells; None if either is not
    a number."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    if x == y:
        return 0.0
    return abs(x - y) / max(abs(x), abs(y))


def compare_csv(a: Path, b: Path) -> tuple:
    """(summary line, audit lines, ok) for two CSV files that differ."""
    rows_a, rows_b = _read_csv(a), _read_csv(b)
    if (not rows_a or not rows_b or rows_a[0] != rows_b[0]
            or len(rows_a) != len(rows_b)
            or any(len(r) != len(s) for r, s in zip(rows_a, rows_b))):
        return "header or shape differs", [], False
    header = rows_a[0]
    worst, where, text = 0.0, None, 0
    for i, (ra, rb) in enumerate(zip(rows_a[1:], rows_b[1:]), start=1):
        for col, x, y in zip(header, ra, rb):
            if x == y:
                continue
            d = _rel_diff(x, y)
            if d is None:
                text += 1
            elif d > worst:
                worst, where = d, (col, i)
    audit, flips = [], 0
    if a.name == "audit.csv":
        for i, (ra, rb) in enumerate(zip(rows_a[1:], rows_b[1:]), start=1):
            cells = [(col, x, y) for col, x, y in zip(header, ra, rb)
                     if col in ("passed", "sum_error") and x != y]
            flips += any(col == "passed" for col, _, _ in cells)
            audit += [f"    row {i}: {col} {x} -> {y}" for col, x, y in cells]
    parts = []
    if where is not None:
        parts.append(f"max rel diff {worst:.3g} ({where[0]}, row {where[1]})")
    if text:
        parts.append(f"{text} non-float cells differ")
    return ", ".join(parts) or "identical cells", audit, not (text or flips)


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    a, b = Path(argv[1]), Path(argv[2])
    files_a, files_b = _files(a), _files(b)
    ok = True
    for rel in sorted(files_a | files_b):
        if rel not in files_b or rel not in files_a:
            print(f"{rel}: only in {a if rel in files_a else b}")
            ok = False
            continue
        if (a / rel).read_bytes() == (b / rel).read_bytes():
            print(f"{rel}: identical")
            continue
        if rel.suffix != ".csv":
            print(f"{rel}: differs")
            ok = False
            continue
        summary, audit, same = compare_csv(a / rel, b / rel)
        print(f"{rel}: {summary}")
        for line in audit:
            print(line)
        ok &= same
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
