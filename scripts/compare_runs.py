#!/usr/bin/env python3
"""Compare two trees written by scripts/reduced_runs.py, file by file.

Usage: python3 scripts/compare_runs.py A B

For each file under either tree, prints "identical", or for a CSV that
differs only in numbers the largest relative difference of a float cell
and of an element of a ';'-joined vector cell (such as chi or gamma),
each with its column and row, or what else differs. Where the CSV has
`method` or `sweep_value` columns, that row is also named by its cells
there, since one column (fig2's `objective`) can hold several curves.
Integer columns (counts, indices, seeds, N_t, ...) must match exactly,
and each mismatch is listed. Every audit.csv row whose `passed` or
`sum_error` cell differs is listed with both values. When one CSV's
header is the other's plus trailing columns, the shared columns are
compared and the added or dropped ones are named. Exits 0 when the
trees differ at most in float cells, vector elements and added trailing
columns, and 1 otherwise: on a changed integer or text cell, a flipped
audit verdict, a changed vector length, a dropped or reordered column, a
changed row count, or a file present on one side only.
"""

import csv
import math
import sys
from pathlib import Path

# Columns whose cells are integers: compared as text, never as floats.
INTEGER_COLUMNS = frozenset({
    "point_index", "scenario_index", "scenario_seed", "iteration", "K",
    "M", "N", "L", "N_d", "N_t", "trials", "n_ok", "n_failed"})

# Columns whose cells name the row of a reported largest difference.
LABEL_COLUMNS = ("method", "sweep_value")


def _files(root: Path) -> set:
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}


def _read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _rel_diff(a: str, b: str):
    """|a - b| / max(|a|, |b|) of two finite float cells; None if either
    is not a finite number."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    if not (math.isfinite(x) and math.isfinite(y)):
        return None
    if x == y:
        return 0.0
    return abs(x - y) / max(abs(x), abs(y))


def _vector_rel_diff(a: str, b: str):
    """Largest _rel_diff over the elements of two ';'-joined cells; None
    if their lengths differ or an element is not a finite number."""
    xs, ys = a.split(";"), b.split(";")
    if len(xs) != len(ys):
        return None
    diffs = [_rel_diff(x, y) for x, y in zip(xs, ys)]
    return None if None in diffs else max(diffs)


def compare_csv(a: Path, b: Path) -> tuple:
    """(summary line, detail lines, ok) for two CSV files that differ."""
    rows_a, rows_b = _read_csv(a), _read_csv(b)
    if not rows_a or not rows_b or len(rows_a) != len(rows_b):
        return "header or shape differs", [], False
    # Columns past the shorter header are added (in b) or dropped (from a);
    # zip below compares the shared ones.
    extra = len(rows_b[0]) - len(rows_a[0])
    header = rows_a[0][:len(rows_a[0]) + min(extra, 0)]
    if (rows_b[0][:len(header)] != header
            or any(len(s) - len(r) != extra for r, s in zip(rows_a, rows_b))):
        return "header or shape differs", [], False
    worst = {"float": (0.0, None), "vector": (0.0, None)}
    text, details, flips = 0, [], 0
    for i, (ra, rb) in enumerate(zip(rows_a[1:], rows_b[1:]), start=1):
        for col, x, y in zip(header, ra, rb):
            if x == y:
                continue
            if col in INTEGER_COLUMNS:
                details.append(f"    row {i}: {col} {x} -> {y}")
                continue
            kind = "vector" if ";" in x or ";" in y else "float"
            d = (_vector_rel_diff if kind == "vector" else _rel_diff)(x, y)
            if d is None:
                text += 1
            elif d > worst[kind][0] or worst[kind][1] is None:
                worst[kind] = (d, (col, i, ra))
    integer = len(details)
    if a.name == "audit.csv":
        for i, (ra, rb) in enumerate(zip(rows_a[1:], rows_b[1:]), start=1):
            cells = [(col, x, y) for col, x, y in zip(header, ra, rb)
                     if col in ("passed", "sum_error") and x != y]
            flips += any(col == "passed" for col, _, _ in cells)
            details += [f"    row {i}: {col} {x} -> {y}"
                        for col, x, y in cells]
    parts = []
    for kind, label in (("float", "max rel diff"),
                        ("vector", "vector cells max rel diff")):
        d, where = worst[kind]
        if where is not None:
            col, i, row = where
            named = " ".join(f"{c}={row[header.index(c)]}"
                             for c in LABEL_COLUMNS if c in header)
            parts.append(f"{label} {d:.3g} ({col}, row {i})"
                         + (f" at {named}" if named else ""))
    if integer:
        parts.append(f"{integer} integer cells differ")
    if text:
        parts.append(f"{text} non-float cells differ")
    summary = ", ".join(parts) or "identical cells"
    if extra:
        change, longer = ("added", rows_b[0]) if extra > 0 else \
            ("dropped", rows_a[0])
        summary += f"; columns {change}: " + ", ".join(longer[len(header):])
    return summary, details, not (integer or text or flips or extra < 0)


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
        summary, details, same = compare_csv(a / rel, b / rel)
        print(f"{rel}: {summary}")
        for line in details:
            print(line)
        ok &= same
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
