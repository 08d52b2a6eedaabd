"""Roots of increasing scalar functions by one algorithm, on floats or
element by element on arrays, with the same arithmetic and bits."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["increasing_root", "increasing_roots"]

_MAX_STEPS = 200
_TINY = math.ulp(0.0)


def increasing_root(fn, y, lo, hi):
    """Root of an increasing function on the bracket [lo, hi], from y.

    fn(y) returns (f, df, floor): the value, its derivative and the size
    of its rounding error; f = +inf marks a point above the root.
    Newton steps that leave the bracket become geometric bisections (with
    lo floored at the smallest subnormal), so roots near 1e-200 take a few
    dozen steps. Stops at the rounding floor |f| <= floor, or returns
    the lower end once the bracket is a few ulps wide or cannot be split.
    """
    for _ in range(_MAX_STEPS):
        f, df, floor = fn(y)
        if abs(f) <= floor:
            return y
        if f > 0.0:
            hi = y
        else:
            lo = y
        if df > 0.0:
            y = y - f / df
        if not lo < y < hi:
            y = math.sqrt(max(lo, _TINY)) * math.sqrt(hi)
        if hi - lo <= 1e-15 * hi or not lo < y < hi:
            return lo
    raise ArithmeticError("monotone root find did not converge")


def increasing_roots(fn, y, lo, hi):
    """`increasing_root` element by element over broadcast (y, lo, hi).

    fn(y, rows) gets the iterates of the rows still open and their flat
    indices, and returns arrays (f, df, floor) for those rows. Returns the
    roots as a flat array.
    """
    y, lo, hi = (np.array(v, float).ravel()
                 for v in np.broadcast_arrays(y, lo, hi))
    rows = np.arange(y.size)
    for _ in range(_MAX_STEPS):
        x = y[rows]
        f, df, floor = fn(x, rows)
        done = np.abs(f) <= floor
        above = f > 0.0
        a = np.where(above, lo[rows], x)
        b = np.where(above, x, hi[rows])
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(df > 0.0, x - f / df, x)
        out = ~((a < step) & (step < b))
        step[out] = np.sqrt(np.maximum(a[out], _TINY)) * np.sqrt(b[out])
        stuck = (b - a <= 1e-15 * b) | ~((a < step) & (step < b))
        y[rows] = np.where(done, x, np.where(stuck, a, step))
        lo[rows], hi[rows] = a, b
        rows = rows[~(done | stuck)]
        if rows.size == 0:
            return y
    raise ArithmeticError("monotone root find did not converge")
