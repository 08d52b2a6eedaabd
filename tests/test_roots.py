"""Monotone root finders: the scalar helper and its batched twin agree."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covertjam.roots import increasing_root, increasing_roots


def _cubic(c3, c2, c1, rhs):
    """P(c) - rhs for P(c) = ((c3 c + c2) c + c1) c, P' and a rounding floor.

    Works on floats and, element by element, on arrays.
    """
    def fn(c):
        lhs = ((c3 * c + c2) * c + c1) * c
        return lhs - rhs, (3.0 * c3 * c + 2.0 * c2) * c + c1, 1e-15 * rhs
    return fn


_CUBIC = st.tuples(st.floats(min_value=-3.0, max_value=3.0),
                   st.floats(min_value=-3.0, max_value=3.0),
                   st.floats(min_value=-3.0, max_value=3.0),
                   st.floats(min_value=-200.0, max_value=10.0),
                   st.floats(min_value=0.0, max_value=1.0))


@settings(deadline=None, max_examples=200)
@given(st.lists(_CUBIC, min_size=1, max_size=8))
# A root near 1e-200, as in the SCA dead band, reached from 0: Newton
# lands on the bracket's upper end, so geometric bisection walks down.
@example([(0.0, 0.0, 0.0, -200.0, 0.0)])
@example([(3.0, -3.0, -3.0, -200.0, 1.0), (-3.0, 3.0, -3.0, 5.0, 0.5)])
def test_scalar_and_batched_roots_are_bit_identical(cubics):
    # Each row: log10 of the positive coefficients and of the right-hand
    # side, and where the start lies between 0 and the cap that bounds
    # the root (the cap fast_varying.chi_given_tau starts from).
    c3, c2, c1, rhs = (10.0 ** np.array(v) for v in list(zip(*cubics))[:4])
    cap = np.minimum(np.cbrt(rhs / c3), rhs / c1)
    start = np.array([row[4] for row in cubics]) * cap
    fn = _cubic(c3, c2, c1, rhs)
    batched = increasing_roots(
        lambda c, rows: _cubic(c3[rows], c2[rows], c1[rows], rhs[rows])(c),
        start, 0.0, cap)
    for i, root in enumerate(batched):
        scalar = increasing_root(
            _cubic(*(float(v[i]) for v in (c3, c2, c1, rhs))),
            float(start[i]), 0.0, float(cap[i]))
        assert np.float64(scalar).tobytes() == root.tobytes()
    residual = fn(batched)[0]
    assert np.all(np.abs(residual) <= 1e-14 * rhs)
