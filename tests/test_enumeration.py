"""measure.enumerate_cosets against the two-path enumeration it replaced
(enumeration_reference.py): every representative, coordinate by
coordinate, with its valuation, unit and window, in the same order.
Hypothesis runs derandomized, so the suite stays deterministic."""

from hypothesis import given, settings
from hypothesis import strategies as st

from qpcalc.measure import enumerate_cosets
from qpcalc.padic import Ball, PAdicNumber, PAdicVector, _make

import enumeration_reference as ref


def _shape(reps):
    return [[(c.val, c.unit, c.prec) for c in x.coords] for x in reps]


@st.composite
def coordinates(draw, p):
    """Zero, or p^val * unit known to `window` digits: fractional when
    val < 0, and short when the window ends before the resolution."""
    if draw(st.integers(0, 4)) == 0:
        return PAdicNumber.zero(p)
    val = draw(st.integers(-3, 3))
    window = draw(st.integers(1, 6))
    return _make(p, val, draw(st.integers(1, p ** window - 1)), val + window)


@st.composite
def balls(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    m = draw(st.integers(1, 2))
    centre = PAdicVector([draw(coordinates(p)) for _ in range(m)])
    k = draw(st.integers(-2, 3))
    depth = draw(st.integers(0, {2: 4, 3: 3, 5: 2, 7: 2}[p] // m))
    return Ball(centre, k), k + depth


@settings(derandomize=True, max_examples=400, deadline=None)
@given(balls())
def test_enumeration_matches_the_two_path_reference(ball_and_resolution):
    b, resolution = ball_and_resolution
    assert _shape(enumerate_cosets(b, resolution)) == \
        _shape(ref.enumerate_cosets(b, resolution))
