"""The decompose report path: grids derived by with_values write the same
JSON as grids built from their pairs, decompose_series names net values by
(val, unit) exactly as the Fraction-keyed form in decompose_reference.py
grouped them, and a decompose whose residual is nonzero reports it.
Every hypothesis example is derandomized."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import decompose_reference as ref
from qpcalc.cli import main
from qpcalc.measure import GridFunction, decompose_default_ys, decompose_series
from qpcalc.padic import Ball, PAdicNumber, PAdicVector, PadicError

SETTINGS = settings(derandomize=True, max_examples=100, deadline=None)


@st.composite
def values(draw, p):
    """p^e * n, e in -1..1, with a window of 1..6 digits; or zero."""
    if draw(st.integers(0, 5)) == 0:
        return PAdicNumber.zero(p)
    n = draw(st.integers(1, p**3))
    e = draw(st.integers(-1, 1))
    return PAdicNumber.from_fraction(p, Fraction(n) * Fraction(p) ** e,
                                     prec=draw(st.integers(1, 6)))


@st.composite
def step_functions(draw):
    """A scalar GridFunction of at most 64 cosets whose values come from a
    palette of a few value objects, so tables repeat objects as decompose's
    indicator tables do."""
    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(1, 2))
    k = draw(st.integers(-1, 1))
    center = PAdicVector.from_ints(p, [draw(st.integers(0, p**2))
                                       for _ in range(m)], prec=8)
    depth = draw(st.integers(1, {2: 3, 3: 2, 5: 1}[p] if m == 2
                             else {2: 5, 3: 3, 5: 2}[p]))
    domain = Ball(center, k)
    palette = [PAdicVector([draw(values(p))])
               for _ in range(draw(st.integers(2, 6)))]
    rng = draw(st.randoms(use_true_random=False))
    return GridFunction.from_callable(domain, k + depth,
                                      lambda r: rng.choice(palette))


@given(step_functions(), st.data())
@SETTINGS
def test_with_values_json_equals_a_fresh_grid(f, data):
    p = f.p
    if data.draw(st.booleans()):
        f.to_json()                     # rows built before the sibling
    new = [PAdicVector([data.draw(values(p))]) for _ in f.reps]
    sibling = f.with_values(new)
    fresh = GridFunction(f.domain, f.resolution, zip(f.reps, new))
    assert sibling.to_json() == fresh.to_json()
    assert json.dumps(sibling.to_json()) == json.dumps(fresh.to_json())
    # the base grid is unchanged by its sibling's rows
    again = GridFunction(f.domain, f.resolution, zip(f.reps, f.values))
    assert f.to_json() == again.to_json()


def outcome(decompose, f, ys, tol_exp):
    try:
        terms = decompose(f, ys, tol_exp)
    except PadicError as exc:
        return "error", str(exc)
    return [(y, a.values) for y, a in terms]


@given(step_functions(), st.data())
@SETTINGS
def test_decompose_series_matches_fraction_keys(f, data):
    """Mixed valuations and windows, nets deep enough and too shallow, and
    floors above the least valuation."""
    p = f.p
    vals = [v[0].val for v in f.values if not v[0].is_zero()]
    low = min(vals, default=0)
    shift = data.draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
    wrong = shift > 0
    val_floor = low + shift
    depth = data.draw(st.integers(2, {2: 5, 3: 3, 5: 2}[p]))
    tol_exp = val_floor + data.draw(st.integers(1, depth + wrong))
    ys = decompose_default_ys(p, val_floor, depth)
    got = outcome(decompose_series, f, ys, tol_exp)
    assert got == outcome(ref.decompose_series, f, ys, tol_exp)


@pytest.mark.parametrize("f, resolution, tol_exp, line, residual", [
    ("x0", "3", "2", "24 terms, max residual 1/25 (tolerance 1/25)", "1/25"),
    ("x0/5+x0*x0", "2", "1", "24 terms, max residual 1/5 (tolerance 1/5)",
     "1/5")])
def test_decompose_reports_nonzero_residual(capsys, tmp_path, f, resolution,
                                            tol_exp, line, residual):
    path = tmp_path / "dec.json"
    code = main(["decompose", "--p", "5", "--f", f, "--domain", "ball(0;0)",
                 "--resolution", resolution, "--tol-exp", tol_exp,
                 "--out", str(path)])
    assert code == 0
    assert capsys.readouterr().out == line + "\n"
    assert json.loads(path.read_text())["residual"] == residual
