"""Valuation sets counted by descent on the coset tree (measure._descend
deciding cosets with measure._Pieces): ap_limit's outside set and the
Stepanoff bad sets of ap_derivatives, against the per-level and per-point
loops of density_reference.py and against the enumeration and pair table
that the descent replaces where its rules apply.  Hypothesis runs
derandomized, so the suite stays deterministic."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import density_reference as ref
from qpcalc import measure, quotients
from qpcalc.funcs import SymbolicFunction, reach
from qpcalc.measure import ap_limit, descent_forms
from qpcalc.padic import (Ball, PAdicNumber, PAdicVector, PadicError,
                          ScaledBound, _make, rational_val)
from qpcalc.quotients import ap_derivatives, stepanoff_scan

SETTINGS = settings(derandomize=True, max_examples=150, deadline=None)


@st.composite
def sources(draw, p, m, js, res):
    """A polynomial with p in numerators and denominators, plus up to two
    indicators of radii about the ball's, all with constant denominators,
    as one or two components."""
    coef = st.sampled_from([1, 2, -3, p, -p, Fraction(1, p),
                            Fraction(3, p * p)])
    var = st.sampled_from([f"x{i}" for i in range(m)])
    terms = [f"({draw(coef)})*{draw(var)}*{draw(var)}*{draw(var)}",
             f"({draw(coef)})*{draw(var)}*{draw(var)}",
             f"({draw(coef)})*{draw(var)}", f"({draw(coef)})"]
    terms = draw(st.lists(st.sampled_from(terms), min_size=1, max_size=4,
                          unique=True))
    for _ in range(draw(st.integers(0, 2))):
        centre = ",".join(str(draw(st.integers(0, p ** 2))) for _ in range(m))
        k = draw(st.integers(js[0] - 1, res + 1))
        terms.append(f"({draw(coef)})*ch({centre};{k})")
    sources = ["+".join(terms)]
    if draw(st.booleans()):
        sources.append(draw(st.sampled_from(terms)))
    return SymbolicFunction.from_sources(p, sources, m=m)


@st.composite
def cases(draw):
    """(f, points sharing B(x, p^-j0), js, res, eps > 0): points known to
    F + res + 4, F the tolerance level, or a few digits past it, some with a
    coordinate 0, so that the descent decides them."""
    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(1, 2))
    budget = {2: 8, 3: 5, 5: 3}[p] // m
    j0 = draw(st.integers(-1, 2))
    res = j0 + draw(st.integers(2, max(2, budget)))
    js = [j0, j0 + 1, res]
    eps = Fraction(p) ** draw(st.integers(-3, 1)) * \
        draw(st.sampled_from([1, Fraction(5, 7)]))
    reach = res + max(0, ScaledBound(p, eps).F) + 4

    def point():
        coords = []
        for _ in range(m):
            if draw(st.integers(0, 4)) == 0:
                coords.append(PAdicNumber.zero(p))
                continue
            val = draw(st.integers(-1, 3))
            prec = max(1, reach - val) + draw(st.integers(0, 3))
            coords.append(_make(p, val, draw(st.integers(1, p ** prec - 1)),
                                val + prec))
        return PAdicVector(coords)

    x = point()
    pts = [x]
    for _ in range(draw(st.integers(0, 2))):
        shift = [PAdicNumber.from_int(p, draw(st.integers(1, p ** 2)),
                                      prec=reach + 4)
                 * Fraction(p) ** j0 for _ in range(m)]
        pts.append(x + PAdicVector(shift))
    return draw(sources(p, m, js, res)), pts, js, res, eps


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.data())
def test_reach_bounds_the_windowed_value_by_the_local_form(data):
    """At a point of the ball, f's windowed value and its local form's
    value have valuation >= V and agree modulo p^A, A at most the value's
    window, with constants known to a few digits only, so that sums and
    products collapse to the zero sentinel and divisions shorten."""
    draw = data.draw
    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(1, 2))
    var = st.sampled_from([f"x{i}" for i in range(m)])
    const = st.sampled_from(["1", "3", str(p), f"1/{p}", f"3/{p * p}",
                             f"{p}*{p}*{p}"])
    atom = st.one_of(var, const, var.map(lambda v: f"({v}-{v})"))
    source = "+".join(draw(st.lists(
        st.lists(atom, min_size=1, max_size=3).map("*".join),
        min_size=1, max_size=3)))
    if draw(st.booleans()):
        source = f"({source})/({draw(const)})"
    if m == 1 and draw(st.booleans()):
        source = f"comp({source};x0+{draw(const)})"
    if draw(st.booleans()):
        centre = ",".join(str(draw(st.integers(0, p))) for _ in range(m))
        source += f"+{draw(const)}*ch({centre};{draw(st.integers(0, 2))})"
    f = SymbolicFunction.from_sources(p, [source], m=m,
                                      prec=draw(st.integers(1, 5)))
    vals = [draw(st.integers(-1, 2)) for _ in range(m)]
    wins = [v + draw(st.integers(1, 6)) for v in vals]
    z = PAdicVector([
        PAdicNumber.zero(p) if draw(st.booleans()) and w > 2 else
        _make(p, v + draw(st.integers(0, 1)), draw(st.integers(1, p ** 6)), w)
        for v, w in zip(vals, wins)])
    found = reach(f, vals, wins)
    assume(found is not None)
    try:
        _check_reach(f, found[0][0], z)
    except PadicError:
        assume(False)       # an indicator the point's window leaves open


def _check_reach(f, bound, z):
    (num, _), = f.localize(z)
    V, A = bound
    p, walked = f.p, f(z)[0]
    q = num.evaluate_fraction([c.as_fraction() for c in z.coords])
    w = walked.as_fraction()
    assert walked.abs_window() >= A
    assert q == 0 or rational_val(q, p) >= V
    assert w == 0 or rational_val(w, p) >= V
    assert q == w or rational_val(q - w, p) >= A


@pytest.mark.parametrize("source, bound", [
    ("x0/5", (-1, 0)),                  # the divisor's one digit
    ("x0*(1/25)", (-2, -1)),            # the constant's one digit
    ("x0*x0*x0/125", (-3, -2)),
    ("(x0-6)*125*(1/625)", (-1, 0))])   # x0 - 6 collapses to the sentinel
def test_reach_is_attained_where_each_rule_binds(source, bound):
    """At x0 = 6, known to 6 digits, with constants known to one digit
    (6 is then 1), the walked and the exact value part at the digit A.
    In the last source the walked value is the exact zero and the local
    form's is 1."""
    f = SymbolicFunction.from_sources(5, [source], m=1, prec=1)
    (got,), _ = reach(f, [0], [6])
    assert got == bound
    z = PAdicVector([_make(5, 0, 6, 6)])
    _check_reach(f, got, z)
    (num, _), = f.localize(z)
    assert rational_val(num.evaluate_fraction([6])
                        - f(z)[0].as_fraction(), 5) == bound[1]


def _counting(monkeypatch) -> list:
    """The visit total that each descent returns, one entry each: a
    Stepanoff descent adds its visits to those of the points before it
    in its ball."""
    visits = []
    real = measure._descend

    def counted(*args, **kwargs):
        hits, n = real(*args, **kwargs)
        visits.append(n)
        return hits, n

    monkeypatch.setattr(measure, "_descend", counted)
    monkeypatch.setattr(quotients, "_descend", counted)
    return visits


@SETTINGS
@given(cases(), st.integers(0, 3))
def test_ap_limit_by_descent_matches_enumeration(case, shift):
    f, pts, js, res, eps = case
    x, p = pts[0], f.p
    candidate = PAdicVector([PAdicNumber.from_fraction(
        p, c.as_fraction() + shift, prec=24) for c in f(x).coords])
    F = ScaledBound(p, eps).F
    assert descent_forms(f, x, js[0], res, F) is not None
    with pytest.MonkeyPatch.context() as mp:
        visits = _counting(mp)
        new = ap_limit(f, x, candidate, eps, js, resolution=res)
        assert len(visits) == 1
    assert new == ref.ap_limit(f, x, candidate, eps, js, resolution=res)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measure, "descent_forms", lambda *a: None)
        assert new == ap_limit(f, x, candidate, eps, js, resolution=res)


@SETTINGS
@given(cases())
def test_bad_sets_by_descent_match_the_table(case):
    f, pts, js, res, eps = case
    with pytest.MonkeyPatch.context() as mp:
        visits = _counting(mp)
        new = ap_derivatives(f, pts, js, eps, resolution=res)
        assert len(visits) == len(pts)
    assert new == [ref.ap_derivative(f, x, js, eps, resolution=res)
                   for x in pts]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quotients, "descent_forms", lambda *a: None)
        assert new == ap_derivatives(f, pts, js, eps, resolution=res)


@pytest.mark.parametrize("source, poly, visits", [
    ("x0*x0-6", lambda z: z * z - 6, 76),
    ("x0*x0*x0+2*x0+3", lambda z: z ** 3 + 2 * z + 3, 96),
    ("x0*x0+2*x0-4", lambda z: z * z + 2 * z - 4, 6),
    ("x0*x0", lambda z: z * z, 21)])
def test_valuation_sets_visit_few_cosets(monkeypatch, source, poly, visits):
    """{z in Z_5 : v(P(z)) >= 8} at resolution 8, 390,625 cosets: a simple
    root is found digit by digit (Hensel's lemma), x^2 + 2x - 4 has no
    root mod 5, and x^2 leaves the coset 5^4 Z_5 whole."""
    seen = _counting(monkeypatch)
    f = SymbolicFunction.from_sources(5, [source])
    zero = PAdicVector.zero(5, 1)
    _, est = ap_limit(f, zero, PAdicVector([PAdicNumber.zero(5)]),
                      Fraction(1, 5 ** 8), (0, 1, 2), resolution=8)
    assert seen == [visits]
    inside = sum(1 for z in range(5 ** 8) if poly(z) % 5 ** 8 == 0)
    assert est.ratios[0] == (0, 5 ** 8 - inside, 5 ** 8)


def test_the_scan_of_a_product_in_Z5_squared_counts_few_cosets(monkeypatch):
    """x0*x1 at eps = 1/25, one point in each level-1 ball of 5^8
    cosets: per point, the shell at level 1 splits into 24 cosets that
    one evaluation each decides, and B(x, 5^-2) is wholly good."""
    seen = _counting(monkeypatch)
    f = SymbolicFunction.from_sources(5, ["x0*x1"], m=2)
    scan = stepanoff_scan(f, Ball(PAdicVector.zero(5, 2), 0), 1,
                          Fraction(1, 25))
    assert (scan.good, scan.total) == (25, 25)
    assert seen == [26] * 25
