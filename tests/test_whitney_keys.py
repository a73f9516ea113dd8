"""The key-based Whitney glue and jet algebra against the references in
whitney_reference.py.

Inputs cover Q_2, Q_3 and Q_5 in one and two coordinates: balls of radius
p^1 down to p^-4, nested and disjoint, centres and points with negative
valuations, zero coordinates and windows of one to eight digits, so that
some questions lie past the windows and must be settled by subtraction.
Every example is derandomized, so the suite stays deterministic.
"""

import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import whitney_reference as ref
from norm_reference import floor_level
import qpcalc.whitney as whitney
from qpcalc.extension import SampleSet, extend_to_grid, holder_violations
from qpcalc.funcs import MultiPoly, SymbolicFunction, as_polynomials
from qpcalc.measure import CosetTree, coset_key, enumerate_cosets
from qpcalc.padic import Ball, PAdicNumber, PAdicVector, PadicError
from qpcalc.quotients import phin_poly
from qpcalc.whitney import (JetField, RadiusFunction, disjoint_ball_family,
                            jet_compat_modulus, jet_field_from_function,
                            whitney_extend)

SETTINGS = settings(derandomize=True, max_examples=80, deadline=None)


@st.composite
def scalars(draw, p, zero=True, window=(1, 8)):
    """p^e * n, e in -2..3, with a window of `window` digits; or zero."""
    if zero and draw(st.integers(0, 5)) == 0:
        return PAdicNumber.zero(p)
    n = draw(st.integers(1, p**5))
    e = draw(st.integers(-2, 3))
    return PAdicNumber.from_fraction(p, Fraction(n) * Fraction(p) ** e,
                                     prec=draw(st.integers(*window)))


@st.composite
def near(draw, p, center):
    """center + p^j * u with j in -2..5: points at every distance from
    center, including inside balls around it; or an unrelated point."""
    if draw(st.integers(0, 3)) == 0:
        return PAdicVector([draw(scalars(p)) for _ in center.coords])
    j = draw(st.integers(-2, 5))
    coords = []
    for c in center.coords:
        u = draw(st.integers(0, p**3))
        shift = PAdicNumber.from_fraction(p, u * Fraction(p) ** j, prec=9)
        coords.append(c + shift if draw(st.booleans())
                      else c + PAdicNumber.zero(p))
    return PAdicVector(coords)


@st.composite
def unions(draw):
    """(p, A): one to three balls of radius p^1 .. p^-4, some nested in an
    earlier one."""
    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(1, 2))
    balls = []
    for _ in range(draw(st.integers(1, 3))):
        if balls and draw(st.booleans()):
            center = draw(near(p, balls[-1].center))
        else:
            center = PAdicVector([draw(scalars(p)) for _ in range(m)])
        balls.append(Ball(center, draw(st.integers(-1, 4))))
    return p, tuple(balls)


@st.composite
def union_and_point(draw):
    p, A = draw(unions())
    x = draw(near(p, A[draw(st.integers(0, len(A) - 1))].center))
    return A, x


# ---------------------------------------------------------------------------
# distance to the closed set
# ---------------------------------------------------------------------------

@SETTINGS
@given(union_and_point())
def test_distance_exponent_matches_subtraction(case):
    A, x = case
    h = RadiusFunction(A, A[0].p)
    expected = ref.dist_exp(A, x)
    assert h.dist_exp(x) == expected
    assert h.dist_exp(x) == expected            # asked again, the same
    assert whitney.dist_exp(A, x) == expected
    if expected is None:
        with pytest.raises(PadicError):
            h.exponent(x)
    else:
        assert h.support_exp(x) == 2 + max(0, expected) + 1


def test_distance_on_nested_balls_and_short_windows():
    """Nested balls, a negative valuation and a short window."""
    p = 5
    v = lambda *ns: PAdicVector.from_ints(p, ns, prec=10)
    A = (Ball(v(0, 0), 2), Ball(v(25, 0), 4), Ball(v(3, 1), 1),
         Ball(v(1, 2), 3))
    h = RadiusFunction(A, p)
    x_neg = PAdicVector([PAdicNumber.from_fraction(p, Fraction(1, 5)),
                         PAdicNumber.zero(p)])
    short = PAdicVector([PAdicNumber.from_int(p, 5, prec=1),
                         PAdicNumber.zero(p)])     # known mod 5^2 only
    for x, d in [(v(25, 0), None), (v(5, 0), 1), (v(0, 5), 1),
                 (v(8, 1), None), (v(1, 1), 0), (v(50, 0), None),
                 (v(25 + 625, 0), None), (v(1, 2 + 25), 2)]:
        assert h.dist_exp(x) == d
    assert h.dist_exp(x_neg) == -1            # below every radius of A
    assert h.dist_exp(short) == 1             # its window ends before 4


# ---------------------------------------------------------------------------
# coset keys and the tree query
# ---------------------------------------------------------------------------

@SETTINGS
@given(st.data())
def test_coset_key_matches_truncation(data):
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    x = PAdicVector([data.draw(scalars(p, window=(1, 12)))
                     for _ in range(data.draw(st.integers(1, 3)))])
    for L in range(-4, 10):
        assert coset_key(x, L) == ref.coset_key(x, L)


@st.composite
def reps_and_query(draw):
    """Points distinct at `resolution`, some with short windows, and a
    query near one of them."""
    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(1, 2))
    resolution = draw(st.integers(0, 5))
    points, keys = [], set()
    for _ in range(draw(st.integers(1, 8))):
        base = points[-1] if points and draw(st.booleans()) else \
            PAdicVector([draw(scalars(p)) for _ in range(m)])
        z = draw(near(p, base))
        if coset_key(z, resolution) not in keys:
            keys.add(coset_key(z, resolution))
            points.append(z)
    y = draw(near(p, points[draw(st.integers(0, len(points) - 1))]))
    return resolution, points, y


def around(points) -> tuple:
    """A closed set of one ball about 0 that holds every point: a jet
    field's representatives lie in its set, which these tests never read."""
    p, m = points[0].p, points[0].dim
    lo = min([0] + [c.val for x in points for c in x.coords
                    if c.val is not None])
    return (Ball(PAdicVector.zero(p, m), lo),)


@SETTINGS
@given(reps_and_query())
def test_nearest_rep_matches_scan(case):
    resolution, points, y = case
    zero = (MultiPoly.zero(points[0].dim),)
    J = JetField(k=0, A=around(points), resolution=resolution,
                 jets=tuple((z, zero) for z in points))
    expected = ref.nearest_rep_index(points, y)
    assert J.nearest_rep_index(y) == expected
    assert CosetTree(points).nearest(y, resolution) == expected


def test_nearest_rep_past_a_window_is_left_to_subtraction():
    """y = 1 known mod 5 is at observed distance 0 from both 6 and 1, so
    the first, 6, is nearest; the key of y at level 3 would pick 1."""
    p = 5
    y = PAdicVector([PAdicNumber.from_int(p, 1, prec=1)])
    points = [PAdicVector.from_ints(p, [6]), PAdicVector.from_ints(p, [1])]
    J = JetField(k=0, A=around(points), resolution=3,
                 jets=tuple((z, (MultiPoly.zero(1),)) for z in points))
    assert ref.nearest_rep_index(points, y) == 0
    assert J.nearest_rep_index(y) == 0
    tree = CosetTree(points)
    assert tree.nearest(y, 3) == 0
    assert tree.locate(y, 3)[-1] == (1, (0, 1))   # y's window ends the walk


def test_nearest_outside_the_level_lo_coset_is_the_first_point():
    """1/5 shares no coset of level lo = 0 with 6 and 1, both at distance
    5 from it: the path is empty and the first point is nearest."""
    p = 5
    y = PAdicVector([PAdicNumber.from_fraction(p, Fraction(1, 5))])
    points = [PAdicVector.from_ints(p, [6]), PAdicVector.from_ints(p, [1])]
    tree = CosetTree(points)
    assert tree.locate(y, 3) == []
    assert tree.nearest(y, 3) == ref.nearest_rep_index(points, y) == 0


@contextmanager
def time_limit(seconds):
    def expire(*_):
        raise TimeoutError(f"no answer within {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_nearest_in_a_set_of_one_exact_zero_ends():
    """The exact zero has no window to end the walk, so the tree's hi
    ends it, whatever the cut; extend_to_grid's grid holds the exact zero
    too."""
    p = 5
    zero = PAdicVector.zero(p, 2)
    with time_limit(10):
        assert CosetTree([zero]).nearest(zero, 10**9) == 0
        three = PAdicVector.from_ints(p, [3])
        S = SampleSet([(zero, three)], 0, 1)
        assert S.certify().ok
        g = extend_to_grid(S, Ball(zero, 0), 2)
    assert g.reps[0] == zero
    assert all(v is three for v in g.values)


@SETTINGS
@given(reps_and_query())
def test_locate_and_ball_match_subtraction(case):
    """Each group on the query's path holds exactly the points the
    subtraction puts within p^-L of it; a path that ends above the
    windows and the cut ends where no point is closer; nearest is the
    scan's answer at every cut; ball is the same set for a point of the
    tree, past the windows too."""
    resolution, points, y = case
    tree = CosetTree(points)

    def within(x, L):
        return tuple(i for i, z in enumerate(points)
                     if (v := (x - z).val) is None or v >= L)

    for hi in (resolution - 2, resolution, resolution + 3):
        path = tree.locate(y, hi)
        for L, members in path:
            assert members == within(y, L)
        limit = min(hi, tree.hi, *(c.abs_window() for c in y.coords))
        last = path[-1][0] if path else min(tree.lo, limit) - 1
        if last < limit:        # no point is closer
            assert within(y, last + 1) == ()
        assert tree.nearest(y, hi) == ref.nearest_rep_index(points, y)
    for i in range(len(points)):
        for L in range(tree.lo - 1, tree.hi + 3):
            assert tree.ball(i, L) == within(points[i], L)


# ---------------------------------------------------------------------------
# polynomial composition
# ---------------------------------------------------------------------------

COEFFS = st.builds(Fraction, st.integers(-9, 9),
                   st.sampled_from([1, 1, 2, 3, 5]))


@st.composite
def polys(draw, m, max_terms=5, max_degree=3):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        e = tuple(draw(st.integers(0, max_degree)) for _ in range(m))
        terms[e] = draw(COEFFS)
    return MultiPoly(m, terms)


@SETTINGS
@given(st.data())
def test_substitute_and_recenter_match_naive_composition(data):
    m = data.draw(st.integers(1, 3))
    new_m = data.draw(st.integers(1, 3))
    q = data.draw(polys(m))
    args = [data.draw(polys(new_m, max_terms=3, max_degree=2))
            for _ in range(m)]
    assert q.substitute(args) == ref.substitute(q, args)
    center = [data.draw(COEFFS) for _ in range(m)]
    assert q.recenter(center) == ref.recenter(q, center)


# ---------------------------------------------------------------------------
# the glue at every domain representative
# ---------------------------------------------------------------------------

def _finest(p, m, k, cosets=400):
    """The finest resolution at which a level-k ball has <= cosets cosets."""
    res = k
    while p ** (m * (res + 1 - k)) <= cosets:
        res += 1
    return res


@st.composite
def glue_cases(draw):
    """A polynomial of degree <= 3 on one to three balls, glued over a
    domain of radius p^1 .. p^-1 centred off 0 at any resolution up to 400
    cosets: fine enough for every support or too coarse, with A covering,
    meeting or missing the domain."""
    p, m = draw(st.sampled_from([(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)]))
    k = draw(st.integers(-1, 1))
    finest = _finest(p, m, k)
    jet_res = draw(st.integers(1, 2))
    dc = [draw(st.integers(0, p**3)) for _ in range(m)]
    # balls near the domain centre, anywhere, or at the centre (A may
    # cover the domain), so that psi picks the first representative of
    # the nearer
    balls = []
    for _ in range(draw(st.integers(1, 3))):
        where = draw(st.integers(0, 2))
        if where == 0:
            center = [a + p ** draw(st.integers(0, 3)) * draw(
                st.integers(1, p**2)) for a in dc]
        elif where == 1:
            center = [draw(st.integers(0, p**3)) for _ in range(m)]
        else:
            center = dc
        balls.append(Ball(PAdicVector.from_ints(p, center, prec=12),
                          draw(st.integers(1, jet_res))))
    A = tuple(balls)
    # the finest first, where supports fit
    resolution = finest - draw(st.integers(0, finest - k))
    # a cubic part makes the jets, truncated at degree 2, differ by point
    terms = [f"{draw(st.integers(-4, 4))}*x{draw(st.integers(0, m - 1))}"
             f"*x{draw(st.integers(0, m - 1))}" for _ in range(2)]
    terms.append(f"{draw(st.sampled_from([-2, -1, 1, 2]))}*x0*x0*x{m - 1}")
    source = "+".join([str(draw(st.integers(0, 9)))] + terms
                      + [f"{draw(st.integers(-4, 4))}*x0"])
    f = SymbolicFunction.from_sources(p, [source], m=m, prec=24)
    domain = Ball(PAdicVector.from_ints(p, dc, prec=12), k)
    # off-grid queries: deep digits below a representative or a centre of
    # A, and points outside the domain
    queries = []
    for _ in range(10):
        base = draw(st.sampled_from([domain.center] + [b.center for b in A]))
        j = draw(st.integers(k - 2, resolution + 4))
        queries.append(base + PAdicVector([
            PAdicNumber.from_fraction(
                p, Fraction(p) ** j * draw(st.integers(0, p**2)), prec=12)
            for _ in range(m)]))
    return f, A, jet_res, domain, resolution, queries


def _value_or_error(g, x):
    try:
        return g(x)
    except PadicError:
        return PadicError


@settings(derandomize=True, max_examples=150, deadline=None)
@given(glue_cases())
def test_glue_matches_reference_at_every_representative(case):
    """The nearest-jet glue gives the reference's value, or its error, at
    every representative of the domain and at off-grid points; it refuses
    the glue where the enumerated family is refused; and the family built
    over the enumerated domain partitions it, with the partition-sum form
    equal to the glue."""
    f, A, jet_res, domain, resolution, queries = case
    J = jet_field_from_function(f, A, jet_res, k=1)
    polys = as_polynomials(f)
    for z, jet in J.jets:
        center = [c.as_fraction() for c in z.coords]
        expected = tuple(
            ref.recenter(ref.recenter(q, center).truncate_total_degree(2),
                         [-c for c in center]) for q in polys)
        assert jet == expected
    try:
        expected = ref.glue(J, domain, resolution)
    except PadicError:
        with pytest.raises(PadicError):
            whitney_extend(J, domain, resolution)
        return
    g = whitney_extend(J, domain, resolution)
    reps = enumerate_cosets(domain, resolution)
    fam = disjoint_ball_family(
        [y for y in reps if ref.dist_exp(J.A, y) is not None],
        RadiusFunction(J.A, J.p), resolution)
    # each admitted support holds no other admitted site
    for i, y in enumerate(fam.sites):
        assert fam.support_indices(y) == [i]
    for x in reps:
        assert g(x) == expected(x)
        assert ref.evaluate_sum_form(J, fam, x) == g(x)
    for x in queries:
        assert _value_or_error(g, x) == _value_or_error(expected, x)


# ---------------------------------------------------------------------------
# the gauge check and the compatibility modulus against their pair loops
# ---------------------------------------------------------------------------

class TableGauge:
    """A gauge read from a table, with Lipschitz constant claim b."""

    def __init__(self, table, b):
        self.table, self.b = table, b

    def __call__(self, x):
        return self.table[x]


@SETTINGS
@given(reps_and_query(), st.data())
def test_gauge_check_matches_pairwise(case, data):
    """Gauges of one to three values, so that pairs break b, on points
    with mixed windows, one of them sometimes repeated."""
    _, points, y = case
    p = y.p
    points = points + [y] + points[:data.draw(st.integers(0, 1))]
    pool = [data.draw(scalars(p, zero=False))
            for _ in range(data.draw(st.integers(1, 3)))]
    table = {}
    for x in points:
        table.setdefault(x, pool[data.draw(st.integers(0, len(pool) - 1))])
    h = TableGauge(table, data.draw(st.sampled_from(
        [Fraction(1, p * p), Fraction(1, p), 1, p])))
    tree = CosetTree(points)
    found = holder_violations(tree, [PAdicVector([h(x)]) for x in tree.points],
                              h.b, 1, 1)
    witness = (points[found[0][0]], points[found[0][1]]) if found else None
    assert (not found, witness) == ref.lipschitz_gauge_check(h, points)


@SETTINGS
@given(reps_and_query(), st.data())
def test_modulus_matches_class_pairs(case, data):
    """Jets drawn from a pool of one to three, so that classes repeat, at
    representatives with mixed windows; delta from 0 to p^2, powers of p
    and not."""
    resolution, points, y = case
    p, m = y.p, y.dim
    n = data.draw(st.integers(1, 2))
    pool = [tuple(data.draw(polys(m, max_terms=3, max_degree=2))
                  for _ in range(n))
            for _ in range(data.draw(st.integers(1, 3)))]
    J = JetField(k=data.draw(st.integers(0, 2)), A=around(points),
                 resolution=resolution,
                 jets=tuple((z, pool[data.draw(st.integers(0, len(pool) - 1))])
                            for z in points))
    for delta in (Fraction(3, p ** 2), *(
            Fraction(p) ** -s for s in range(-2, 6))):
        assert jet_compat_modulus(J, floor_level(delta, p)) == \
            ref.jet_compat_modulus(J, delta)


@SETTINGS
@given(st.data())
def test_quotient_bound_matches_the_subset_sum(data):
    """The bound read off phin_poly, one substitution for every point,
    bounds the order-j quotient as the alternating sum over the 2^j
    increment subsets does: j <= 3, zeta <= 2, points with negative
    valuations, zero coordinates and short windows.  Order 0 is the Gauss
    norm, as in jet_compat_modulus."""
    p = data.draw(st.sampled_from([2, 3, 5]))
    m = data.draw(st.integers(1, 2))
    Q = data.draw(polys(m, max_terms=4, max_degree=3))
    z = PAdicVector([data.draw(scalars(p)) for _ in range(m)])
    j, zeta = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 2))
    bound = whitney._quotient_bound(phin_poly(Q, j), j, z, zeta) if j \
        else whitney._gauss_bound(Q, p)
    assert bound == ref.quotient_bound(Q, z, j, zeta)
