"""The coset-tree algorithms against their all-pairs references.

Inputs cover Q_2, Q_3 and Q_5 with m in {1, 2} point coordinates and
n in {1, 2} value coordinates, mixed precision windows, zero and constant
values, domains of radius p (rad_exp = -1), tied values and weights, and
Hölder constants small enough to plant violations.  Every example is
derandomized, so the suite stays deterministic.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import pairwise_reference as ref
from qpcalc.extension import (EjDecomposition, SampleSet, WeightedSiteSet,
                              chebyshev_radius, decompose_Ej, extend_to_grid,
                              packing_check_many, verify_Ej)
from qpcalc.measure import CosetTree, GridFunction, enumerate_cosets, gap_val
from qpcalc.padic import Ball, PAdicNumber, PAdicVector, PadicError
from qpcalc.quotients import holder_scan

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)
EXPONENTS = st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(1, 3),
                             Fraction(2, 3)])


@st.composite
def scalars(draw, p, zero=True):
    """p^e * n with a window of 1..6 digits; zero when allowed."""
    if zero and draw(st.integers(0, 4)) == 0:
        return PAdicNumber.zero(p)
    n = draw(st.integers(1, p**4))
    e = draw(st.integers(-1, 2))
    return PAdicNumber.from_fraction(p, Fraction(n) * Fraction(p) ** e,
                                     prec=draw(st.integers(1, 6)))


@st.composite
def value_pool(draw, p, n):
    """One to five value vectors: a single one makes a constant function,
    and drawing from few makes ties.  Each coordinate is p^e * (b + p^s * t)
    around a shared b, with a window of 1..6 digits or zero, so that values
    agree on their low digits and differ where only some windows reach."""
    e = draw(st.integers(-1, 1))
    base = [draw(st.integers(0, p**3)) for _ in range(n)]
    pool = []
    for _ in range(draw(st.sampled_from([1, 2, 3, 5]))):
        coords = []
        for b in base:
            u = b + p ** draw(st.integers(0, 6)) * draw(st.integers(0, p))
            if u == 0 or draw(st.integers(0, 5)) == 0:
                coords.append(PAdicNumber.zero(p))
            else:
                coords.append(PAdicNumber.from_fraction(
                    p, u * Fraction(p) ** e, prec=draw(st.integers(1, 6))))
        pool.append(PAdicVector(coords))
    return pool


@st.composite
def grids(draw, max_points=81):
    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(1, 2))
    n = draw(st.integers(1, 2))
    k = draw(st.sampled_from([-1, 0, 1]))
    depth = draw(st.integers(1, max(d for d in range(1, 7)
                                    if p ** (d * m) <= max_points)))
    K = k + depth
    center = PAdicVector(
        PAdicNumber.from_fraction(p, Fraction(draw(st.integers(0, p**3)),
                                              draw(st.sampled_from([1, p]))))
        for _ in range(m))
    domain = Ball(center, k)
    pool = draw(value_pool(p, n))
    table = []
    for rep in enumerate_cosets(domain, K):
        # restamp each coordinate with a window of K..K+3 digits: the digits
        # of a canonical representative at and above K are known zeros
        rep = PAdicVector(
            c if c.is_zero() else
            PAdicNumber(p, c.val, c.unit, K + draw(st.integers(0, 3)) - c.val)
            for c in rep)
        table.append((rep, pool[draw(st.integers(0, len(pool) - 1))]))
    return GridFunction(domain, K, table)


@st.composite
def site_lists(draw, p, m):
    """Distinct sites clustered near 0 with mixed windows."""
    size = draw(st.integers(1, 14))
    sites = draw(st.lists(st.builds(PAdicVector, st.lists(
        scalars(p), min_size=m, max_size=m)), min_size=size, max_size=size))
    out, seen = [], set()
    for x in sites:
        key = tuple(c.as_fraction() for c in x)
        if key not in seen:
            seen.add(key)
            out.append(x)
    return out


@st.composite
def sample_sets(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(1, 2))
    n = draw(st.integers(1, 2))
    sites = draw(site_lists(p, m))
    pool = draw(value_pool(p, n))
    values = [pool[draw(st.integers(0, len(pool) - 1))] for _ in sites]
    C = draw(st.sampled_from([0, 1, p, p**2, Fraction(1, p), Fraction(2, 3)]))
    return SampleSet(list(zip(sites, values)), C, draw(EXPONENTS))


@given(st.data())
@SETTINGS
def test_gap_val_matches_pairwise(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    pool = data.draw(value_pool(p, data.draw(st.integers(1, 2))))
    vals = [(a - b).sup_norm() for i, a in enumerate(pool) for b in pool[i:]]
    v = gap_val(pool)
    assert max(vals) == (0 if v is None else Fraction(p) ** -v)


@given(grids(), EXPONENTS)
@SETTINGS
def test_holder_scan_matches_pairwise(f, r):
    # representatives distinct at the resolution split at some coset, so
    # holder_scan reads every pair off the splits
    assert CosetTree(f.reps).leaves() == []
    ratio, witness = ref.holder_scan(f, r)
    got = holder_scan(f, r)
    assert got.ratio == ratio
    assert got.witness == witness


@given(sample_sets(), st.sampled_from([0, 1, 3, 8]))
@settings(SETTINGS, max_examples=300)
def test_certify_matches_pairwise(S, budget):
    want = ref.certify(S, budget)
    got = S.certify(budget)
    assert got == want
    assert S.certified == want.ok


@given(st.data())
@SETTINGS
def test_chebyshev_matches_pairwise(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    m = data.draw(st.integers(1, 2))
    centers = data.draw(site_lists(p, m))
    # repeat some centers: equal centers are at distance 0
    centers += centers[:data.draw(st.integers(0, 2))]
    H = WeightedSiteSet([(z, data.draw(scalars(p, zero=False)))
                         for z in centers])
    r = data.draw(EXPONENTS)
    assert chebyshev_radius(H, r) == ref.chebyshev_radius(H, r)


@given(sample_sets(), st.data())
@SETTINGS
def test_extend_to_grid_matches_pairwise(S, data):
    p, m = S.p, S.m
    k = data.draw(st.sampled_from([-1, 0, 1]))
    center = PAdicVector(PAdicNumber.from_fraction(
        p, Fraction(data.draw(st.integers(0, p**2)), data.draw(
            st.sampled_from([1, p])))) for _ in range(m))
    domain = Ball(center, k)
    resolution = k + data.draw(st.integers(
        1, max(d for d in range(1, 5) if p ** (d * m) <= 81)))
    S.certified = True      # nearest-site lookup needs no Hölder bound
    got = extend_to_grid(S, domain, resolution)
    assert got.to_json() == ref.extend_to_grid(S, domain, resolution).to_json()


@given(grids(max_points=27), EXPONENTS,
       st.sampled_from([None, (-1, 2), (0, 5)]))
@SETTINGS
def test_decompose_Ej_matches_pairwise(f, r, bounds):
    j_range = None if bounds is None else range(*bounds)
    dec = decompose_Ej(f, r, j_range=j_range)
    assert (dec.classes, dec.unassigned) == ref.decompose_Ej(f, r, j_range)
    for budget in (0, 1, 8):
        assert verify_Ej(f, dec, budget) == ref.verify_Ej(f, dec, budget)
    # a decomposition putting every point in one class, so that violations
    # occur; repeated points share a leaf of the class's tree
    for j in (-1, 0, 1):
        for pts in (f.reps, f.reps + f.reps[:3]):
            one = EjDecomposition(classes=((j, tuple(pts)),), unassigned=(),
                                  K=f.resolution, r=Fraction(r))
            assert verify_Ej(f, one) == ref.verify_Ej(f, one)
    # two classes share the violation budget
    two = EjDecomposition(classes=((-1, tuple(f.reps[::2])),
                                   (-1, tuple(f.reps[1::2]))),
                          unassigned=(), K=f.resolution, r=Fraction(r))
    for budget in (1, 3):
        assert verify_Ej(f, two, budget) == ref.verify_Ej(f, two, budget)


@st.composite
def packing_cases(draw):
    """(G, h, b, alpha, beta, xs): up to six sites, some repeated, or
    distinct level-K cosets with gauge levels K..K+2, so that the balls are
    disjoint; a gauge of p^l or 2p^l at every site and query point, l in
    -1..4 elsewhere and -1..2 at a query point off G, rarely zero at one
    of them; and scales some of which break b*alpha < 1."""
    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(1, 2))
    if draw(st.booleans()):
        K = draw(st.integers(1, 2))
        grid = enumerate_cosets(Ball(PAdicVector.zero(p, m), 0), K)
        G = [grid[i] for i in sorted(set(draw(st.lists(
            st.integers(0, len(grid) - 1), min_size=1, max_size=6))))]
        levels = st.integers(K, K + 2)
    else:
        G = draw(site_lists(p, m))[:draw(st.integers(1, 6))]
        G += G[:draw(st.sampled_from([0, 0, 0, 1]))]
        levels = st.integers(-1, 4)
    xs = G[:draw(st.integers(0, len(G)))] + draw(site_lists(p, m))[:3]
    uniform = draw(st.booleans())
    table = {}
    for x in G + xs:
        if x not in table:
            l = 2 if uniform else draw(levels if x in G else st.integers(-1, 2))
            u = draw(st.sampled_from([1, 1, 2 % p or 1]))
            table[x] = PAdicNumber.from_fraction(
                p, u * Fraction(p) ** l, prec=draw(st.integers(1, 6)))
    if draw(st.integers(0, 9)) == 9:
        table[draw(st.sampled_from(G + xs))] = PAdicNumber.zero(p)
    b = draw(st.sampled_from([Fraction(1, p), Fraction(1, p * p),
                              Fraction(1, 2)]))
    alpha, beta = (draw(st.sampled_from([Fraction(1, p), 1, 1, p]))
                   for _ in range(2))
    return G, table.__getitem__, b, alpha, beta, xs


@given(packing_cases())
@settings(SETTINGS, max_examples=300)
def test_packing_matches_pairwise(case):
    """The first pair that meets or breaks b, and every G_x."""
    try:
        want = ref.packing_check_many(*case)
    except PadicError as exc:
        with pytest.raises(PadicError) as got:
            packing_check_many(*case)
        assert str(got.value) == str(exc)
        return
    assert packing_check_many(*case) == want


def test_packing_names_the_first_pair_that_meets():
    """Sites 0, 1, 1 + 5^2 and 5^2 with one gauge value, 5^-2, everywhere:
    both (0, 3) and (1, 2) meet, and (0, 3) comes first in (i, j) order."""
    G = [PAdicVector.from_ints(5, [n]) for n in (0, 1, 26, 25)]
    h = lambda y: PAdicNumber.from_int(5, 25)
    with pytest.raises(PadicError, match="sites 0 and 3 are not disjoint"):
        packing_check_many(G, h, Fraction(1, 25), 1, 1, [])
    with pytest.raises(PadicError, match="sites 0 and 3 are not disjoint"):
        ref.packing_check_many(G, h, Fraction(1, 25), 1, 1, [])


def test_packing_reaches_each_site_at_its_own_level():
    """Sites 0 and 5 with |h| = 5^-2 and 1 with |h| = 5^-4; beta = 5
    widens the first two balls to radius 5^-1.  x = 30 shares a level-2
    coset with 5 only, yet lies within 5^-1 of 0 too, so G_x = (0, 1)."""
    n = lambda k: PAdicNumber.from_int(5, k)
    G = [PAdicVector.from_ints(5, [y]) for y in (0, 5, 1)]
    gauge = {0: n(25), 5: n(25), 1: n(625), 30: n(625)}
    h = lambda y: gauge[int(y[0].as_fraction())]
    x = PAdicVector.from_ints(5, [30])
    got = packing_check_many(G, h, Fraction(1, 25), 1, 5, [x])
    assert got == ref.packing_check_many(G, h, Fraction(1, 25), 1, 5, [x])
    assert got[0].g_x == (0, 1)


def _z2_grid(K, values):
    """The grid on Z_2 at resolution K with value values[x] at the
    representative x."""
    reps = enumerate_cosets(Ball(PAdicVector.zero(2, 1), 0), K)
    return GridFunction(Ball(PAdicVector.zero(2, 1), 0), K,
                        [(x, values[int(x[0].as_fraction())]) for x in reps])


def _ej_class_of_zero(f):
    dec = decompose_Ej(f, 1, j_range=range(-1, 3))
    assert (dec.classes, dec.unassigned) == ref.decompose_Ej(f, 1, range(-1, 3))
    return next(j for j, pts in dec.classes if f.reps[0] in pts)


def test_decompose_Ej_counts_each_shell_once():
    """At z = 0 and j = -1 the ball B(0, 1) holds one bad point, 2, and
    B(0, 2^0) three, 2, 1 and 3: 3/8 < 1/2, so 0 lands in E_-1.  Counting
    2 again in the outer shell would give 4/8."""
    ints = {0: 0, 4: 0, 2: 1, 6: 0, 1: 1, 3: 1, 5: 0, 7: 0}
    f = _z2_grid(3, {x: PAdicVector.from_ints(2, [v]) for x, v in ints.items()})
    assert _ej_class_of_zero(f) == -1


def test_decompose_Ej_compares_short_values_pair_by_pair():
    """f(2) = 1 known mod 2 only is short of T = 2 at the distance 2^-1
    from 0, but still differs from f(0) = 0 there: 0 misses E_-1 and E_0."""
    one = PAdicNumber.from_int(2, 1, prec=1)
    f = _z2_grid(2, {0: PAdicVector.from_ints(2, [0]), 2: PAdicVector([one]),
                     1: PAdicVector.from_ints(2, [0]),
                     3: PAdicVector.from_ints(2, [0])})
    assert _ej_class_of_zero(f) == 1


def test_decompose_Ej_short_value_gap_at_T_is_not_bad():
    """f(0) = (1 known mod 2, 0) is short of T = 2; against f(2) = (1, 4)
    the subtraction observes the gap 4, of valuation T itself, so 2 is not
    bad and 0 lands in E_-1."""
    one = PAdicNumber.from_int(2, 1, prec=1)
    full = PAdicVector.from_ints(2, [1, 0])
    f = _z2_grid(2, {0: PAdicVector([one, PAdicNumber.zero(2)]),
                     2: PAdicVector.from_ints(2, [1, 4]), 1: full, 3: full})
    assert _ej_class_of_zero(f) == -1


def test_verify_Ej_keeps_leaf_pairs_closer_than_p_minus_j():
    """The class point 1 known mod 5 ends the windows at level 1, so 1, 6
    and 11 share a leaf.  6 and 11 are 5^-1 apart, not closer than 5^-2,
    so their gap 1/25 is no violation; 1 - 11 vanishes, so that one is."""
    K = 2
    domain = Ball(PAdicVector.zero(5, 1), 0)
    f = GridFunction(domain, K, [
        (x, PAdicVector([PAdicNumber.from_fraction(
            5, Fraction(1, 25) if x[0].as_fraction() == 11 else 0)]))
        for x in enumerate_cosets(domain, K)])
    pts = (PAdicVector([PAdicNumber.from_int(5, 1, prec=1)]),
           PAdicVector.from_ints(5, [6]), PAdicVector.from_ints(5, [11]))
    dec = EjDecomposition(classes=((2, pts),), unassigned=(), K=K,
                          r=Fraction(1))
    assert verify_Ej(f, dec) == ref.verify_Ej(f, dec)
    assert verify_Ej(f, dec) == (False, [(2, pts[0], pts[2])])
    # the second class finds the budget of one violation spent
    twice = EjDecomposition(classes=((2, pts), (2, pts)), unassigned=(), K=K,
                            r=Fraction(1))
    assert verify_Ej(f, twice, 1) == ref.verify_Ej(f, twice, 1) \
        == (False, [(2, pts[0], pts[2])])
    # at j = 1 the leaf pair 6, 11 lies exactly p^-j apart: still left out
    at_1 = EjDecomposition(classes=((1, pts),), unassigned=(), K=K,
                           r=Fraction(1))
    assert verify_Ej(f, at_1) == ref.verify_Ej(f, at_1) \
        == (False, [(1, pts[0], pts[2])])


def test_certify_sees_a_gap_at_the_last_window_digit():
    """With C = 0 every observed gap violates, down to the last digit of
    the widest window: 1 and 26 differ only at 5^2, 2 digits past 0."""
    S = SampleSet([(PAdicVector.from_ints(5, [x]),
                    PAdicVector([PAdicNumber.from_int(5, v, prec=3)]))
                   for x, v in ((0, 1), (1, 26), (2, 2))], 0, 1)
    assert S.certify() == ref.certify(S)
    assert [vio[:2] for vio in S.certify().violations] == [(0, 1), (0, 2),
                                                           (1, 2)]


def test_certify_compares_short_members_pair_by_pair():
    """Site 0 knows its first value coordinate mod 5 only; the violation
    sits in the second coordinate, at the largest violating valuation."""
    S = SampleSet([(PAdicVector.from_ints(5, [0]),
                    PAdicVector([PAdicNumber.from_int(5, 1, prec=1),
                                 PAdicNumber.zero(5)])),
                   (PAdicVector.from_ints(5, [1]),
                    PAdicVector.from_ints(5, [1, 5]))], Fraction(1, 25), 1)
    assert S.certify() == ref.certify(S)
    assert not S.certified


def test_gap_val_sees_past_a_short_window():
    """1 is known mod 5 only, so 1 - 6 and 1 - 11 vanish, but 6 - 11 does not."""
    pool = [PAdicVector([PAdicNumber.from_int(5, 1, prec=1)]),
            PAdicVector.from_ints(5, [6]), PAdicVector.from_ints(5, [11])]
    assert gap_val(pool) == 1


def test_coset_tree_levels_and_leaves():
    """Sites 1, 6 and 1 + 5^3 (window 2) in Z_5: 1 and 6 split at level 1;
    the third shares the level-2 leaf with 1 because its window ends there."""
    pts = [PAdicVector.from_ints(5, [1]), PAdicVector.from_ints(5, [6]),
           PAdicVector([PAdicNumber.from_int(5, 126, prec=2)])]
    tree = CosetTree(pts)
    assert (tree.lo, tree.hi) == (0, 2)
    assert [(L, members, children) for L, members, children in tree.splits] \
        == [(1, (0, 1, 2), [(0, 2), (1,)])]
    assert tree.leaves() == [(0, 2)]
    assert tree.ball(1, 2) == (1,)
    assert tree.ball(0, 0) == (0, 1, 2)
