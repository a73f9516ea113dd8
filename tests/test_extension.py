"""Lipschitz extension machinery: certification, Chebyshev radius,
nearest-point extension exactness, packing bounds, regularity classes."""

import random
from fractions import Fraction

import pytest

from norm_reference import ppow_le_scaled
from qpcalc.extension import (
    ChebyshevResult,
    EjDecomposition,
    SampleSet,
    WeightedSiteSet,
    chebyshev_feasible,
    chebyshev_radius,
    decompose_Ej,
    extend_to_grid,
    nearest_point,
    packing_check,
    verify_Ej,
)
from qpcalc.measure import GridFunction, enumerate_cosets
from qpcalc.padic import (
    Ball,
    PAdicNumber,
    PAdicVector,
    PadicError,
    PPow,
)

P = 5
PREC = 24


def num(n, p=P):
    return PAdicNumber.from_int(p, n, prec=PREC)


def vec(*ns, p=P):
    return PAdicVector.from_ints(p, ns, prec=PREC)


def wset(*pairs, p=P):
    return WeightedSiteSet([(vec(*z, p=p), num(x, p=p)) for z, x in pairs])


# ---------------------------------------------------------------------------
# sample-set certification
# ---------------------------------------------------------------------------

def test_certify_accepts_true_holder_data():
    # f(x) = x on two sites, C = 1, r = 1: a 1-Lipschitz sample.
    s = SampleSet([(vec(0), vec(0)), (vec(1), vec(1)), (vec(5), vec(5))],
                  C=1, r=1)
    report = s.certify()
    assert report.ok and s.certified
    assert report.pairs_checked == 3


def test_certify_rejects_steep_pair():
    # values jump by a unit across a distance of 1/5: needs C >= 5.
    s = SampleSet([(vec(0), vec(0)), (vec(5), vec(1))], C=1, r=1)
    report = s.certify()
    assert not report.ok and not s.certified
    i, j, gap, allowed = report.violations[0]
    assert (i, j) == (0, 1)
    assert gap.as_fraction() == 1 and allowed.as_fraction() == Fraction(1, 5)


def test_certify_fractional_exponent():
    # distance 1/25, gap 1/5 = (1/25)^(1/2): tight at C = 1, r = 1/2.
    s = SampleSet([(vec(0), vec(0)), (vec(25), vec(5))],
                  C=1, r=Fraction(1, 2))
    assert s.certify().ok
    s2 = SampleSet([(vec(0), vec(0)), (vec(25), vec(1))],
                   C=1, r=Fraction(1, 2))
    assert not s2.certify().ok


def test_sample_set_rejects_duplicate_sites():
    with pytest.raises(PadicError):
        SampleSet([(vec(3), vec(0)), (vec(3), vec(1))], C=1, r=1)


def test_sample_set_duplicates_are_equal_values_whatever_their_windows():
    """Two sites are one when their values are equal: 3 known to 1 and to
    3 digits, or two exact zeros; 3 and 3*5 differ."""
    def site(*texts):
        return PAdicVector.from_json(list(texts))
    for a, b in [(site("3e0@5", "0@5"), site("3,0,0e0@5", "0@5")),
                 (site("0@5"), site("0@5"))]:
        with pytest.raises(PadicError, match="duplicate site"):
            SampleSet([(a, vec(0)), (b, vec(1))], C=1, r=1)
    assert len(SampleSet([(site("3e0@5"), vec(0)), (site("3e1@5"), vec(1))],
                         C=1, r=1).points) == 2


def test_sample_set_json_round_trip():
    s = SampleSet([(vec(0), vec(7)), (vec(1), vec(2))],
                  C=Fraction(3, 2), r=Fraction(1, 2))
    t = SampleSet.from_json(s.to_json())
    assert t.C == Fraction(3, 2) and t.r == Fraction(1, 2)
    assert [tuple(c.as_fraction() for c in site.coords)
            for site, _ in t.points] == [(0,), (1,)]
    assert t.certify().ok == s.certify().ok


# ---------------------------------------------------------------------------
# Chebyshev radius
# ---------------------------------------------------------------------------

def test_chebyshev_singleton():
    H = wset(((3,), 1))
    res = chebyshev_radius(H, 1)
    assert res.zero_radius and res.c.exp is None
    assert res.q.coords[0].as_fraction() == 3


def test_chebyshev_two_unit_sites():
    # centers 0 and 1, unit weights, r = 1: c = 1 attained at either center.
    H = wset(((0,), 1), ((1,), 1))
    res = chebyshev_radius(H, 1)
    assert res.c.as_fraction() == 1
    assert res.q.coords[0].as_fraction() == 0
    assert res.tight  # at least one constraint met with equality
    assert chebyshev_feasible(H, 1, res.q, res.c)


def test_chebyshev_shrinks_with_cluster():
    # all centers inside a radius-1/25 ball, unit weights: c <= 5^-2.
    H = wset(((0,), 1), ((25,), 1), ((50,), 1))
    res = chebyshev_radius(H, 1)
    assert res.c <= PPow(P, Fraction(-2))
    assert chebyshev_feasible(H, 1, res.q, res.c)


def test_chebyshev_weight_sensitivity():
    # |z0-z1| = 1 with weight norms 1 and 1/5: the level is still 1 (set by
    # the larger weight), and q sits at the light site, whose constraint
    # ball is the smaller of the two.
    H = wset(((0,), 1), ((1,), 5))
    res = chebyshev_radius(H, 1)
    assert res.c.as_fraction() == 1
    assert res.q.coords[0].as_fraction() == 1
    assert chebyshev_feasible(H, 1, res.q, res.c)


def _brute_force_min_level(H, r, resolution=3):
    """Oracle: scan a coset grid for the smallest candidate level whose
    constraint set is nonempty; candidate levels from the pairwise formula."""
    p = H.p
    m = H.pairs[0][0].dim
    grid = enumerate_cosets(Ball(PAdicVector.zero(p, m), 0), resolution)
    weights = [PPow.from_norm(p, x.norm()) for _, x in H.pairs]
    cands = {PPow.zero(p)}
    for i in range(len(H.pairs)):
        for j in range(i + 1, len(H.pairs)):
            d = PPow.from_norm(p, (H.pairs[i][0] - H.pairs[j][0]).sup_norm())
            if d.exp is not None:
                cands.add(d / max(weights[i], weights[j]).pow_frac(r))
    for level in sorted(cands):
        for y in grid:
            if chebyshev_feasible(H, r, y, level):
                return level, y
    return None, None


@pytest.mark.parametrize("r", [Fraction(1), Fraction(1, 2)])
def test_chebyshev_matches_brute_force(r):
    rng = random.Random(901)
    for _ in range(25):
        k = rng.randint(2, 5)
        pairs = []
        seen = set()
        while len(pairs) < k:
            z = rng.randrange(125)
            if z in seen:
                continue
            seen.add(z)
            x = rng.choice([1, 2, 5, 25])
            pairs.append(((z,), x))
        H = wset(*pairs)
        res = chebyshev_radius(H, r)
        level, _ = _brute_force_min_level(H, r)
        assert res.c == level
        assert chebyshev_feasible(H, r, res.q, res.c)
        # no grid point is feasible at any strictly smaller candidate level
        assert not res.zero_radius or level.exp is None


def test_chebyshev_solution_set_is_coset():
    # X_c is a single ball: every grid point feasible at c lies within the
    # tightest constraint radius of q.
    H = wset(((0,), 1), ((1,), 1), ((7,), 5))
    res = chebyshev_radius(H, 1)
    grid = enumerate_cosets(Ball(PAdicVector.zero(P, 1), 0), 3)
    feas = [y for y in grid if chebyshev_feasible(H, 1, y, res.c)]
    assert feas
    radius = min(PPow.from_norm(P, x.norm()).pow_frac(Fraction(1)) * res.c
                 for _, x in H.pairs)
    for y in feas:
        assert PPow.from_norm(P, (y - res.q).sup_norm()) <= radius


# ---------------------------------------------------------------------------
# nearest point and extension
# ---------------------------------------------------------------------------

def test_nearest_point_member():
    T = [vec(0), vec(1), vec(7)]
    v0, delta = nearest_point(T, vec(7))
    assert v0 is T[2] and delta == 0


def test_nearest_point_example():
    T = [vec(0), vec(1)]
    v0, delta = nearest_point(T, vec(5))
    assert v0 is T[0] and delta == Fraction(1, 5)


def test_nearest_point_tie_takes_first():
    T = [vec(0), vec(25)]
    v0, delta = nearest_point(T, vec(5))
    assert v0 is T[0] and delta == Fraction(1, 5)


def test_extend_requires_certification():
    s = SampleSet([(vec(0), vec(0)), (vec(1), vec(1))], C=1, r=1)
    domain = Ball(PAdicVector.zero(P, 1), 0)
    with pytest.raises(PadicError):
        extend_to_grid(s, domain, 2)
    s.certify()
    out = extend_to_grid(s, domain, 2).evaluate(vec(26))  # nearest site is 1
    assert out.coords[0].as_fraction() == 1


def _holder_ok(p, C, r, du, dv):
    return ppow_le_scaled(PPow.from_norm(p, dv), C,
                          PPow.from_norm(p, du).pow_frac(r))


@pytest.mark.parametrize("r", [Fraction(1), Fraction(1, 2)])
def test_extension_preserves_constant_exactly(r):
    # Kirszbraun exactness on a full depth-2 grid: the extended function
    # obeys the *same* (C, r) on every extended-site and extended-extended
    # pair, with no tolerance.
    rng = random.Random(317)
    sites = rng.sample(range(125), 6)
    values = {z: rng.randrange(25) * 5 for z in sites}  # gaps in 5Z
    C = Fraction(1)
    pts = [(vec(z), vec(values[z])) for z in sites]
    s = SampleSet(pts, C=C, r=r)
    if not s.certify().ok:
        # thin the sample greedily until certified; keeps the test honest
        keep = [pts[0]]
        for cand in pts[1:]:
            trial = SampleSet(keep + [cand], C=C, r=r)
            if trial.certify().ok:
                keep.append(cand)
        s = SampleSet(keep, C=C, r=r)
        assert s.certify().ok
    g = extend_to_grid(s, Ball(PAdicVector.zero(P, 1), 0), 2)
    grid, ext = g.reps, g.values
    for i in range(len(grid)):
        for site, value in s.points:
            du = (grid[i] - site).sup_norm()
            dv = (ext[i] - value).sup_norm()
            assert _holder_ok(P, C, r, du, dv)
        for j in range(i + 1, len(grid)):
            du = (grid[i] - grid[j]).sup_norm()
            dv = (ext[i] - ext[j]).sup_norm()
            assert _holder_ok(P, C, r, du, dv)


def test_extend_to_grid_interpolates():
    s = SampleSet([(vec(0), vec(3)), (vec(1), vec(4))], C=1, r=1)
    s.certify()
    g = extend_to_grid(s, Ball(PAdicVector.zero(P, 1), 0), 2)
    assert g.evaluate(vec(0)).coords[0].as_fraction() == 3
    assert g.evaluate(vec(6)).coords[0].as_fraction() == 4  # nearer to 1


# ---------------------------------------------------------------------------
# packing bounds
# ---------------------------------------------------------------------------

def test_packing_trivial_family():
    # well-separated constant-gauge sites at unit scale: G_x is {x} alone.
    G = [vec(0, 0), vec(1, 0), vec(0, 1), vec(1, 1)]
    h = lambda y: num(5)  # |h| = 1/5 everywhere; separation 1 > 1/5
    res = packing_check(G, h, b=Fraction(1, 25), alpha=1, beta=1, x=G[0])
    assert res.ratio_ok and res.card_ok
    assert res.g_x == (0,)
    assert res.card_bound >= 1


def test_packing_collects_close_scaled_neighbours():
    # alpha = beta = 5: scaled balls of radius 1 meet across separation 1.
    G = [vec(0), vec(1), vec(2)]
    h = lambda y: num(5)
    res = packing_check(G, h, b=Fraction(1, 25), alpha=5, beta=5, x=G[0])
    assert res.g_x == (0, 1, 2)
    assert res.ratio_ok and res.card_ok


def test_packing_at_non_member_point():
    # x need not belong to G; here its scaled ball misses every site.
    G = [vec(0), vec(1)]
    h = lambda y: num(5)
    res = packing_check(G, h, b=Fraction(1, 25), alpha=1, beta=1, x=vec(3))
    assert res.g_x == () and res.ratio_ok and res.card_ok


def test_packing_small_scales_report_cardinality_witness():
    # with alpha, beta < 1 the cardinality bound drops below 1 and any
    # member point witnesses its failure; that is reported, not raised.
    G = [vec(0), vec(1)]
    h = lambda y: num(5)
    res = packing_check(G, h, b=Fraction(1, 25), alpha=Fraction(1, 5),
                        beta=Fraction(1, 5), x=G[0])
    assert res.g_x == (0,)
    assert res.ratio_ok and not res.card_ok
    assert res.card_bound < 1
    assert any("cardinality" in v for v in res.violations)


def test_packing_rejects_overlapping_balls():
    G = [vec(0), vec(5)]  # distance 1/5 equals the gauge radius
    h = lambda y: num(5)
    with pytest.raises(PadicError, match="not disjoint"):
        packing_check(G, h, b=Fraction(1, 25), alpha=1, beta=1, x=G[0])


def test_packing_rejects_bad_lipschitz_bound():
    G = [vec(0), vec(1)]  # separation 1, gauge norms 1/25 and 1/5
    h = lambda y: num(25) if y.coords[0].is_zero() else num(5)
    with pytest.raises(PadicError, match="Lipschitz"):
        packing_check(G, h, b=Fraction(1, 25), alpha=1, beta=1, x=G[0])


def test_packing_rejects_large_scale_products():
    G = [vec(0), vec(1)]
    h = lambda y: num(5)
    with pytest.raises(PadicError, match="b\\*alpha"):
        packing_check(G, h, b=Fraction(1, 2), alpha=3, beta=1, x=G[0])


def test_packing_cardinality_bound_value():
    # m = 1, b = 1/25, alpha = beta = 5 so b*alpha = 1/5:
    # gamma = max(5, 5*(6/5)/(4/5)) = 15/2, bound = (15/2)*(3/2) = 45/4.
    G = [vec(0), vec(1), vec(2), vec(3)]
    h = lambda y: num(5)
    res = packing_check(G, h, b=Fraction(1, 25), alpha=5, beta=5, x=G[1])
    assert res.g_x == (0, 1, 2, 3)
    assert res.card_bound == Fraction(45, 4)
    assert res.card_ok
    lo, hi = res.ratio_bounds
    assert lo < 1 < hi


# ---------------------------------------------------------------------------
# regularity classes
# ---------------------------------------------------------------------------

def _grid_fn(expr_val, resolution=3):
    dom = Ball(PAdicVector.zero(P, 1), 0)
    return GridFunction.from_callable(
        dom, resolution, lambda x: PAdicVector((expr_val(x.coords[0]),)))


def test_decompose_identity_lands_in_lowest_class():
    # f(x) = x is 1-Lipschitz: every point satisfies the j = 0 condition.
    g = _grid_fn(lambda c: c, resolution=2)
    dec = decompose_Ej(g, 1)
    assert not dec.unassigned
    assert [j for j, _ in dec.classes] == [0]
    ok, violations = verify_Ej(g, dec)
    assert ok, violations


def test_decompose_two_regime_function():
    # gentle slope on one coset, steep unit jumps at fine scale elsewhere:
    # the steep points need a larger j.
    def val(c):
        fr = c.as_fraction()
        if fr % 5 == 0:
            return PAdicNumber.from_fraction(P, fr * 25, prec=PREC)
        return c
    g = _grid_fn(val, resolution=3)
    dec = decompose_Ej(g, 1)
    assert not dec.unassigned
    ok, violations = verify_Ej(g, dec)
    assert ok, violations
    js = [j for j, _ in dec.classes]
    assert js == sorted(js)


def test_decompose_assigns_least_level():
    # constant function: bad sets are empty at every scale, so everything
    # lands at the least offered j.
    g = _grid_fn(lambda c: num(7), resolution=2)
    dec = decompose_Ej(g, Fraction(1, 2))
    assert [j for j, _ in dec.classes] == [0]
    assert sum(len(pts) for _, pts in dec.classes) == 25


def test_decompose_reports_unassigned_when_budget_too_small():
    # a violent function at the finest scale with a j-range capped at 0:
    # points whose half-ball condition fails stay unassigned.
    def val(c):
        fr = c.as_fraction()
        return PAdicNumber.from_fraction(P, fr * 625 % 3125, prec=PREC) \
            if fr % 5 == 0 else c
    g = _grid_fn(val, resolution=2)
    dec = decompose_Ej(g, 1, j_range=range(0, 1))
    total = sum(len(pts) for _, pts in dec.classes) + len(dec.unassigned)
    assert total == 25
    ok, violations = verify_Ej(g, dec)
    assert ok, violations


def test_ej_json_shape():
    g = _grid_fn(lambda c: c, resolution=2)
    dec = decompose_Ej(g, 1)
    obj = dec.to_json()
    assert obj["K"] == 2 and obj["r"] == [1, 1]
    assert obj["classes"][0]["j"] == 0
