"""Whitney gluing: radius function, support family, partition of unity,
jets, the glued extension, and the quotient-match verification."""

import random
from fractions import Fraction
from functools import lru_cache

import pytest

import whitney_reference as ref
from qpcalc.extension import holder_violations
from qpcalc.funcs import MultiPoly, SymbolicFunction
from qpcalc.measure import CosetTree, GridFunction, enumerate_cosets
from qpcalc.padic import Ball, PAdicNumber, PAdicVector, PadicError, vdp_compare, Order
from qpcalc import whitney
from qpcalc.quotients import QuotientPoint, phin
from qpcalc.whitney import (
    JetField,
    PartitionFamily,
    RadiusFunction,
    WhitneyExtension,
    disjoint_ball_family,
    dist_exp,
    family_packing_reports,
    jet_compat_modulus,
    jet_field_from_function,
    sample_quotient_points,
    verify_whitney,
    whitney_extend,
)

P = 5
PREC = 24


def num(n, p=P):
    return PAdicNumber.from_int(p, n, prec=PREC)


def vec(*ns, p=P):
    return PAdicVector.from_ints(p, ns, prec=PREC)


def fn(*sources, p=P, m=None):
    return SymbolicFunction.from_sources(p, list(sources), m=m, prec=PREC)


def two_coset_A():
    """Two disjoint radius-1/5 cosets in Z_5^2; dist(x, A) = 1 off A."""
    return (Ball(vec(0, 0), 1), Ball(vec(2, 3), 1))


# ---------------------------------------------------------------------------
# distance and radius function
# ---------------------------------------------------------------------------

def test_dist_inside_is_zero():
    A = two_coset_A()
    assert dist_exp(A, vec(0, 5)) is None      # inside the first coset
    assert dist_exp(A, vec(7, 3)) is None      # inside the second


def test_dist_point_set():
    # A = {0} realized as a tiny ball; distance to x is |x| = p^-dist_exp.
    A = (Ball(vec(0), 6),)
    assert dist_exp(A, vec(5)) == 1
    assert dist_exp(A, vec(3)) == 0


def test_dist_two_cosets_in_line():
    A = (Ball(vec(0), 2), Ball(vec(3), 2))
    assert dist_exp(A, vec(1)) == 0             # min(|1-0|, |1-3|) = 1
    assert dist_exp(A, vec(25)) is None
    assert dist_exp(A, vec(5)) == 1             # distance 1/5


def test_radius_function_values():
    A = (Ball(vec(0), 6),)
    h = RadiusFunction(A, P)
    assert h(vec(3)).norm() == Fraction(1, 25)           # dist 1, capped
    assert h(vec(5)).norm() == Fraction(1, 125)          # dist 1/5
    with pytest.raises(PadicError):
        h(vec(0))


def test_radius_function_is_gauge_lipschitz():
    A = two_coset_A()
    h = RadiusFunction(A, P)
    dom = Ball(PAdicVector.zero(P, 2), 0)
    pts = [y for y in enumerate_cosets(dom, 2)
           if dist_exp(A, y) is not None]
    tree = CosetTree(pts[:40])
    # (C, r) = (b, 1): |h(x) - h(y)| <= b|x - y| on every pair
    assert holder_violations(tree, [PAdicVector([h(x)]) for x in tree.points],
                             h.b, 1, 1) == []


def test_validate_constants():
    """The gluing constants (s0, s1, s2) meet the construction's
    inequalities."""
    s0, s1, s2 = whitney.DEFAULT_CONSTANTS
    assert s0 >= 1 and s1 <= 0 and s2 >= -1
    assert abs(s1) + 1 < s0
    assert s0 + s2 >= 0


# ---------------------------------------------------------------------------
# support family and partition of unity
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _standard_family(resolution=3):
    A = two_coset_A()
    h = RadiusFunction(A, P)
    dom = Ball(PAdicVector.zero(P, 2), 0)
    reps = [y for y in enumerate_cosets(dom, resolution)
            if dist_exp(A, y) is not None]
    return A, h, reps, disjoint_ball_family(reps, h, resolution)


@lru_cache(maxsize=None)
def _glued(source, k):
    """Jet field + glued extension for a global polynomial on the two-coset
    geometry at resolution 3 (shared across tests; nothing mutates them)."""
    f = fn(source, m=2)
    J = jet_field_from_function(f, two_coset_A(), resolution=3, k=k)
    g = whitney_extend(J, Ball(PAdicVector.zero(P, 2), 0), 3)
    return f, J, g


def test_family_covers_and_is_disjoint():
    A, h, reps, fam = _standard_family()
    # uniform |h| = 5^-2 means supports are radius-5^-3 cosets: one site per
    # res-3 coset of W (23 res-1 cosets x 625 each), disjoint by construction.
    assert len(fam.sites) == 23 * 625
    def radius(y):          # of the support ball B(y, p^-e(y))
        return Fraction(P) ** -h.support_exp(y)

    for i in range(0, len(fam.sites), 37):
        for j in range(i + 1, min(i + 5, len(fam.sites))):
            yi, yj = fam.sites[i], fam.sites[j]
            assert (yi - yj).sup_norm() > max(radius(yi), radius(yj))
    for y in reps[::11]:
        fam.site_index_for(y)   # exactly one support


def test_partition_sums_to_one():
    _, _, reps, fam = _standard_family()
    for x in reps[::7]:
        w = fam.weights(x)
        assert sum(v for _, v in w) == 1


def test_partition_rejects_points_of_A():
    A, h, reps, fam = _standard_family()
    with pytest.raises(PadicError):
        fam.site_index_for(vec(0, 0))


def test_family_resolution_validation():
    A = two_coset_A()
    h = RadiusFunction(A, P)
    dom = Ball(PAdicVector.zero(P, 2), 0)
    reps = [y for y in enumerate_cosets(dom, 2)
            if dist_exp(A, y) is not None]
    with pytest.raises(PadicError, match="resolution"):
        disjoint_ball_family(reps, h, 2)   # supports need K >= 3


def test_single_coset_family_is_single_site():
    # W one coset with support radius equal to its own: first rep wins.
    A = (Ball(vec(0), 1),)
    h = RadiusFunction(A, P)
    coset = Ball(vec(1), 1)
    reps = enumerate_cosets(coset, 3)
    fam = disjoint_ball_family(reps, h, 3)
    # |h| = 5^-2 on all of W, supports radius 5^-3: one site per res-3 coset
    assert len(fam.sites) == 25
    assert fam.sites[0] is reps[0]


def test_family_refuses_two_sites_with_one_support():
    """Two sites sharing their support key would hide each other from the
    partition certificate, so the family refuses the second."""
    A = (Ball(vec(0), 1),)
    h = RadiusFunction(A, P)
    reps = enumerate_cosets(Ball(vec(1), 1), 4)
    assert h.support_exp(reps[0]) == h.support_exp(reps[1]) == 3
    assert PartitionFamily([reps[0]], h).support_indices(reps[1]) == [0]
    with pytest.raises(PadicError, match="site 1 repeats the support"):
        PartitionFamily([reps[0], reps[1]], h)


def test_family_packing_bounds():
    _, _, reps, fam = _standard_family()
    res, = family_packing_reports(fam, reps[:1])
    assert res.ratio_ok and res.card_ok
    assert len(res.g_x) == 1
    batch = family_packing_reports(fam, reps[:10])
    assert all(r.ratio_ok and r.card_ok for r in batch)


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------

def test_jet_of_affine_is_itself():
    f = fn("3*x0+2")
    z = vec(7)
    polys = f.jet(z, 1)
    assert polys[0] == MultiPoly(1, {(1,): Fraction(3), (0,): Fraction(2)})


def test_jet_of_square_reproduces_function():
    f = fn("x0*x0")
    z = vec(4)
    polys = f.jet(z, 2)   # degree 2 keeps everything
    assert polys[0] == MultiPoly(1, {(2,): Fraction(1)})


def test_jet_of_cube_truncates():
    # degree-2 truncation about z: z^3 + 3z^2(y-z) + 3z(y-z)^2
    f = fn("x0*x0*x0")
    z = vec(2)
    polys = f.jet(z, 2)
    y = MultiPoly.coord(1, 0)
    w = y - MultiPoly.const(1, 2)
    expect = MultiPoly.const(1, 8) + w * Fraction(12) + w * w * Fraction(6)
    assert polys[0] == expect
    # diagonal value matches f(z)
    val = polys[0].evaluate_fraction([Fraction(2)])
    assert val == 8


def test_jet_exposed_truncation_degree():
    f = fn("x0*x0*x0")
    z = vec(2)
    polys = f.jet(z, 1)
    w = MultiPoly.coord(1, 0) - MultiPoly.const(1, 2)
    assert polys[0] == MultiPoly.const(1, 8) + w * Fraction(12)


def test_jet_limit_route_matches_polynomial_route():
    # a function with a ball indicator multiplied in stays constant near z,
    # so its jet agrees with the plain polynomial jet there.
    f_poly = fn("x0*x0+3*x0")
    f_mixed = fn("x0*x0+3*x0+ch(4;1)")   # indicator of B(4,1/5): 0 near z=1
    z = vec(1)
    a = f_poly.jet(z, 2)
    b = f_mixed.jet(z, 2)
    assert a[0] == b[0]


def test_jet_field_build_and_json():
    A = two_coset_A()
    f = fn("x0*x1", m=2)
    J = jet_field_from_function(f, A, resolution=2, k=1)
    assert len(J.jets) == 2 * 5 * 5
    z, polys = J.jets[0]
    val = J.evaluate_jet(polys, z)
    assert (val - f(z)).sup_norm() == 0
    K = JetField.from_json(J.to_json())
    assert K.k == J.k and len(K.jets) == len(J.jets)
    z2, polys2 = K.jets[0]
    assert (z2 - z).sup_norm() == 0
    assert polys2[0] == polys[0]


def test_jet_field_refuses_two_jets_in_one_coset():
    """0 and 5 share their resolution-1 coset: the later jet once
    answered for it, although a built field keeps the first.  A is Z_5,
    so that 1 lies in it too."""
    field = {"k": 0, "resolution": 1,
             "A": [{"center": ["0@5"], "rad_exp": 0}],
             "jets": [[["0@5"], [[[[0], "1/1"]]]],
                      [["1e1@5"], [[[[0], "2/1"]]]]]}
    with pytest.raises(PadicError, match="duplicate coset"):
        JetField.from_json(field)
    field["jets"][1][0] = ["1e0@5"]
    assert len(JetField.from_json(field).jets) == 2


def test_jet_field_adds_the_coefficients_of_a_repeated_term():
    field = {"k": 1, "resolution": 1,
             "A": [{"center": ["0@5"], "rad_exp": 1}],
             "jets": [[["0@5"], [[[[1], "1/2"], [[0], "3/1"], [[1], "1/3"]]]]]}
    _, (poly,) = JetField.from_json(field).jets[0]
    assert poly.terms == {(0,): 3, (1,): Fraction(5, 6)}


def test_jet_compat_modulus_zero_for_global_polynomial():
    A = two_coset_A()
    f = fn("x0*x0+2*x1", m=2)
    J = jet_field_from_function(f, A, resolution=2, k=1)
    rho = jet_compat_modulus(J, 0)
    assert rho.exp is None    # all jets identical -> modulus 0


def test_jet_compat_modulus_detects_mismatch():
    # two sites with different constant jets: rho = |c1-c0| * |x-z|^(-k)
    A = (Ball(vec(0), 3), Ball(vec(1), 3))
    jets = ((vec(0), (MultiPoly.const(1, 0),)),
            (vec(1), (MultiPoly.const(1, 3),)))
    J = JetField(k=1, A=A, resolution=3, jets=jets)
    rho = jet_compat_modulus(J, 0)
    # |3 - 0| = 1 at distance 1, order j=0 scaling |x-z|^(0-1) = 1
    assert rho.as_fraction() == 1


def test_jet_compat_modulus_builds_each_class_quotient_once(monkeypatch):
    """25 jets of x0^4 on ball(0;1), each its own class: 300 pairs at
    D = 0, but at most classes * n * k = 50 symbolic quotients."""
    calls = []
    original = whitney.phin_poly

    def counting(Q, n):
        calls.append(n)
        return original(Q, n)

    monkeypatch.setattr(whitney, "phin_poly", counting)
    J = jet_field_from_function(fn("x0*x0*x0*x0", m=1), (Ball(vec(0), 1),),
                                resolution=3, k=2)
    classes = len({tuple(tuple(sorted(q.terms.items())) for q in px)
                   for _, px in J.jets})
    assert jet_compat_modulus(J, 0).exp is not None
    assert 0 < len(calls) <= classes * J.n * J.k


# ---------------------------------------------------------------------------
# the glued extension
# ---------------------------------------------------------------------------

def test_constant_jet_glues_to_constant():
    A = (Ball(vec(0), 1),)
    jets = ((vec(0), (MultiPoly.const(1, 7),)),)
    J = JetField(k=0, A=A, resolution=3, jets=jets)
    g = whitney_extend(J, Ball(PAdicVector.zero(P, 1), 0), 3)
    for n in [0, 1, 3, 26, 124]:
        assert (g(vec(n)) - vec(7)).sup_norm() == 0


def test_extension_reproduces_global_polynomial():
    f, J, g = _glued("x0*x0*x1+2*x1", 2)
    rng = random.Random(41)
    for _ in range(40):
        x = vec(rng.randrange(125), rng.randrange(125))
        assert (g(x) - f(x)).sup_norm() == 0


def test_extension_diagonal_and_psi_idempotence():
    f, J, g = _glued("x0+x1", 1)
    for z, polys in J.jets[::7]:
        assert (g(z) - J.evaluate_jet(polys, z)).sup_norm() == 0
        psi_z, _ = J.jets[J.nearest_rep_index(z)]
        assert (psi_z - z).sup_norm() == 0


def test_sum_form_matches_single_site_form():
    """The nearest-jet glue equals the partition-of-unity form over the
    support family built from the enumerated domain."""
    f, J, g = _glued("x0*x1", 1)
    _, _, _, fam = _standard_family()
    rng = random.Random(5)
    for _ in range(20):
        x = vec(rng.randrange(125), rng.randrange(125))
        assert (g(x) - ref.evaluate_sum_form(J, fam, x)).sup_norm() == 0


def test_glue_answers_where_a_support_reaches_past_the_domain():
    """The domain B(1, 5^-4) is finer than its one support B(1, 5^-3), which
    misses A = B(0, 5^-1): 1 + 5^3 lies outside the domain but in that
    support, so the glue answers there, as the enumerated family does; no
    support holds 1 + 5^2 or 2."""
    f = fn("x0*x0")
    J = jet_field_from_function(f, (Ball(vec(0), 1),), resolution=1, k=1)
    domain = Ball(vec(1), 4)
    g = whitney_extend(J, domain, 4)
    expected = ref.glue(J, domain, 4)
    x = vec(1 + 125)
    assert not domain.contains(x)
    assert g(x) == expected(x) == f(x)
    for n in (1 + 25, 2):
        for glue in (g, expected):
            with pytest.raises(PadicError):
                glue(vec(n))


def test_glue_too_coarse_where_the_domain_is_far_from_a():
    """At resolution 2 no support fits (s0 + 1 = 3).  The domain B(1/5, 1)
    lies farther from A = B(0, 5^-1) than the ball B(0, 1) that the
    coarseness count adds, so only T = resolution - s0 <= 0 refuses it."""
    f = fn("x0*x0")
    J = jet_field_from_function(f, (Ball(vec(0), 1),), resolution=1, k=1)
    domain = Ball(PAdicVector([PAdicNumber.from_fraction(P, Fraction(1, 5))]), 0)
    with pytest.raises(PadicError, match="too coarse"):
        ref.glue(J, domain, 2)
    with pytest.raises(PadicError, match="too coarse"):
        whitney_extend(J, domain, 2)
    x = domain.center + vec(7)
    assert whitney_extend(J, domain, 3)(x) == ref.glue(J, domain, 3)(x)


def test_tabulate_gives_grid_function():
    A = (Ball(vec(0), 1),)
    jets = tuple((z, (MultiPoly.coord(1, 0),))
                 for z in enumerate_cosets(Ball(vec(0), 1), 3))
    J = JetField(k=0, A=A, resolution=3, jets=jets)
    g = whitney_extend(J, Ball(PAdicVector.zero(P, 1), 0), 3)
    tab = GridFunction.from_callable(Ball(PAdicVector.zero(P, 1), 0), 3, g)
    x = vec(3)
    assert (tab.evaluate(x) - g(x)).sup_norm() == 0


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def test_verify_whitney_exact_for_global_polynomial():
    f, J, g = _glued("x0*x0+x0*x1", 2)
    rng = random.Random(99)
    samples = []
    for order in (0, 1, 2):
        samples += sample_quotient_points(J, order, 12, rng)
    rows = verify_whitney(g, J, samples)
    assert [row.order for row in rows] == [0, 1, 2]
    for row in rows:
        assert row.observed == 0
        assert row.dominated


def test_verify_whitney_bounds_mismatched_jets():
    # two constant jets differing by 3 at distance 1/5: the glue is a step
    # function, first-order quotients at |t| = 1/5 see the jump, and the
    # observed errors must sit under the rho-based estimate.
    A = (Ball(vec(0), 3), Ball(vec(5), 3))
    jets = ((vec(0), (MultiPoly.const(1, 0),)),
            (vec(5), (MultiPoly.const(1, 3),)))
    J = JetField(k=1, A=A, resolution=3, jets=jets)
    g = whitney_extend(J, Ball(PAdicVector.zero(P, 1), 0), 5)
    rng = random.Random(7)
    samples = sample_quotient_points(J, 0, 30, rng) + \
        sample_quotient_points(J, 1, 30, rng)
    rows = verify_whitney(g, J, samples)
    assert any(row.observed > 0 for row in rows)
    for row in rows:
        assert row.dominated, (row.order, row.observed, row.bound)


def test_verify_whitney_rejects_order_beyond_k():
    A = (Ball(vec(0), 1),)
    jets = ((vec(0), (MultiPoly.const(1, 0),)),)
    J = JetField(k=0, A=A, resolution=3, jets=jets)
    g = whitney_extend(J, Ball(PAdicVector.zero(P, 1), 0), 3)
    rng = random.Random(3)
    samples = sample_quotient_points(J, 1, 2, rng)
    with pytest.raises(PadicError):
        verify_whitney(g, J, samples)


def test_verify_errors_shrink_with_increment_scale():
    # same mismatched-jet field: errors at |t| = 5^-3 (increments landing
    # inside A) vanish, while |t| = 5^-1 increments cross the jump.
    A = (Ball(vec(0), 3), Ball(vec(5), 3))
    jets = ((vec(0), (MultiPoly.const(1, 0),)),
            (vec(5), (MultiPoly.const(1, 3),)))
    J = JetField(k=1, A=A, resolution=3, jets=jets)
    g = whitney_extend(J, Ball(PAdicVector.zero(P, 1), 0), 5)
    rng1, rng2 = random.Random(11), random.Random(11)
    coarse = verify_whitney(
        g, J, sample_quotient_points(J, 1, 40, rng1, t_exps=(1,)))
    fine = verify_whitney(
        g, J, sample_quotient_points(J, 1, 40, rng2, t_exps=(3,)))
    assert coarse[0].observed > 0
    assert fine[0].observed == 0
    assert fine[0].observed <= coarse[0].observed
