"""Measure-layer tests.  Sphere measures, coset counts and the sparse-set
density are all checked against independent integer-counting oracles written
directly in this file."""

import random
from fractions import Fraction

import pytest

from qpcalc.measure import (
    DEFAULT_CAP,
    GridFunction,
    ResourceCapExceeded,
    ap_limit,
    decompose_default_ys,
    decompose_series,
    density_at,
    enumerate_cosets,
    set_measure,
    sphere_measure,
)
from qpcalc.padic import Ball, PAdicNumber, PAdicVector, PadicError, vdp_dense_sequence


def zball(p, m, k):
    return Ball(PAdicVector.zero(p, m), k)


def ivec(p, *ns):
    return PAdicVector.from_ints(p, ns)


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

def test_ball_measure_examples():
    """A ball is one coset at its own radius: mu = p^(-rad_exp * dim)."""
    def ball_measure(b):
        return set_measure(lambda _: True, b, b.rad_exp)
    assert ball_measure(zball(5, 1, 0)) == 1
    assert ball_measure(zball(5, 2, 3)) == Fraction(1, 5**6)
    assert ball_measure(zball(2, 1, -1)) == 2


def test_sphere_measure_examples():
    assert sphere_measure(5, 1) == Fraction(4, 25)
    assert sphere_measure(5, 0) == Fraction(4, 5)
    assert sphere_measure(2, -1) == 1


def test_sphere_partition_of_unit_ball():
    for p in (2, 3, 5):
        for L in range(7):
            total = sum(sphere_measure(p, l) for l in range(L + 1))
            assert total + Fraction(p) ** (-L - 1) == 1


def test_enumerate_cosets_basics():
    assert enumerate_cosets(zball(5, 1, 2), 2) == [PAdicVector.zero(5, 1)]
    got = enumerate_cosets(zball(5, 1, 0), 1)
    assert [x[0].as_fraction() for x in got] == [0, 1, 2, 3, 4]
    assert len(enumerate_cosets(zball(5, 2, 0), 2)) == 625


def test_enumerate_cosets_pairwise_separated():
    reps = enumerate_cosets(zball(3, 2, 0), 2)
    assert len(reps) == 81
    for i, a in enumerate(reps):
        for b in reps[i + 1:]:
            assert (a - b).sup_norm() > Fraction(1, 9)


def test_enumerate_cosets_negative_radius_exponent():
    reps = enumerate_cosets(zball(2, 1, -1), 1)
    assert sorted(x[0].as_fraction() for x in reps) == [0, Fraction(1, 2), 1, Fraction(3, 2)]


def test_enumerate_cosets_cap():
    with pytest.raises(ResourceCapExceeded):
        enumerate_cosets(zball(5, 2, 0), 3, cap=100)
    with pytest.raises(PadicError):
        enumerate_cosets(zball(5, 1, 2), 1)   # resolution coarser than the ball


def test_set_measure_constant_indicators():
    b = zball(5, 1, 0)
    assert set_measure(lambda r: True, b, 2) == 1
    assert set_measure(lambda r: False, b, 2) == 0


def test_set_measure_matches_sphere_measure():
    # |x| = 5^-1 inside Z_5, counted at resolution 2: must equal 4/25
    got = set_measure(lambda r: r.sup_norm() == Fraction(1, 5), zball(5, 1, 0), 2)
    assert got == Fraction(4, 25) == sphere_measure(5, 1)


def test_set_measure_matches_sphere_measure_all_small_cases():
    # exhaustive agreement for l <= 4 and p in {2,3,5} (acceptance cross-check)
    for p in (2, 3, 5):
        for l in range(5):
            got = set_measure(lambda r, l=l, p=p: r.sup_norm() == Fraction(p) ** (-l),
                              zball(p, 1, 0), l + 1)
            assert got == sphere_measure(p, l)


def test_set_measure_additivity_translation_refinement():
    b = zball(5, 1, 0)

    def in_coset(r, c, k):
        return (r - c).sup_norm() <= Fraction(5) ** (-k)

    c1, c2 = ivec(5, 1), ivec(5, 2)
    m1 = set_measure(lambda r: in_coset(r, c1, 1), b, 2)
    m2 = set_measure(lambda r: in_coset(r, c2, 1), b, 2)
    union = set_measure(lambda r: in_coset(r, c1, 1) or in_coset(r, c2, 1), b, 2)
    assert union == m1 + m2 == Fraction(2, 5)

    # translation by a lattice-aligned shift preserves measure
    t = ivec(5, 5)
    shifted = set_measure(lambda r: in_coset(r - t, c1, 1), b, 2)
    assert shifted == m1

    # refining the resolution leaves coset-aligned measures unchanged
    for K in (1, 2, 3):
        assert set_measure(lambda r: in_coset(r, c1, 1), b, K) == Fraction(1, 5)


# ---------------------------------------------------------------------------
# grid functions
# ---------------------------------------------------------------------------

def test_grid_function_entry_count_enforced():
    b = zball(5, 1, 0)
    reps = enumerate_cosets(b, 1)
    with pytest.raises(PadicError):
        GridFunction(b, 1, [(reps[0], ivec(5, 1))])


def test_grid_function_eval_is_coset_constant():
    b = zball(5, 1, 0)
    f = GridFunction.from_callable(b, 1, lambda r: PAdicVector([r[0] * r[0]]))
    x = ivec(5, 7)          # 7 = 2 + 5: same depth-1 coset as 2
    assert f.evaluate(x) == f.evaluate(ivec(5, 2))
    assert f.scalar(ivec(5, 3)).as_fraction() == 9
    with pytest.raises(PadicError):
        f.evaluate(PAdicVector([PAdicNumber.from_fraction(5, Fraction(1, 5))]))


def test_grid_function_json_roundtrip():
    b = zball(5, 1, 0)
    f = GridFunction.from_callable(b, 1, lambda r: PAdicVector([r[0] + 1]))
    g = GridFunction.from_json(f.to_json())
    for rep in f.reps:
        assert g.evaluate(rep) == f.evaluate(rep)


# ---------------------------------------------------------------------------
# density and approximate limits
# ---------------------------------------------------------------------------

def test_density_full_set():
    est = density_at(lambda r: True, PAdicVector.zero(5, 1), range(1, 4))
    assert all(c == t for _, c, t in est.ratios)
    assert est.verdict == "converges-to-1"


def test_density_small_ball_at_its_center():
    ball_ind = lambda r: r.sup_norm() <= Fraction(1, 5)
    est = density_at(ball_ind, PAdicVector.zero(5, 1), range(1, 4))
    assert [Fraction(c, t) for _, c, t in est.ratios] == [1, 1, 1]


def sparse_member(z: int, p: int = 5, kmax: int = 2) -> bool:
    """z (a canonical integer representative) lies on sphere p^-k with the k
    thinning digits k+1..2k of z/p^k all zero, for some 1 <= k <= kmax.

    The union is cut off at kmax: sphere k's thinning digits sit at positions
    2k+1..3k of z, so only spheres with 3k < resolution are decidable from a
    representative, and keeping undecidable deep spheres would count them
    vacuously (every deep coset looks thinned) and wreck the density bound.
    """
    if z == 0:
        return False
    k = 0
    while z % p == 0:
        z //= p
        k += 1
    if not 1 <= k <= kmax:
        return False
    return all((z // p**i) % p == 0 for i in range(k + 1, 2 * k + 1))


def test_sparse_sphere_density_matches_integer_oracle_and_bound():
    res = 7
    js = (1, 2, 3)
    x = PAdicVector.zero(5, 1)
    est = density_at(lambda r: sparse_member(int(r[0].as_fraction())), x, js,
                     resolution=res)
    # independent oracle: count integers directly
    for j, c, t in est.ratios:
        members = [z for z in range(0, 5**res, 5**j) if sparse_member(z)]
        assert t == 5 ** (res - j)
        assert c == len(members)
        assert Fraction(c, t) <= 5 * Fraction(5) ** (-j)
    # frozen exact ratios: thinning kills a 5^-k factor on sphere k
    assert [(j, Fraction(c, t)) for j, c, t in est.ratios] == [
        (1, Fraction(104, 625)), (2, Fraction(4, 125)), (3, Fraction(0))]
    assert est.verdict == "converges-to-0"


def test_ap_limit_constant_confirmed():
    c = ivec(5, 3)
    verdict, _ = ap_limit(lambda z: c, PAdicVector.zero(5, 1), c,
                          Fraction(1, 25), range(1, 4))
    assert verdict == "confirmed"


def test_ap_limit_negative_eps_leaves_nothing_within_tolerance():
    """A negative tolerance is refused, not answered; zero is answered."""
    c = ivec(5, 3)
    with pytest.raises(PadicError, match="eps"):
        ap_limit(lambda z: c, PAdicVector.zero(5, 1), c, Fraction(-1, 25),
                 range(1, 4))
    verdict, _ = ap_limit(lambda z: c, PAdicVector.zero(5, 1), c, 0,
                          range(1, 4))
    assert verdict == "confirmed"


def test_ap_limit_distinguishes_sparse_from_fat_sets():
    zero = PAdicVector.zero(5, 1)
    one = PAdicNumber.from_int(5, 1)

    def sparse_ind(z):
        return PAdicVector([one if sparse_member(int(z[0].as_fraction())) else
                            PAdicNumber.zero(5)])

    # ap-limit 0 is confirmed even though the function attains 1 on every
    # ball that reaches the retained spheres
    verdict, est = ap_limit(sparse_ind, zero, PAdicNumber.zero(5),
                            Fraction(1, 2), (1, 2, 3), resolution=7)
    assert verdict == "confirmed"
    assert all(c > 0 for _, c, _ in est.ratios[:2])

    # the fat indicator refutes candidate 0
    def fat_ind(z):
        return PAdicVector([one if z.sup_norm() <= Fraction(1, 5) else
                            PAdicNumber.zero(5)])

    verdict, _ = ap_limit(fat_ind, zero, PAdicNumber.zero(5),
                          Fraction(1, 2), (1, 2, 3), resolution=4)
    assert verdict == "refuted"


def test_ap_limit_confirms_grid_functions_at_grid_points():
    # approximate continuity of step functions at every grid point
    b = zball(5, 1, 0)
    rng = random.Random(11)
    f = GridFunction.from_callable(
        b, 2, lambda r: ivec(5, rng.randrange(50)))
    for rep in f.reps[::7]:
        verdict, _ = ap_limit(f, rep, f.evaluate(rep), Fraction(1, 125),
                              (2, 3, 4), resolution=5)
        assert verdict == "confirmed"


# ---------------------------------------------------------------------------
# series decomposition
# ---------------------------------------------------------------------------

def const_grid(value: int, res: int = 2):
    b = zball(5, 1, 0)
    return GridFunction.from_callable(b, res, lambda r: ivec(5, value))


def test_decompose_constant_in_ys_is_a_single_exact_term():
    f = const_grid(17)                      # 17 = 2 + 3*5, a depth-2 net value
    ys = decompose_default_ys(5, 0, 2)
    terms = decompose_series(f, ys, tol_exp=2)
    assert len(terms) == 1
    y, table = terms[0]
    assert y.as_fraction() == 17
    assert all(table.scalar(rep).as_fraction() == 1 for rep in table.reps)


def test_decompose_ball_indicator_single_nonzero_term():
    b = zball(5, 1, 0)
    one = PAdicNumber.from_int(5, 1)
    f = GridFunction.from_callable(
        b, 1, lambda r: PAdicVector([one if r.sup_norm() <= Fraction(1, 5)
                                     else PAdicNumber.zero(5)]))
    terms = decompose_series(f, decompose_default_ys(5, 0, 1), tol_exp=1)
    assert len(terms) == 1
    y, table = terms[0]
    assert y.as_fraction() == 1
    for rep in table.reps:
        inside = rep.sup_norm() <= Fraction(1, 5)
        assert table.scalar(rep).as_fraction() == (1 if inside else 0)


def test_decompose_two_valued_exact_within_tolerance():
    b = zball(5, 1, 0)
    f = GridFunction.from_callable(
        b, 2, lambda r: ivec(5, 17 if int(r[0].as_fraction()) % 2 else 2))
    terms = decompose_series(f, decompose_default_ys(5, 0, 2), tol_exp=2)
    assert sorted(y.as_fraction() for y, _ in terms) == [2, 17]
    # reconstruction is exact here
    for rep in f.reps:
        s = sum(y.as_fraction() * table.scalar(rep).as_fraction()
                for y, table in terms)
        assert s == f.scalar(rep).as_fraction()


def test_decompose_reports_needed_depth_when_sequence_too_shallow():
    f = const_grid(17)
    with pytest.raises(PadicError, match="depth 2"):
        decompose_series(f, decompose_default_ys(5, 0, 1), tol_exp=2)


def test_decompose_rejects_values_below_the_floor():
    b = zball(5, 1, 0)
    deep = PAdicNumber.from_fraction(5, Fraction(1, 5))
    f = GridFunction.from_callable(b, 1, lambda r: PAdicVector([deep]))
    with pytest.raises(PadicError, match="val_floor"):
        decompose_series(f, decompose_default_ys(5, 0, 2), tol_exp=1)


def test_decompose_rejects_vector_values():
    b = zball(5, 1, 0)
    f = GridFunction.from_callable(b, 1, lambda r: ivec(5, 1, 2))
    with pytest.raises(PadicError, match="scalar"):
        decompose_series(f, decompose_default_ys(5, 0, 1), tol_exp=1)


def test_decompose_random_step_functions_residuals_nonincreasing():
    rng = random.Random(202)
    b = zball(5, 1, 0)
    ys = decompose_default_ys(5, 0, 3)
    for _ in range(20):
        values = rng.sample(range(125), rng.randint(2, 4))
        f = GridFunction.from_callable(
            b, 3, lambda r: ivec(5, values[int(r[0].as_fraction()) % len(values)]))
        terms = decompose_series(f, ys, tol_exp=3)
        residual = {rep: f.scalar(rep).as_fraction() for rep in f.reps}
        prev_norm = {rep: _norm5(residual[rep]) for rep in f.reps}
        for y, table in terms:
            for rep in f.reps:
                if table.scalar(rep).as_fraction() == 1:
                    residual[rep] -= y.as_fraction()
                    now = _norm5(residual[rep])
                    assert now <= prev_norm[rep] / 5   # net-schedule drop
                    prev_norm[rep] = now
        assert all(_norm5(residual[rep]) <= Fraction(1, 125) for rep in f.reps)


def _norm5(q: Fraction) -> Fraction:
    if q == 0:
        return Fraction(0)
    num, den, v = q.numerator, q.denominator, 0
    while num % 5 == 0:
        num //= 5
        v += 1
    while den % 5 == 0:
        den //= 5
        v -= 1
    return Fraction(5) ** (-v)


def test_default_ys_is_vdp_dense_sequence_prefix():
    assert [y.as_fraction() for y in decompose_default_ys(5, 0, 1)] == \
        [y.as_fraction() for y in vdp_dense_sequence(5, 0, 5)]


def test_grid_function_rejects_short_representative_window():
    b = zball(5, 1, 0)
    reps = enumerate_cosets(b, 2)
    # 7 known only mod 5 cannot name a radius-5^-2 coset
    short = PAdicVector([PAdicNumber.from_int(5, 7, prec=1)])
    table = [(short if r[0].as_fraction() == 7 else r, ivec(5, 1))
             for r in reps]
    with pytest.raises(PadicError, match="fewer than 2 digits"):
        GridFunction(b, 2, table)
    # the zero sentinel is exact, so the representative 0 stays valid
    GridFunction(b, 2, [(r, ivec(5, 1)) for r in reps])


def test_grid_function_from_json_rejects_rep_outside_domain():
    b = Ball(PAdicVector.zero(5, 1), 1)
    obj = GridFunction.from_callable(b, 1, lambda r: ivec(5, 1)).to_json()
    assert [rep for rep, _ in obj["table"]] == [["0@5"]]
    obj["table"] = [[ivec(5, 3).to_json(), ivec(5, 1).to_json()]]
    with pytest.raises(PadicError, match="outside the domain"):
        GridFunction.from_json(obj)
    # 6 lies outside B(1, 5^-2), but a centre 1 known mod 5 only cannot tell
    short = Ball(PAdicVector([PAdicNumber.from_int(5, 1, prec=1)]), 2)
    obj = GridFunction.from_callable(zball(5, 1, 2), 2,
                                     lambda r: ivec(5, 1)).to_json()
    obj["domain"] = short.to_json()
    obj["table"][0][0] = ivec(5, 6).to_json()
    with pytest.raises(PadicError, match="fewer than 2 digits"):
        GridFunction.from_json(obj)
