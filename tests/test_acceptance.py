"""Acceptance suite: one test per shipped guarantee, each at its stated
tolerance, printing one PASS line on success (pytest -v adds the verdict).

Each criterion is exercised end to end against an independent oracle or an
exact identity; nothing here is mocked and no tolerance is looser than the
one stated in the test.
"""

import json
import random
import time
from fractions import Fraction
from functools import cmp_to_key

from qpcalc.cli import _identity_item, main
from qpcalc.extension import (
    SampleSet,
    WeightedSiteSet,
    chebyshev_feasible,
    chebyshev_radius,
    extend_to_grid,
)
from qpcalc.funcs import SymbolicFunction
from qpcalc.measure import (
    GridFunction,
    decompose_default_ys,
    decompose_series,
    density_at,
    enumerate_cosets,
    set_measure,
    sphere_measure,
)
from qpcalc.padic import (
    Ball,
    Order,
    PAdicNumber,
    PAdicVector,
    PPow,
    vdp_compare,
)
from qpcalc.quotients import stepanoff_scan, taylor_eval
from qpcalc.whitney import (
    RadiusFunction,
    disjoint_ball_family,
    dist_exp,
    family_packing_reports,
    jet_field_from_function,
    sample_quotient_points,
    verify_whitney,
    whitney_extend,
)

PREC = 24


def _num(p, n):
    return PAdicNumber.from_int(p, n, prec=PREC)


def _vec(p, *ns):
    return PAdicVector.from_ints(p, ns, prec=PREC)


# ---------------------------------------------------------------------------
# 1. field axioms and the ultrametric, exhaustively at shallow depth
# ---------------------------------------------------------------------------

def test_criterion_01_field_axioms_and_order():
    """For p in {2, 3, 5}: every canonical value p^v*u with v in {-1,0,1}
    and unit u < p^3 (plus zero).  Pairwise: ultrametric inequality and norm
    multiplicativity.  The comparator is checked against integer ranks from
    a full sort, which verifies totality, antisymmetry and transitivity on
    all pairs at once."""
    t0 = time.monotonic()
    for p in (2, 3, 5):
        vals = [PAdicNumber.zero(p)]
        for v in (-1, 0, 1):
            for u in range(1, p ** 3):
                if u % p:
                    vals.append(PAdicNumber.from_fraction(
                        p, Fraction(u) * Fraction(p) ** v, prec=12))
        for i, x in enumerate(vals):
            nx = x.norm()
            for y in vals[i + 1:]:
                assert (x + y).norm() <= max(nx, y.norm())
                assert (x * y).norm() == nx * y.norm()
        ranked = sorted(vals, key=cmp_to_key(
            lambda a, b: int(vdp_compare(a, b))))
        for i, x in enumerate(ranked):
            for y in ranked[i + 1:]:
                assert vdp_compare(x, y) is Order.LESS
                assert vdp_compare(y, x) is Order.GREATER
    elapsed = time.monotonic() - t0
    assert elapsed < 10, f"exhaustive axiom check took {elapsed:.1f}s"
    print(f"\nCRITERION 1 PASS: field axioms, ultrametric and total order, "
          f"exhaustive at depth <= 3 for p in (2,3,5), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. measure identities
# ---------------------------------------------------------------------------

def test_criterion_02_measure_identities():
    for p in (2, 3, 5):
        dom = Ball(PAdicVector.zero(p, 1), 0)
        for l in range(5):
            target = Fraction(p) ** -l
            counted = set_measure(
                lambda z: z.sup_norm() == target, dom, 5)
            assert counted == sphere_measure(p, l)
        for L in range(7):
            total = sum(sphere_measure(p, l) for l in range(L + 1))
            assert total + Fraction(p) ** -(L + 1) == 1
    print("\nCRITERION 2 PASS: sphere measures match coset counting "
          "(l <= 4, p <= 5) and the sphere partition sums to 1 exactly")


# ---------------------------------------------------------------------------
# 3. first-order quotient identities, seeded
# ---------------------------------------------------------------------------

def test_criterion_03_quotient_identities():
    """10^3 seeded instances per identity, drawn over random polynomials
    with a ball-indicator term mixed into half the instances; every
    instance must be exactly equal."""
    failures = []
    for i in range(1000):
        result = _identity_item(5, PREC, 42, i)
        failures += [(i, name) for name, ok in result.items() if not ok]
    assert not failures, failures[:5]
    print("\nCRITERION 3 PASS: chain, telescope and product identities "
          "exact on 1000/1000 seeded instances each")


# ---------------------------------------------------------------------------
# 4. divided-power expansion
# ---------------------------------------------------------------------------

def _poly_source(rng, m, degree):
    parts = []
    for top in [degree] + [rng.randrange(degree + 1)
                           for _ in range(rng.randrange(3))]:
        exps = [0] * m
        for _ in range(top):
            exps[rng.randrange(m)] += 1
        factors = [str(rng.choice([1, 2, 3, -1, -2]))]
        for i, e in enumerate(exps):
            factors.extend([f"x{i}"] * e)
        parts.append("*".join(factors))
    return "+".join(parts).replace("+-", "-")


def test_criterion_04_taylor_residuals():
    rng = random.Random(404)
    for degree in range(5):
        n = max(degree - 1, 0)          # degree <= n + 1
        for _ in range(100):
            m = rng.choice([1, 2])
            f = SymbolicFunction.from_sources(
                5, [_poly_source(rng, m, degree)], m=m, prec=PREC)
            y = _vec(5, *[rng.randrange(125) for _ in range(m)])
            x = _vec(5, *[rng.randrange(125) for _ in range(m)])
            exp = taylor_eval(f, n, y, x)
            assert exp.exact and exp.residual_norm() == 0
    # one order beyond: the residual obeys the distance-power bound
    for _ in range(100):
        m = rng.choice([1, 2])
        n = rng.randrange(3)
        f = SymbolicFunction.from_sources(
            5, [_poly_source(rng, m, n + 2)], m=m, prec=PREC)
        y = _vec(5, *[rng.randrange(125) for _ in range(m)])
        x = _vec(5, *[rng.randrange(125) for _ in range(m)])
        exp = taylor_eval(f, n, y, x)
        assert exp.residual_norm() <= (x - y).sup_norm() ** (n + 2)
    print("\nCRITERION 4 PASS: expansion residual exactly 0 through degree "
          "n+1 (100 pairs per degree <= 4); degree n+2 residual <= |x-y|^(n+2)")


# ---------------------------------------------------------------------------
# 5. exact-constant nearest-point extension
# ---------------------------------------------------------------------------

def _min_holder_constant(points, r):
    worst = PPow.zero(5)
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            gap = PPow.from_norm(5, (points[i][1] - points[j][1]).sup_norm())
            if gap.is_zero():
                continue
            dist = PPow.from_norm(5, (points[i][0] - points[j][0]).sup_norm())
            cand = gap / dist.pow_frac(r)
            worst = max(worst, cand)
    return worst.ceil_fraction()


def _v5(n):
    """The 5-adic valuation of a nonzero integer."""
    v = 0
    while n % 5 == 0:
        n, v = n // 5, v + 1
    return v


def test_criterion_05_extension_preserves_constant():
    """|g(x) - g(z)| <= C|x - z|^r on all 7750 pairs of the 125 depth-3
    cosets of Z_5, checked on the integers the test draws: x and z are the
    cosets' representatives, the values are the sites' integers, and for
    integers a != b, |a - b| = 5^-v5(a - b).  For r = 1/2 both sides are
    squared."""
    rng = random.Random(505)
    dom = Ball(PAdicVector.zero(5, 1), 0)
    val = {n: _v5(n) for n in range(1, 125)}
    for case in range(100):
        r = Fraction(1) if case % 2 == 0 else Fraction(1, 2)
        sites = rng.sample(range(125), rng.randrange(2, 21))
        ints = [rng.randrange(125) for _ in sites]
        points = [(_vec(5, s), _vec(5, y)) for s, y in zip(sites, ints)]
        C = _min_holder_constant(points, r)
        S = SampleSet(points, C, r)
        assert S.certify().ok
        g = extend_to_grid(S, dom, 3)
        of_value = {value: y for (_, value), y in zip(points, ints)}
        ys = [of_value[g.evaluate(_vec(5, x))] for x in range(125)]
        holds = {}      # (gap valuation, distance valuation) -> verdict
        for x in range(125):
            for z in range(x + 1, 125):
                if ys[x] == ys[z]:
                    continue            # 0 <= C|x - z|^r
                key = val[abs(ys[x] - ys[z])], val[z - x]
                if key not in holds:
                    gap, dist = key
                    holds[key] = (
                        Fraction(1, 5 ** gap) <= C * Fraction(1, 5 ** dist)
                        if r == 1 else
                        Fraction(1, 25 ** gap) <= C * C * Fraction(1, 5 ** dist))
                assert holds[key], (case, x, z)
    print("\nCRITERION 5 PASS: 100 certified sample sets (r in {1, 1/2}) "
          "extended to depth-3 grids with the Hölder constant preserved "
          "exactly on all pairs")


# ---------------------------------------------------------------------------
# 6. weighted Chebyshev radius vs brute force
# ---------------------------------------------------------------------------

def test_criterion_06_chebyshev_vs_brute_force():
    rng = random.Random(606)
    dom = Ball(PAdicVector.zero(5, 1), 0)
    grid = enumerate_cosets(dom, 3)
    for case in range(200):
        r = Fraction(1) if case % 2 == 0 else Fraction(1, 2)
        k = rng.randrange(2, 7)
        zs = rng.sample(range(125), k)
        H = WeightedSiteSet(
            [(_vec(5, z), _num(5, rng.randrange(1, 125))) for z in zs])
        result = chebyshev_radius(H, r)
        weights = [PPow.from_norm(5, x.norm()) for _, x in H.pairs]
        brute = None
        for q in grid:
            need = PPow.zero(5)
            for (z, _), w in zip(H.pairs, weights):
                lhs = PPow.from_norm(5, (q - z).sup_norm()) / w.pow_frac(r)
                need = max(need, lhs)
            brute = need if brute is None else min(brute, need)
        assert result.c == brute, (case, result.c, brute)
        assert chebyshev_feasible(H, r, result.q, result.c)
    print("\nCRITERION 6 PASS: closed-form radius equals the brute-force "
          "grid minimum on 200 seeded instances (r in {1, 1/2})")


# ---------------------------------------------------------------------------
# 7. jets glued over the two-coset geometry
# ---------------------------------------------------------------------------

def test_criterion_07_whitney_two_coset_geometry():
    p = 5
    A = (Ball(_vec(p, 0, 0), 1), Ball(_vec(p, 2, 3), 1))
    dom = Ball(PAdicVector.zero(p, 2), 0)
    h = RadiusFunction(A, p)
    reps = [y for y in enumerate_cosets(dom, 3) if dist_exp(A, y) is not None]
    fam = disjoint_ball_family(reps, h, 3)

    for x in reps:
        assert sum(w for _, w in fam.weights(x)) == 1
    reports = family_packing_reports(fam, reps)
    assert all(rep.ratio_ok and rep.card_ok for rep in reports)

    rng = random.Random(707)
    errors = 0
    for source in ("x0*x0*x1+2*x1-x0", "x0*x0*x0-3*x1*x1+x0*x1"):
        f = SymbolicFunction.from_sources(p, [source], m=2, prec=PREC)
        J = jet_field_from_function(f, A, 3, 2)
        g = whitney_extend(J, dom, 3)
        samples = []
        for order in (0, 1, 2):
            samples += sample_quotient_points(J, order, 34, rng)
        assert len(samples) >= 100
        rows = verify_whitney(g, J, samples)
        assert [row.order for row in rows] == [0, 1, 2]
        assert all(row.observed == 0 for row in rows)
        errors = max(errors, max(row.observed for row in rows))
    print("\nCRITERION 7 PASS: degree-<=3 jets on two disjoint cosets of "
          "Z_5^2 glue with quotient errors exactly 0 at 102 samples per "
          "field; partition sums to 1 and packing bounds hold at all "
          f"{len(reps)} grid points")


# ---------------------------------------------------------------------------
# 8. indicator-series decomposition of random step functions
# ---------------------------------------------------------------------------

def test_criterion_08_series_decomposition():
    rng = random.Random(808)
    p = 5
    dom = Ball(PAdicVector.zero(p, 1), 0)
    reps = enumerate_cosets(dom, 3)
    tol = Fraction(p) ** -3
    for _ in range(50):
        values = rng.sample(range(625), rng.randrange(2, 5))
        table = [(rep, PAdicVector([_num(p, rng.choice(values))]))
                 for rep in reps]
        f = GridFunction(dom, 3, table)
        nonzero = [f.scalar(rep) for rep in reps
                   if not f.scalar(rep).is_zero()]
        floor = min(v.val for v in nonzero)
        terms = decompose_series(
            f, decompose_default_ys(p, floor, 3 - floor), 3)

        residuals = []
        acc = {id(rep): PAdicNumber.zero(p) for rep in reps}
        for y, indicator in terms:
            for rep in reps:
                if not indicator.scalar(rep).is_zero():
                    acc[id(rep)] = acc[id(rep)] + y
            residuals.append(max(
                (f.scalar(rep) - acc[id(rep)]).norm() for rep in reps))
        assert residuals[-1] <= tol
        assert all(a >= b for a, b in zip(residuals, residuals[1:]))
    print("\nCRITERION 8 PASS: 50 random 2-4-valued step functions "
          "reassembled from indicator series with residual <= 5^-3 and "
          "nonincreasing partial-sum residuals")


# ---------------------------------------------------------------------------
# 9. differentiability scan and the sparse-sphere density bound
# ---------------------------------------------------------------------------

def test_criterion_09_stepanoff_and_sparse_density():
    p = 5
    dom = Ball(PAdicVector.zero(p, 1), 0)
    eps = Fraction(1, 25)
    square = SymbolicFunction.from_sources(p, ["x0*x0"], prec=PREC)
    assert stepanoff_scan(square, dom, 3, eps).fraction == 1
    mix = SymbolicFunction.from_sources(
        p, ["x0*x0*x0+2*x0+3*ch(2;1)+ch(1;2)"], prec=PREC)
    assert stepanoff_scan(mix, dom, 3, eps).fraction == 1

    def sparse(z):
        c = z.coords[0]
        if c.is_zero() or c.val < 1:
            return False
        return (c.unit // p) % p ** c.val == 0

    est = density_at(sparse, PAdicVector.zero(p, 1), (1, 2, 3))
    for j, count, total in est.ratios:
        assert Fraction(count, total) <= 5 * Fraction(p) ** -j
    assert est.verdict == "converges-to-0"
    print("\nCRITERION 9 PASS: differentiable fraction 1 at depth 3 "
          "(eps = 5^-2) for x^2 and a locally-constant mix; sparse-sphere "
          "density ratios within 5*5^-j")


# ---------------------------------------------------------------------------
# 10. determinism across parallelism
# ---------------------------------------------------------------------------

def test_criterion_10_deterministic_reports(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["identities", "--seed", "24", "--samples", "120",
                 "--jobs", "1", "--out", str(a)]) == 0
    assert main(["identities", "--seed", "24", "--samples", "120",
                 "--jobs", "5", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    jets = tmp_path / "jets.json"
    assert main(["whitney", "build", "--p", "5", "--f", "x0*x0",
                 "--set", "ball(0;1)", "--resolution", "3", "--k", "1",
                 "--out", str(jets)]) == 0
    v1, v2 = tmp_path / "v1.json", tmp_path / "v2.json"
    for path in (v1, v2):
        assert main(["whitney", "verify", "--jets", str(jets),
                     "--samples", "12", "--seed", "9",
                     "--out", str(path)]) == 0
    assert v1.read_bytes() == v2.read_bytes()
    capsys.readouterr()
    print("\nCRITERION 10 PASS: identity suite byte-identical across "
          "--jobs 1/5; repeated seeded verification reports byte-identical")
