"""Pointwise densities counted on the coset tree, against the per-level and
per-point loops they replaced (density_reference.py): density_at and
ap_limit enumerate the coarsest ball once, union_density descends the tree
instead of enumerating, and stepanoff_scan evaluates f once per coset of a
shared ball.  Tolerances are compared through the valuation.  Hypothesis
runs derandomized, so the suite stays deterministic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import density_reference as ref
from norm_reference import ppow_le_scaled
from qpcalc import measure, quotients
from qpcalc.cli import main
from qpcalc.funcs import SymbolicFunction
from qpcalc.measure import (ap_limit, coset_levels, density_at,
                            enumerate_cosets, union_density)
from qpcalc.padic import (Ball, PAdicNumber, PAdicVector, PadicError, PPow,
                          ScaledBound, _make, rational_val)
from qpcalc.quotients import ap_derivative, ap_derivatives, stepanoff_scan

SETTINGS = settings(derandomize=True, max_examples=200, deadline=None)
EPSILONS = [Fraction(0), Fraction(1), Fraction(1, 25), Fraction(2, 25),
            Fraction(3), Fraction(7, 3)]


@st.composite
def coordinates(draw, p, zero=True):
    """Zero, or p^val * unit known to `window` digits: fractional when
    val < 0, and short when the window ends before the resolution."""
    if zero and draw(st.integers(0, 4)) == 0:
        return PAdicNumber.zero(p)
    val = draw(st.integers(-2, 3))
    window = draw(st.integers(1, 6))
    return _make(p, val, draw(st.integers(1, p ** window - 1)), val + window)


@st.composite
def points(draw, p, m):
    return PAdicVector([draw(coordinates(p)) for _ in range(m)])


@st.composite
def level_sets(draw, p, m):
    """Distinct levels in any order, with gaps, and a resolution keeping
    the coarsest ball to at most a few hundred cosets."""
    budget = {2: 8, 3: 5, 5: 3}[p] // m
    lo = draw(st.integers(-1, 2))
    res = lo + draw(st.integers(0, budget))
    js = draw(st.lists(st.integers(lo, res), min_size=1, max_size=4,
                       unique=True))
    js = [lo] + [j for j in js if j != lo]
    return draw(st.permutations(js)), res


@st.composite
def densities(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(1, 2))
    x = draw(points(p, m))
    js, res = draw(level_sets(p, m))
    return p, m, x, js, res


def _digits_predicate(q: int, r: int):
    """A set that is no ball union: the coset representatives whose
    digits, read as integers, sum to r mod q."""
    def indicator(z):
        return sum(c.unit + 7 * c.val for c in z.coords if c.val is not None) \
            % q == r
    return indicator


# ---------------------------------------------------------------------------
# density_at and ap_limit: one enumeration, levels from the digits
# ---------------------------------------------------------------------------

@SETTINGS
@given(densities(), st.integers(2, 5), st.integers(0, 4))
def test_density_at_matches_the_per_level_loop(case, q, r):
    p, m, x, js, res = case
    indicator = _digits_predicate(q, r % q)
    assert density_at(indicator, x, js, resolution=res) == \
        ref.density_at(indicator, x, js, resolution=res)


@SETTINGS
@given(densities())
def test_coset_levels_match_subtraction_from_the_centre(case):
    """The level read from the digits is the valuation of the offset of the
    canonical values from the centre.  ap_derivatives reads the level from
    any other member by subtraction, and is checked against the per-point
    loop below."""
    p, m, x, js, res = case
    b = Ball(x, js[0])
    exact = [c.as_fraction() for c in x.coords]
    for z, L in zip(enumerate_cosets(b, res), coset_levels(b, res)):
        vals = [rational_val(c.as_fraction() - e, p)
                for c, e in zip(z.coords, exact)]
        v = min((v for v in vals if v is not None), default=res)
        assert L == min(v, res)


@SETTINGS
@given(densities(), st.sampled_from(EPSILONS), st.integers(0, 3))
def test_ap_limit_matches_the_per_level_loop(case, eps, shift):
    p, m, x, js, res = case
    f = SymbolicFunction.from_sources(
        p, ["x0*x0+3*x0" if m == 1 else "x0*x1-x1+ch(1,0;1)"], m=m)
    candidate = PAdicVector([PAdicNumber.from_int(p, shift)])
    assert ap_limit(f, x, candidate, eps, js, resolution=res) == \
        ref.ap_limit(f, x, candidate, eps, js, resolution=res)


# ---------------------------------------------------------------------------
# union_density: the descent against per-coset contains
# ---------------------------------------------------------------------------

@st.composite
def unions(draw):
    """A point and 1-3 balls nested in, overlapping or disjoint from its
    neighbourhood: centres at x plus p^d * u, with zero, fractional and
    short-window coordinates, and radius exponents up to past res + 12."""
    p, m, x, js, res = draw(densities())
    balls = []
    for _ in range(draw(st.integers(1, 3))):
        coords = []
        for c in x.coords:
            kind = draw(st.integers(0, 3))
            if kind == 0:
                coords.append(draw(coordinates(p)))
                continue
            d = draw(st.integers(js[0] - 1, res + 1))
            u = draw(st.integers(0, p - 1))
            exact = c.as_fraction() + u * Fraction(p) ** d
            prec = draw(st.sampled_from([2, 6, 24]))
            coords.append(PAdicNumber.from_fraction(p, exact, prec=prec))
        k = draw(st.sampled_from([js[0] - 1, js[0], js[0] + 1, res,
                                  res + 1, res + 20]))
        balls.append(Ball(PAdicVector(coords), k))
    return balls, x, js, res


@settings(derandomize=True, max_examples=400, deadline=None)
@given(unions())
def test_union_density_matches_per_coset_contains(case):
    balls, x, js, res = case
    assert union_density(balls, x, js, resolution=res) == ref.density_at(
        lambda z: any(b.contains(z) for b in balls), x, js, resolution=res)


def _density_rows(capsys, *argv):
    code = main(["density", "--p", "5", *argv])
    out = capsys.readouterr().out
    assert code == 0
    return [line.split(": ", 1)[1] for line in out.splitlines()
            if line.startswith("j=")]


def test_union_density_short_centre_window(capsys):
    """26 known mod 25 is the centre 1 known to two digits: the ball of
    radius 5^-4 takes in every z = 1 mod 25."""
    assert _density_rows(capsys, "--prec", "2", "--set", "ball(26;4)",
                         "--at", "1", "--levels", "1,2,3",
                         "--resolution", "4") == \
        ["1/5 (25/125)", "1 (25/25)", "1 (5/5)"]


def test_union_density_past_the_representative_window(capsys):
    """k = 30 > res + DEFAULT_PREC: the representative 1, known to 14
    digits, cannot tell the centre 1 + 5^20 from itself, so contains takes
    it in, as enumeration did."""
    assert _density_rows(capsys, "--set", "ball(95367431640626;30)",
                         "--at", "1", "--levels", "1,2",
                         "--resolution", "2") == ["1/5 (1/5)", "1 (1/1)"]


def test_union_density_counts_without_enumerating(capsys, monkeypatch):
    """5^13 cosets at j = 1 are counted, not listed; the cap still bounds
    each level's coset count."""
    seen = []
    original = measure.enumerate_cosets

    def counting(*args, **kwargs):
        reps = original(*args, **kwargs)
        seen.append(len(reps))
        return reps

    monkeypatch.setattr(measure, "enumerate_cosets", counting)
    argv = ["--set", "ball(3;2)|ball(8;4)", "--at", "3", "--levels", "1,2,3",
            "--resolution", "14"]
    assert _density_rows(capsys, *argv, "--cap", "10000000000")[0] == \
        "26/125 (253906250/1220703125)"
    assert sum(seen) < 1000
    assert main(["density", "--p", "5", *argv]) == 3
    assert "cap" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# ap_derivative and stepanoff_scan: f once per coset of a shared ball
# ---------------------------------------------------------------------------

def test_stepanoff_matches_the_per_point_loop_on_Z5_squared():
    """One level-0 ball holds all 25 grid points: every point's bad set is
    counted over one table of f, each at its own levels."""
    f = SymbolicFunction.from_sources(5, ["x0*x1+x1*x1*x1+2*ch(1,2;1)"], m=2)
    domain = Ball(PAdicVector.zero(5, 2), 0)
    grid = enumerate_cosets(domain, 1)
    eps, js = Fraction(1, 25), (0, 1, 2)
    assert ap_derivatives(f, grid, js, eps, resolution=2) == \
        [ref.ap_derivative(f, x, js, eps, resolution=2) for x in grid]
    assert stepanoff_scan(f, domain, 1, eps, j_range=js, resolution=2) == \
        ref.stepanoff_scan(f, domain, 1, eps, j_range=js, resolution=2)


def test_stepanoff_failures_keep_grid_order():
    """20 of 25 points fail (eps = 0 off ball(1;1)); the report lists the
    first 16 in grid order, across the shared balls."""
    f = SymbolicFunction.from_sources(5, ["x0*x0-x0*x0*ch(1;1)"], m=1)
    domain = Ball(PAdicVector.zero(5, 1), 0)
    new = stepanoff_scan(f, domain, 2, 0, resolution=4)
    assert new == ref.stepanoff_scan(f, domain, 2, 0, resolution=4)
    assert new.good == 5 and len(new.failures) == 16
    assert [int(x[0].as_fraction()) for x in new.failures] == \
        [0, 5, 10, 15, 20] + [2, 7, 12, 17, 22] + [3, 8, 13, 18, 23] + [4]


@SETTINGS
@given(densities(), st.sampled_from(EPSILONS))
def test_ap_derivative_matches_the_reference(case, eps):
    p, m, x, js, res = case
    if any(c.abs_window() < 2 for c in x.coords):
        return                      # the indicator radius is undecided
    f = SymbolicFunction.from_sources(
        p, ["x0*x0*x0" if m == 1 else "x0*x0*x1+ch(1,0;2)"], m=m)
    if any(c.abs_window() < res for c in x.coords):
        with pytest.raises(PadicError, match="short of the resolution"):
            ap_derivative(f, x, js, eps, resolution=res)
        return
    assert ap_derivative(f, x, js, eps, resolution=res) == \
        ref.ap_derivative(f, x, js, eps, resolution=res)


@st.composite
def windowed_points(draw, p, m, res):
    """Points whose nonzero coordinates are known to res, or up to three
    digits further: a shorter window is refused, since the shared table
    reads every level up to res."""
    coords = []
    for _ in range(m):
        if draw(st.integers(0, 4)) == 0:
            coords.append(PAdicNumber.zero(p))
            continue
        val = draw(st.integers(-2, 3))
        prec = max(1, res - val) + draw(st.integers(0, 3))
        coords.append(_make(p, val, draw(st.integers(1, p ** prec - 1)),
                            val + prec))
    return PAdicVector(coords)


@st.composite
def stepanoff_cases(draw):
    """One or two components drawn from a pool of polynomial and indicator
    terms, with p in numerators and denominators and an optional
    /(1 + p*q*x_i), so T has one row or two; points that share a coarsest
    ball and some that do not, and eps in {0, p^-k, p^k, 5/7}.  Windows
    end at most three digits past the resolution, so where
    thr = F + val(z - x) passes them the windowed test runs."""
    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(1, 2))
    js, res = draw(level_sets(p, m))
    coef = st.sampled_from([1, 2, p, -p, Fraction(1, p), Fraction(3, p * p)])
    var = st.sampled_from([f"x{i}" for i in range(m)])
    terms = [f"({draw(coef)})*{draw(var)}*{draw(var)}",
             f"({draw(coef)})*{draw(var)}", f"({draw(coef)})"]
    if draw(st.booleans()):
        terms[0] += f"/(1+{p * draw(st.integers(1, 3))}*{draw(var)})"
    if draw(st.booleans()):
        centre = ",".join(str(draw(st.integers(0, p))) for _ in range(m))
        terms.append(f"{draw(coef)}*ch({centre};{draw(st.integers(1, 2))})")
    sources = ["+".join(terms)]
    if draw(st.booleans()):
        sources.append("+".join(draw(st.lists(
            st.sampled_from(terms), min_size=1, max_size=3, unique=True))))
    f = SymbolicFunction.from_sources(p, sources, m=m)
    pts = [draw(windowed_points(p, m, res))]
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            pts.append(draw(windowed_points(p, m, res)))
            continue
        shift = [PAdicNumber.from_int(p, draw(st.integers(0, p ** 2)))
                 * Fraction(p) ** js[0] for _ in range(m)]
        pts.append(pts[0] + PAdicVector(shift))
    k = draw(st.integers(1, 3))
    eps = draw(st.sampled_from([Fraction(0), Fraction(p) ** -k,
                                Fraction(p) ** k, Fraction(5, 7)]))
    return f, pts, js, res, eps


def _outcome(compute):
    """The value, or the kind of PadicError raised on the way."""
    try:
        return compute()
    except PadicError as exc:
        return type(exc)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(stepanoff_cases())
def test_ap_derivatives_match_the_reference(case):
    f, pts, js, res, eps = case
    assert _outcome(lambda: ap_derivatives(f, pts, js, eps, resolution=res)) \
        == _outcome(lambda: [ref.ap_derivative(f, x, js, eps, resolution=res)
                             for x in pts])


def _counting_windowed(monkeypatch):
    """The pairs left to the windowed test, one call each."""
    calls = []
    original = quotients._windowed_vals

    def counting(p, z, *rest):
        calls.append(z)
        return original(p, z, *rest)

    monkeypatch.setattr(quotients, "_windowed_vals", counting)
    return calls


def test_integers_decide_every_pair_of_the_benchmark_scan(monkeypatch):
    calls = _counting_windowed(monkeypatch)
    f = SymbolicFunction.from_sources(5, ["-4+2*x0+x0*x0"], m=1)
    scan = stepanoff_scan(f, Ball(PAdicVector.zero(5, 1), 0), 2,
                          Fraction(1, 25))
    assert (scan.good, scan.total) == (25, 25)
    assert calls == []


def test_f_below_a_point_scale_is_decided_on_integers(monkeypatch):
    """f is x0 + 1/125 on B(3, 5^-2), of valuation -3 there, and x0 off
    it.  The points 8, 13, 18 and 23 have f(x) of valuation 0, and they
    share their level-1 ball with those cosets: the ball's one integer
    scale takes in every f(z) its points need, so no pair is left to the
    windowed test."""
    calls = _counting_windowed(monkeypatch)
    f = SymbolicFunction.from_sources(5, ["x0+ch(3;2)/125"], m=1)
    domain = Ball(PAdicVector.zero(5, 1), 0)
    eps = Fraction(1, 25)
    new = stepanoff_scan(f, domain, 2, eps)
    assert calls == []
    assert (new.good, new.total) == (25, 25)
    assert new == ref.stepanoff_scan(f, domain, 2, eps)


def test_eps_zero_takes_the_windowed_test(monkeypatch):
    calls = _counting_windowed(monkeypatch)
    f = SymbolicFunction.from_sources(5, ["-4+2*x0+x0*x0"], m=1)
    domain = Ball(PAdicVector.zero(5, 1), 0)
    new = stepanoff_scan(f, domain, 2, 0)
    assert len(calls) == 25 * 624
    assert new == ref.stepanoff_scan(f, domain, 2, 0)


def test_short_windows_take_the_windowed_test(monkeypatch):
    """x = 3 known to two digits: thr = 4 + val(z - x) passes the window
    W = 2 of every difference, so no pair is decided on integers."""
    calls = _counting_windowed(monkeypatch)
    f = SymbolicFunction.from_sources(5, ["x0*x0*x0"], m=1)
    x = PAdicVector([_make(5, 0, 3, 2)])
    eps = Fraction(1, 625)
    new = ap_derivative(f, x, (0, 1, 2), eps, resolution=2)
    assert len(calls) == 24
    assert new == ref.ap_derivative(f, x, (0, 1, 2), eps, resolution=2)


def test_a_short_value_window_takes_the_windowed_test():
    """On ball(0;3) f is 64 known to window 7 (constants read at prec 1);
    off it f is x0, exact to 24 digits.  At x = 1 and z = 192, err =
    64 - 192 vanishes at window 7 but not mod 2^8 = p^thr: only the
    window of f(z) keeps the integer test from calling z bad."""
    f = SymbolicFunction.from_sources(2, ["x0-x0*ch(0;3)+64*ch(0;3)"],
                                      m=1, prec=1)
    x = PAdicVector([PAdicNumber.from_int(2, 1, prec=24)])
    eps = Fraction(1, 256)
    new = ap_derivative(f, x, (0, 1, 2), eps, resolution=8)
    assert new == ref.ap_derivative(f, x, (0, 1, 2), eps, resolution=8)
    assert new.estimate.ratios[0] == (0, 126, 256)


@pytest.mark.parametrize("eps, ratios", [
    (Fraction(0), ((1, 624, 625), (2, 124, 125), (3, 24, 25))),
    (Fraction(1, 25), ((1, 500, 625), (2, 0, 125), (3, 0, 25)))])
def test_the_coset_a_point_equals_within_its_window_is_no_pair(eps, ratios):
    """x = 1 + 5^20 is known to 24 digits, its resolution-5 coset's
    representative 1 to 5: z - x = -5^20 vanishes within that window, so
    that coset is x itself and is left out of every level, as the
    reference's zero difference leaves it."""
    f = SymbolicFunction.from_sources(5, ["x0*x0*x0"], m=1)
    x = PAdicVector([PAdicNumber.from_int(5, 1 + 5 ** 20, prec=24)])
    new = ap_derivatives(f, [x], (1, 2, 3), eps, resolution=5)
    assert new == [ref.ap_derivative(f, x, (1, 2, 3), eps, resolution=5)]
    assert new[0].estimate.ratios == ratios


def test_a_point_known_short_of_the_resolution_is_refused():
    """(1 known to one digit, 4) agrees at resolution 2 with two cosets of
    its ball, which the bad-set counts once took for two cosets of one
    level: ratios (2, 2, 1) and the verdict converges-to-1, where the
    reference counts (2, 1, 1).  Such a point is refused, alone or after a
    point of its ball."""
    f = SymbolicFunction.from_sources(2, ["x0*x0+x0+1"], m=2)
    short = PAdicNumber.from_int(2, 1, prec=1)
    first = PAdicVector([short, PAdicNumber.zero(2)])
    second = PAdicVector([short, PAdicNumber.from_int(2, 4)])
    for pts in ([first, second], [second]):
        with pytest.raises(PadicError, match="short of the resolution 2"):
            ap_derivatives(f, pts, (0, 1, 2), 0, resolution=2)
    known = PAdicVector([PAdicNumber.from_int(2, 1, prec=2),
                         PAdicNumber.from_int(2, 4)])
    assert ap_derivatives(f, [known], (0, 1, 2), 0, resolution=2) == \
        [ref.ap_derivative(f, known, (0, 1, 2), 0, resolution=2)]


@pytest.mark.parametrize("resolution, code", [(13, 0), (14, 2)])
def test_scan_refuses_a_resolution_past_the_grid_windows(capsys, resolution,
                                                         code):
    """Grid representatives at K = 1 are known to 1 + 12 digits."""
    assert main(["scan", "--kind", "stepanoff", "--p", "2", "--f", "x0*x0",
                 "--domain", "ball(0;0)", "--K", "1", "--levels", "1,2,3",
                 "--resolution", str(resolution), "--eps", "1/4"]) == code
    out, err = capsys.readouterr()
    if code:
        assert out == "" and "short of the resolution 14" in err


# ---------------------------------------------------------------------------
# the tolerance compared through the valuation
# ---------------------------------------------------------------------------

@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.sampled_from(EPSILONS),
       st.one_of(st.none(), st.integers(-6, 6)), st.integers(-6, 6))
def test_tolerance_level_matches_fraction_powers(p, eps, err_val, rhs_val):
    assert ScaledBound(p, eps).holds(err_val, rhs_val) == \
        ppow_le_scaled(PPow.from_val(p, err_val), eps,
                       PPow.from_val(p, rhs_val))

