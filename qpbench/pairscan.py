"""The ``pairscan`` workload: all-pairs verbs (``scan --kind holder``,
``certify``, ``extend``, ``cheb``, ``ej``) on seeded grid functions and site
sets in Q_5 and Q_5^2.

Every expected answer is recomputed here from the generating integers with
plain integer valuations, never through qpcalc.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

from jobs import Job, expect
from padic_ints import (P, WINDOW, ball_literal, ball_points, ceil_frac,
                        frac_str, literal, number_json, parse, parse_vec, vp,
                        vp_frac)
from pointwise import Source

MOD = P ** WINDOW


# ---------------------------------------------------------------------------
# generating data
# ---------------------------------------------------------------------------

def _poly(rng, m: int, degree: int) -> Source:
    """Integer polynomial (1-Lipschitz on Z_p^m) with every monomial of total
    degree <= degree and random coefficients."""
    exponents = itertools.product(range(degree + 1), repeat=m)
    return Source(m, [(rng.randrange(MOD), exps) for exps in exponents
                      if sum(exps) <= degree])


class ScaledValues:
    """Values p^shift * n(x) with n(x) an integer below p^WINDOW."""

    def __init__(self, ints: dict, shift: int):
        self.ints = ints
        self.shift = shift

    def literal(self, x) -> str:
        return literal(self.ints[x], self.shift)

    def diff_val(self, x, y):
        """Valuation of value(x) - value(y); None when they agree."""
        d = self.ints[x] - self.ints[y]
        return None if d == 0 else self.shift + vp(d)

    def exact(self, x) -> Fraction:
        return Fraction(self.ints[x]) * Fraction(P) ** self.shift


def _noisy_values(rng, points, noise_exp: int, shift: int) -> ScaledValues:
    """p^shift * (cubic integer polynomial + p^noise_exp * random noise)."""
    m = len(points[0])
    poly = _poly(rng, m, 3)
    ints = {x: (poly(x) + P ** noise_exp * rng.randrange(P ** (WINDOW - noise_exp)))
            % MOD for x in points}
    return ScaledValues(ints, shift)


def point_val(x, y):
    """Valuation of the sup-norm of x - y for integer tuples; None if equal."""
    vals = [vp(a - b) for a, b in zip(x, y) if a != b]
    return min(vals) if vals else None


def _grid_json(points, values: ScaledValues, center, k: int, K: int) -> dict:
    m = len(points[0])
    return {"domain": {"center": [literal(c) for c in center], "rad_exp": k},
            "resolution": K, "dims": [m, 1],
            "table": [[[literal(c) for c in x], [values.literal(x)]]
                      for x in points]}


def _write(path, obj) -> None:
    path.write_text(json.dumps(obj))


# ---------------------------------------------------------------------------
# brute-force answers
# ---------------------------------------------------------------------------

def max_ratio_exp(points, values: ScaledValues, r: Fraction):
    """max over pairs of log_p(|f(x)-f(y)| / |x-y|^r); None if f is constant."""
    best = None
    for i, x in enumerate(points):
        for y in points[i + 1:]:
            vf = values.diff_val(x, y)
            if vf is None:
                continue
            e = r * point_val(x, y) - vf
            if best is None or e > best:
                best = e
    return best


def _ppow_exp(obj):
    """Exponent of a PPow report as a Fraction, None for the zero magnitude."""
    if obj.get("zero"):
        return None
    num, den = obj["exp"]
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------

def holder_job(rng, workdir, name, m, K, k, noise_exp, r):
    center = _center(rng, m, k)
    points = ball_points(m, K, center, k)
    values = _noisy_values(rng, points, noise_exp, rng.randrange(-1, 2))
    src = workdir / f"{name}.in.json"
    out = workdir / f"{name}.out.json"
    _write(src, _grid_json(points, values, center, k, K))

    def check(res):
        rep = json.loads(res.report)
        expect(rep["verb"] == "scan" and rep["kind"] == "holder", "wrong verb")
        expected = max_ratio_exp(points, values, r)
        got = _ppow_exp(rep["ratio"])
        expect(got == expected, f"ratio exponent {got} != {expected}")
        if expected is None:
            expect(rep["witness"] is None, "witness for a constant function")
            return
        expect(rep["constant"] == frac_str(Fraction(P) ** ceil_frac(expected)),
               f"constant {rep['constant']} != 5^ceil({expected})")
        x, y = (tuple(int(c) for c in parse_vec(w)) for w in rep["witness"])
        vf = values.diff_val(x, y)
        expect(vf is not None and r * point_val(x, y) - vf == expected,
               "witness pair does not attain the maximal ratio")

    return Job(name, ["scan", "--kind", "holder", "--in", str(src),
                      "--r", frac_str(r), "--out", str(out)], out, check)


def _sample_set(rng, m, K, count, r):
    """Distinct sites of the depth-K grid of Z_p^m with values p^t * (integer
    polynomial + p^K noise): (p^-t, r)-Hölder for r in (0, 1]."""
    sites = rng.sample(ball_points(m, K), count)
    t = rng.randrange(-1, 2)
    values = _noisy_values(rng, sites, K, t)
    obj = {"constants": {"C": frac_str(Fraction(P) ** -t), "r": frac_str(r)},
           "points": [[[literal(c) for c in x], [values.literal(x)]]
                      for x in sites]}
    return sites, values, r, -t, obj


def violations(sites, values: ScaledValues, r: Fraction, c_exp):
    """Pairs i < j, in the program's loop order, with
    |f(x_i) - f(x_j)| > p^c_exp |x_i - x_j|^r, each with the exponents of
    the value gap and of |x_i - x_j|^r."""
    found = []
    for i, x in enumerate(sites):
        for j in range(i + 1, len(sites)):
            vf = values.diff_val(x, sites[j])
            if vf is not None and r * point_val(x, sites[j]) - vf > c_exp:
                found.append((i, j, Fraction(-vf),
                              -r * point_val(x, sites[j])))
    return found


def _plant_violation(sites, values: ScaledValues, obj) -> None:
    """Change the lowest digit of the value at the first site that has
    another site within distance p^-1: its gap to that site becomes p^-t,
    more than the p^-t |x - y|^r the set claims."""
    b = next(i for i, x in enumerate(sites)
             if any(y != x and point_val(x, y) >= 1 for y in sites))
    x = sites[b]
    values.ints[x] = (values.ints[x] + 1) % MOD
    obj["points"][b][1] = [values.literal(x)]


def certify_job(rng, workdir, name, m, K, count, r, plant=False):
    """With plant, one site's value breaks the claimed constant and a
    correct run exits 1 with the violating pairs."""
    sites, values, r, c_exp, obj = _sample_set(rng, m, K, count, r)
    if plant:
        _plant_violation(sites, values, obj)
    src = workdir / f"{name}.in.json"
    out = workdir / f"{name}.out.json"
    _write(src, obj)

    def check(res):
        rep = json.loads(res.report)
        expected = violations(sites, values, r, c_exp)
        expect(bool(expected) == plant,
               "generated set breaks or keeps its constant (generator fault)")
        expect(rep["ok"] is not plant, "wrong verdict")
        got = [(v["i"], v["j"], _ppow_exp(v["value_gap"]),
                _ppow_exp(v["allowed"])) for v in rep["violations"]]
        expect(got == expected[:8],
               f"violations {got[:2]}... != brute force {expected[:2]}...")
        expect(rep["pairs_checked"] == count * (count - 1) // 2,
               f"pairs_checked {rep['pairs_checked']} != N(N-1)/2")

    return Job(name, ["certify", "--in", str(src), "--out", str(out)],
               out, check, code=1 if plant else 0)


def _holds_on_grid(points, vals, c_exp, r, K) -> bool:
    """|g(x)-g(y)| <= p^c_exp |x-y|^r on all pairs of a full depth-K grid of
    Z_p^m, through the ultrametric identity: the bound holds on all pairs
    exactly when, for every level L < K and every level-L coset B,
    max over s in B of |g(s) - g(s0)| <= p^c_exp * p^(-L*r)."""
    for L in range(K):
        first = {}
        for x, v in zip(points, vals):
            key = tuple(c % P ** L for c in x)
            v0 = first.setdefault(key, v)
            if v == v0:
                continue
            if -vp_frac(v - v0) > c_exp - L * r:
                return False
    return True


def extend_job(rng, workdir, name, m, K, count, r):
    sites, values, r, c_exp, obj = _sample_set(rng, m, K, count, r)
    src = workdir / f"{name}.in.json"
    out = workdir / f"{name}.out.json"
    _write(src, obj)
    domain = ball_literal((0,) * m, 0)

    def check(res):
        rep = json.loads(res.report)
        table = {}
        for rep_lits, val_lits in rep["table"]:
            x = tuple(int(c) for c in parse_vec(rep_lits))
            table[tuple(c % P ** K for c in x)] = (x, parse(val_lits[0]))
        expect(len(table) == P ** (K * m), f"{len(table)} cosets in the grid")
        for s in sites:
            expect(table[s][1] == values.exact(s),
                   f"value at site {s} not kept")
        pts = [x for x, _ in table.values()]
        vals = [v for _, v in table.values()]
        expect(_holds_on_grid(pts, vals, c_exp, r, K),
               "certified constant fails on a grid pair")

    return Job(name, ["extend", "--in", str(src), "--domain", domain,
                      "--resolution", str(K), "--out", str(out)], out, check)


def cheb_job(rng, workdir, name, m, K, count, r):
    sites = rng.sample(ball_points(m, K), count)
    weights = [(rng.randrange(1, P), rng.randrange(0, 3)) for _ in sites]
    src = workdir / f"{name}.in.json"
    out = workdir / f"{name}.out.json"
    _write(src, {"pairs": [[[literal(c) for c in z], number_json(u, e)]
                           for z, (u, e) in zip(sites, weights)]})

    def level(y):
        """log_p of the least c with |y - z_i| <= |x_i|^r c for all i."""
        worst = None
        for z, (_, e) in zip(sites, weights):
            v = point_val(y, z)
            if v is not None and (worst is None or r * e - v > worst):
                worst = r * e - v
        return worst

    def check(res):
        rep = json.loads(res.report)
        expected = min(level(y) for y in ball_points(m, K))
        got = _ppow_exp(rep["c"])
        expect(got == expected, f"radius exponent {got} != grid min {expected}")
        q = tuple(int(c) for c in parse_vec(rep["q"]))
        expect(level(q) <= expected, "reported q is not in X_c")
        tight = [i for i, (z, (_, e)) in enumerate(zip(sites, weights))
                 if point_val(q, z) is not None
                 and r * e - point_val(q, z) == expected]
        expect(rep["tight"] == tight, "tight sites differ")

    return Job(name, ["cheb", "--in", str(src), "--r", frac_str(r),
                      "--out", str(out)], out, check)


def ej_job(rng, workdir, name, m, K, k, noise_exp, r):
    center = _center(rng, m, k)
    points = ball_points(m, K, center, k)
    values = _noisy_values(rng, points, noise_exp, 0)
    src = workdir / f"{name}.in.json"
    out = workdir / f"{name}.out.json"
    _write(src, _grid_json(points, values, center, k, K))

    def check(res):
        rep = json.loads(res.report)
        expect(rep["verified"] is True, "decomposition not verified")
        seen = []
        classes = []
        for cls in rep["classes"]:
            pts = [tuple(int(c) for c in parse_vec(z)) for z in cls["points"]]
            classes.append((cls["j"], pts))
            seen += pts
        seen += [tuple(int(c) for c in parse_vec(z)) for z in rep["unassigned"]]
        expect(sorted(seen) == sorted(points),
               "classes and unassigned do not partition the grid")
        for j, pts in classes:
            for a, x in enumerate(pts):
                for y in pts[a + 1:]:
                    vx = point_val(x, y)
                    if vx <= j:              # only pairs closer than p^-j
                        continue
                    vf = values.diff_val(x, y)
                    expect(vf is None or vf >= r * vx - j,
                           f"E_{j} bound fails at {x}, {y}")

    return Job(name, ["ej", "--in", str(src), "--r", frac_str(r),
                      "--out", str(out)], out, check)


def _center(rng, m, k):
    return tuple(rng.randrange(P ** k) for _ in range(m))


ONE, HALF = Fraction(1), Fraction(1, 2)


def make_jobs(rng, workdir) -> list:
    """50 jobs on grids of N = 25, 125 and 625 cosets.  Sizes, exponents
    and noise levels are fixed per job, so every seed does the same work;
    the seed draws sites, centers, coefficients and noise.

    Job costs come in blocks of equal size so that the median (jobs 25 and
    26 by cost) and the tail (job 40) fall inside a block of like jobs, not
    in a gap between two kinds: 17 small jobs, 16 certify runs of 50 sites
    (the median block; 4 with a planted violation), 2 mid-size jobs, 12
    holder scans at N = 125 (the tail block) and 3 large jobs."""
    jobs = []

    def add(kind, fn, *args):
        jobs.append(fn(rng, workdir, f"{kind}{len(jobs):02d}", *args))

    for i in range(8):                 # N = 25 in Z_5 and Z_5^2
        m = 1 + i % 2
        add("holder", holder_job, m, 3 - m, 0, i % 3, (ONE, HALF)[i // 4])
    for i in range(4):
        add("ej", ej_job, 1, 3, 1, 1 + i % 2, (ONE, HALF)[i % 2])
    for i in range(4):
        add("cheb", cheb_job, 1, 3, 40, (ONE, HALF)[i % 2])
    add("certify", certify_job, 2, 2, 40, HALF)   # sites of Z_5^2 at depth 2
    for i in range(16):                # sites of the N = 625 grid of Z_5
        if i % 4 == 3:                 # one value breaks the constant
            add("violation", certify_job, 1, 4, 50, (ONE, HALF)[i % 2], True)
        else:
            add("certify", certify_job, 1, 4, 50, (ONE, HALF)[i % 2])
    add("extend", extend_job, 1, 4, 14, ONE)
    add("cheb", cheb_job, 2, 2, 70, HALF)
    for i in range(12):                # N = 125 at depths 3 and 4 of Z_5
        k = i % 2
        add("holder", holder_job, 1, 3 + k, k, i % 4, (ONE, HALF)[i // 6])
    add("ej", ej_job, 1, 3, 0, 1, ONE)
    add("extend", extend_job, 2, 2, 40, HALF)     # to all 625 cosets of Z_5^2
    add("cheb", cheb_job, 2, 2, 160, ONE)
    # a fixed shuffled order, the same for every seed: like jobs are spread
    # over the round instead of running back to back, so a slow second of
    # the host does not slow a whole block of them
    random.Random("order").shuffle(jobs)
    return jobs
