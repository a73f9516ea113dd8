"""The ``pointwise`` workload: per-point verbs (``density``, ``aplimit``,
``scan --kind stepanoff``, ``quotient``, ``taylor`` and ``identities`` at
``--jobs 1`` and ``--jobs 2``) on seeded expressions, sets and points in Q_5
and Q_5^2.

Expected answers are exact rational evaluations of the generating
polynomials and indicators, computed here without qpcalc.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction

from jobs import Job, expect
from padic_ints import (P, ball_points, balls_text, frac_str, parse,
                        vp_frac)


# ---------------------------------------------------------------------------
# source functions: integer polynomials plus ball indicators
# ---------------------------------------------------------------------------

class Source:
    """sum c * x^e  +  sum a * ch(center; k), with its expression text."""

    def __init__(self, m: int, terms, indicators=()):
        self.m = m
        self.terms = list(terms)              # [(c, exps)]
        self.indicators = list(indicators)    # [(a, center, k)]

    def text(self) -> str:
        parts = []
        for c, exps in self.terms:
            factors = [str(c)] + [f"x{i}" for i, e in enumerate(exps)
                                  for _ in range(e)]
            parts.append("*".join(factors))
        for a, center, k in self.indicators:
            parts.append(f"{a}*ch({','.join(map(str, center))};{k})")
        return "+".join(parts).replace("+-", "-")

    def degree(self) -> int:
        return max(sum(e) for _, e in self.terms)

    def __call__(self, x):
        """Exact value: an int at integer x, a Fraction at rational x."""
        total = 0
        for c, exps in self.terms:
            term = c
            for xi, e in zip(x, exps):
                term *= xi ** e
            total += term
        for a, center, k in self.indicators:
            if in_ball(x, center, k):
                total += a
        return total


def in_ball(x, center, k) -> bool:
    for xi, ci in zip(x, center):
        v = vp_frac(Fraction(xi) - ci)
        if v is not None and v < k:
            return False
    return True


def random_poly_terms(rng, m: int, degree: int) -> list:
    """Every monomial of total degree <= degree, with small nonzero
    coefficients (the top power of x0 keeps a unit coefficient)."""
    terms = [(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]), exps)
             for exps in itertools.product(range(degree + 1), repeat=m)
             if sum(exps) <= degree]
    top = (degree,) + (0,) * (m - 1)
    return [(rng.randrange(1, P) if e == top else c, e) for c, e in terms]


def random_indicators(rng, m: int, count: int, kmax: int) -> list:
    return [(rng.randrange(1, P),
             tuple(rng.randrange(P ** 2) for _ in range(m)),
             rng.randrange(1, kmax + 1)) for _ in range(count)]


def _vec(x) -> str:
    return ",".join(frac_str(Fraction(c)) for c in x)


def congruent(exact: Fraction, lit: str) -> bool:
    """exact agrees with the printed value on every digit of its window."""
    if lit.startswith("0@"):
        return exact == 0
    value = parse(lit)
    digits, rest = lit.split("e")
    window = int(rest.split("@")[0]) + len(digits.split(","))
    d = vp_frac(exact - value)
    return d is None or d >= window


# ---------------------------------------------------------------------------
# density of ball unions
# ---------------------------------------------------------------------------

def coset_reps(x, j: int, res: int):
    """The canonical representatives qpcalc enumerates for B(x, p^-j) at
    resolution res: integers below p^res congruent to x mod p^j."""
    return ball_points(len(x), res, tuple(xi % P ** j for xi in x), j)


def ball_count(x, j, res, center, k, m) -> int:
    """Closed form: cosets of B(x, p^-j) at resolution res inside
    ball(center; k)."""
    if k <= j:
        inside = all((xi - ci) % P ** k == 0 for xi, ci in zip(x, center))
        return P ** (m * (res - j)) if inside else 0
    inside = all((xi - ci) % P ** j == 0 for xi, ci in zip(x, center))
    return P ** (m * (res - k)) if inside else 0


def verdict(entries) -> str:
    """The decay rule over the last three levels (j0 = the first level)."""
    j0 = entries[0][0]
    tail = entries[-3:]
    if len(entries) < 3:
        return "inconclusive"

    def decays(vals):
        return all(v <= Fraction(P) ** -(j - j0) for j, v in vals)

    if decays([(j, Fraction(c, t)) for j, c, t in tail]):
        return "converges-to-0"
    if decays([(j, 1 - Fraction(c, t)) for j, c, t in tail]):
        return "converges-to-1"
    return "inconclusive"


def density_job(rng, workdir, name, m, res, shape):
    """Density at a seeded point x of a union of balls ball(c; k), one per
    (k, d) in shape, with c at distance p^-d from x (c = x for d = 3).  The
    seed draws x and the unit offsets; the shape fixes which cosets each
    ball covers, so every seed does the same work."""
    base = tuple(rng.randrange(P ** 3) for _ in range(m))
    balls = [(tuple((b + P ** d * rng.randrange(1, P)) % P ** 3 if d < 3
                    else b for b in base), k) for k, d in shape]
    out = workdir / f"{name}.csv"
    sets = balls_text(balls)

    def check(res_):
        rows = res_.report.decode().strip().splitlines()
        expect(rows[0] == "j,numerator,denominator", "bad CSV header")
        entries = []
        for j, row in zip((1, 2, 3), rows[1:]):
            jj, count, total = map(int, row.split(","))
            expect(jj == j and total == P ** (m * (res - j)),
                   f"level {jj}: total {total}")
            if len(balls) == 1:
                want = ball_count(base, j, res, *balls[0], m)
            else:
                want = sum(1 for z in coset_reps(base, j, res)
                           if any(in_ball(z, c, k) for c, k in balls))
            expect(count == want, f"level {j}: count {count} != {want}")
            entries.append((j, count, total))
        expect(len(entries) == 3, "missing levels")
        expect(res_.stdout.strip().splitlines()[-1]
               == f"verdict: {verdict(entries)}", "wrong verdict")

    return Job(name, ["density", "--p", "5", "--set", sets, "--at", _vec(base),
                      "--levels", "1,2,3", "--resolution", str(res),
                      "--out", str(out)], out, check)


def aplimit_job(rng, workdir, name, degree, nind, res):
    f = Source(1, random_poly_terms(rng, 1, degree),
               random_indicators(rng, 1, nind, 3))
    x = (rng.randrange(P ** 3),)
    target = f(x) + (0 if rng.random() < 0.7 else rng.randrange(1, P))
    eps = rng.choice([Fraction(1), Fraction(1, 5), Fraction(1, 25)])
    out = workdir / f"{name}.json"

    def off_target(z) -> bool:
        d = vp_frac(f(z) - target)
        return d is not None and Fraction(P) ** -d > eps

    def check(res_):
        rep = json.loads(res_.report)
        entries = []
        for j in (1, 2, 3):
            count = sum(1 for z in coset_reps(x, j, res) if off_target(z))
            entries.append((j, count, P ** (res - j)))
        expect([tuple(r) for r in rep["ratios"]] == entries,
               f"off-target counts {rep['ratios']} != {entries}")
        v = verdict(entries)
        expect(rep["density_verdict"] == v, "wrong density verdict")
        want = {"converges-to-0": "confirmed",
                "converges-to-1": "refuted"}.get(v, "inconclusive")
        expect(rep["verdict"] == want, "wrong ap-limit verdict")

    return Job(name, ["aplimit", "--p", "5", "--f=" + f.text(), "--x", _vec(x),
                      "--value=" + frac_str(target), "--eps", frac_str(eps),
                      "--levels", "1,2,3", "--resolution", str(res),
                      "--out", str(out)], out, check)


def unit_derivative(terms) -> bool:
    """The derivative of a polynomial in x0 is a unit on all of Z_p."""
    return all(sum(c * e[0] * x ** (e[0] - 1) for c, e in terms if e[0]) % P
               for x in range(P))


def stepanoff_job(rng, workdir, name, K, degree, nind):
    """A polynomial (nind = 0) or a locally constant mix: indicators of
    balls of radius >= p^-2 are constant on every ball the scan measures.
    The polynomial of a mix has a unit derivative everywhere: where it is
    divisible by p^3 the scan fails on some seeds (see CHANGES.md)."""
    terms = random_poly_terms(rng, 1, degree)
    while nind and not unit_derivative(terms):
        terms = random_poly_terms(rng, 1, degree)
    f = Source(1, terms, random_indicators(rng, 1, nind, 2))
    out = workdir / f"{name}.json"

    def check(res_):
        rep = json.loads(res_.report)
        expect(rep["fraction"] == [1, 1] and rep["good"] == rep["total"]
               == P ** K, f"differentiable fraction {rep['fraction']} != 1")

    return Job(name, ["scan", "--p", "5", "--kind", "stepanoff",
                      "--f=" + f.text(), "--domain", "ball(0;0)", "--K", str(K),
                      "--eps", "1/25", "--out", str(out)], out, check)


# ---------------------------------------------------------------------------
# quotients, Taylor expansions, identities
# ---------------------------------------------------------------------------

def exact_quotient(f, x, vs, ts) -> Fraction:
    """(1/n!) sum_S (-1)^(n-|S|) f(x + sum_S v_i t_i) / (t_1...t_n)."""
    n = len(vs)
    acc = Fraction(0)
    for mask in range(2 ** n):
        point = [Fraction(c) for c in x]
        bits = 0
        for i in range(n):
            if mask >> i & 1:
                bits += 1
                point = [a + Fraction(v) * ts[i] for a, v in zip(point, vs[i])]
        acc += (-1) ** (n - bits) * f(point)
    return acc / math.factorial(n) / math.prod(ts)


def quotient_job(rng, workdir, name, m, degree, nind, n):
    f = Source(m, random_poly_terms(rng, m, degree),
               random_indicators(rng, m, nind, 2))
    x = tuple(rng.randrange(P ** 3) for _ in range(m))
    vs = [tuple(rng.randrange(P ** 2) for _ in range(m)) for _ in range(n)]
    vs = [v if any(v) else (1,) * m for v in vs]
    ts = [Fraction(rng.randrange(1, P)) * Fraction(P) ** rng.randrange(0, 4)
          for _ in range(n)]
    out = workdir / f"{name}.json"
    argv = ["quotient", "--p", "5", "--f=" + f.text(), "--m", str(m),
            "--x", _vec(x)]
    for v, t in zip(vs, ts):
        argv += ["--v", _vec(v), "--t", frac_str(t)]

    def check(res_):
        rep = json.loads(res_.report)
        exact = exact_quotient(f, x, vs, ts)
        expect(congruent(exact, rep["value"][0]),
               f"quotient {rep['value'][0]} is not {exact} within its window")

    return Job(name, argv + ["--out", str(out)], out, check)


def taylor_job(rng, workdir, name, m, n, degree):
    f = Source(m, random_poly_terms(rng, m, degree))
    y = tuple(rng.randrange(P ** 3) for _ in range(m))
    x = tuple(rng.randrange(P ** 3) for _ in range(m))
    out = workdir / f"{name}.json"

    def check(res_):
        rep = json.loads(res_.report)
        expect(rep["exact"] is True, "polynomial did not take the exact route")
        expect(all(c.startswith("0@") for c in rep["residual"]),
               f"residual {rep['residual']} is not exactly 0")
        expect(congruent(f(x), rep["total"][0]), "total differs from f(x)")

    return Job(name, ["taylor", "--p", "5", "--f=" + f.text(), "--m", str(m),
                      "--y", _vec(y),
                      "--x", _vec(x), "--n", str(n), "--out", str(out)],
               out, check)


def identities_pair(rng, workdir, name, samples):
    """The same seeded suite at --jobs 1 and --jobs 2; the second report must
    be byte-identical to the first."""
    seed = rng.randrange(10 ** 6)
    outs = [workdir / f"{name}-j{jobs}.json" for jobs in (1, 2)]

    def check_exact(res_):
        rep = json.loads(res_.report)
        expect(rep["passed"] == {k: samples for k in
                                 ("chain", "product", "telescope")}
               and rep["failures"] == [], "an identity was not exact")

    def check_same(res_):
        check_exact(res_)
        expect(res_.report == outs[0].read_bytes(),
               "--jobs 2 report differs from --jobs 1")

    return [Job(f"{name}-j{jobs}",
                ["identities", "--seed", str(seed), "--samples", str(samples),
                 "--jobs", str(jobs), "--out", str(out)], out, check)
            for jobs, out, check in ((1, outs[0], check_exact),
                                     (2, outs[1], check_same))]


def make_jobs(rng, workdir) -> list:
    """50 jobs.  Dimensions, degrees, resolutions and counts are fixed per
    job, so every seed does the same work; the seed draws points, centers
    and coefficients.

    Job costs come in blocks of equal size so that the median (jobs 25 and
    26 by cost) and the tail (job 40) fall inside a block of like jobs: 16
    small quotient, taylor, aplimit and density jobs, 18 single-ball density
    jobs at resolution 6 (the median block), 12 identities runs (the tail
    block) and 4 large ones."""
    jobs = []

    def add(kind, fn, *args):
        jobs.append(fn(rng, workdir, f"{kind}{len(jobs):02d}", *args))

    for i in range(6):
        add("quotient", quotient_job, 1 + i % 2, 1 + i % 4, i % 3, 1 + i % 3)
    for i in range(4):
        n = 1 + i % 3
        add("taylor", taylor_job, 1 + i % 2, n, 1 + i % (n + 1))
    for i in range(4):
        add("aplimit", aplimit_job, 1 + i % 3, i % 3, 4)
    for shape in (((1, 1), (2, 0)), ((2, 3), (1, 0), (3, 1))):
        add("density", density_job, 1, 5, shape)
    for i in range(18):                # x inside, outside, inside the ball
        add("density", density_job, 1, 6, (((2, 3), (3, 1), (1, 2))[i % 3],))
    add("aplimit", aplimit_job, 2, 1, 6)
    for _ in range(6):
        jobs += identities_pair(rng, workdir, f"identities{len(jobs):02d}",
                                150)
    for K, degree, nind in ((2, 2, 0), (1, 3, 2)):
        add("stepanoff", stepanoff_job, K, degree, nind)
    add("density", density_job, 2, 4, ((2, 3), (3, 1)))
    # a fixed shuffled order, the same for every seed: like jobs are spread
    # over the round instead of running back to back, so a slow second of
    # the host does not slow a whole block of them
    random.Random("order").shuffle(jobs)
    return jobs
