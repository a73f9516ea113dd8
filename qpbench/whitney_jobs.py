"""The ``whitney`` workload: ``whitney build`` and ``whitney eval`` on coset
unions in Q_5^2 and Q_5, ``whitney verify`` in Q_5, plus ``decompose`` on
step functions.

Sources are integer polynomials (the exact jet route) and linear parts plus
ball indicators (the limit route), so jets differ across cosets and the
compatibility modulus has cross-class pairs to scan.  Expected jets are
truncated Taylor polynomials expanded here with exact rationals.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import comb

from jobs import Job, expect
from padic_ints import (P, ball_literal, ball_points, balls_text, literal,
                        number_value, parse, parse_vec, vp_frac)
from pointwise import (Source, _vec, congruent, in_ball, random_indicators,
                       random_poly_terms)


# ---------------------------------------------------------------------------
# exact jets
# ---------------------------------------------------------------------------

def _shift(poly: dict, z, sign: int) -> dict:
    """Coefficients of poly(w + sign*z) as a polynomial in w."""
    out = {}
    for exps, c in poly.items():
        partial = {(): Fraction(c)}
        for zi, e in zip(z, exps):
            partial = {key + (a,): coef * comb(e, a) * (sign * zi) ** (e - a)
                       for key, coef in partial.items() for a in range(e + 1)}
        for key, coef in partial.items():
            out[key] = out.get(key, 0) + coef
    return {e: c for e, c in out.items() if c}


def expected_jet(f: Source, z, degree: int) -> dict:
    """Taylor polynomial of f at z through total degree `degree`, in the
    ambient coordinates; indicators contribute their (locally constant)
    value at z."""
    poly = {}
    for c, exps in f.terms:
        poly[exps] = poly.get(exps, 0) + Fraction(c)
    around = {e: c for e, c in _shift(poly, z, 1).items() if sum(e) <= degree}
    const = (0,) * f.m
    around[const] = around.get(const, 0) + sum(
        a for a, center, k in f.indicators if in_ball(z, center, k))
    return _shift(around, z, -1)


def _jet_terms(table) -> dict:
    out = {}
    for exps, c in table:
        num, den = c.split("/")
        out[tuple(exps)] = Fraction(int(num), int(den))
    return out


def _a_points(balls, res):
    return [x for c, k in balls for x in ball_points(len(c), res, c, k)]


class JetSource:
    """One `whitney build` job's inputs, shared with the jobs reading its
    jets file."""

    def __init__(self, f: Source, balls, res: int, k: int, jets):
        self.f = f
        self.balls = balls
        self.res = res
        self.k = k
        self.jets = jets                     # path of the jets file

    @property
    def globally_polynomial(self) -> bool:
        """f has no indicators and degree <= k+1: every jet equals f and the
        glue equals f everywhere."""
        return not self.f.indicators and self.f.degree() <= self.k + 1

    def outside(self, x) -> bool:
        return not any(in_ball(x, c, k) for c, k in self.balls)


def build_job(name, src: JetSource):
    points = _a_points(src.balls, src.res)

    def check(res_):
        rep = json.loads(res_.report)
        expect(rep["k"] == src.k and rep["resolution"] == src.res,
               "wrong k or resolution")
        zs = [tuple(int(c) for c in parse_vec(z)) for z, _ in rep["jets"]]
        expect(sorted(zs) == sorted(points),
               f"{len(zs)} jets, not one per grid point of A")
        for z, (_, tables) in zip(zs, rep["jets"]):
            got = _jet_terms(tables[0])
            want = expected_jet(src.f, z, src.k + 1)
            if src.f.indicators:
                # limit-route coefficients are p-adic limits, known to the
                # 12-digit window of the indicator values they come from
                ok = all(vp_frac(got.get(e, 0) - want.get(e, 0)) is None
                         or vp_frac(got.get(e, 0) - want.get(e, 0)) >= 12
                         for e in set(got) | set(want))
            else:
                ok = got == want
            expect(ok, f"jet at {z} is wrong")

    return Job(name, ["whitney", "build", "--p", "5", "--f=" + src.f.text(),
                      "--m", str(src.f.m), "--set", balls_text(src.balls),
                      "--resolution", str(src.res), "--k", str(src.k),
                      "--out", str(src.jets)], src.jets, check)


def eval_job(name, src: JetSource, x, workdir, glue_res=None):
    """g(x) = f(x) at a grid point of A, and anywhere for a globally
    polynomial source."""
    out = workdir / f"{name}.json"
    if src.outside(x) and not src.globally_polynomial:
        raise ValueError("no independent answer for this eval point")

    def check(res_):
        rep = json.loads(res_.report)
        expect(congruent(src.f(x), rep["value"][0]),
               f"g({x}) = {rep['value'][0]} but f({x}) = {src.f(x)}")

    argv = ["whitney", "eval", "--jets", str(src.jets), "--x", _vec(x)]
    if glue_res is not None:
        argv += ["--resolution", str(glue_res)]
    return Job(name, argv + ["--out", str(out)], out, check)


def verify_job(name, src: JetSource, seed, samples, workdir, glue_res=None):
    out = workdir / f"{name}.json"

    def check(res_):
        rep = json.loads(res_.report)
        expect([row["order"] for row in rep["rows"]] == list(range(src.k + 1)),
               "rows do not cover every order j <= k")
        for row in rep["rows"]:
            observed = Fraction(row["observed"])
            bound = Fraction(row["bound"])
            expect(row["samples"] == samples, "wrong sample count")
            expect(row["dominated"] is True
                   and (observed <= bound or observed == 0),
                   f"order {row['order']}: {observed} not dominated by {bound}")
            if src.globally_polynomial:
                expect(observed == 0, "glue of a polynomial is not exact")

    argv = ["whitney", "verify", "--jets", str(src.jets), "--seed", str(seed),
            "--samples", str(samples)]
    if glue_res is not None:
        argv += ["--resolution", str(glue_res)]
    return Job(name, argv + ["--out", str(out)], out, check)


# ---------------------------------------------------------------------------
# indicator-series decomposition
# ---------------------------------------------------------------------------

def decompose_job(rng, workdir, name, m, tol, tabulated):
    """A step function: a grid table of values constant on cosets one level
    coarser, or (tabulated) 1 + ch(B1) + 2 ch(B2) + 3 ch(B3) tabulated by
    qpcalc, with disjoint balls of radius 5^-1, 5^-2, 5^-2 drawn by the
    seed, so every seed makes the same series."""
    res = 3 if m == 1 else 2
    out = workdir / f"{name}.json"
    points = ball_points(m, res)
    if not tabulated:
        # a grid table of values constant on cosets one level coarser
        level = res - 1
        coarse = {}
        for x in points:
            key = tuple(c % P ** level for c in x)
            if key not in coarse:
                coarse[key] = rng.randrange(P ** tol) if rng.random() < 0.8 \
                    else 0
        value = {x: Fraction(coarse[tuple(c % P ** level for c in x)])
                 for x in points}
        src = workdir / f"{name}.in.json"
        src.write_text(json.dumps({
            "domain": {"center": ["0@5"] * m, "rad_exp": 0},
            "resolution": res, "dims": [m, 1],
            "table": [[[literal(c) for c in x], [literal(int(value[x]))]]
                      for x in points]}))
        argv = ["decompose", "--in", str(src)]
    else:
        balls = _disjoint_balls(rng, m, [1, 2, 2])
        f = Source(m, [(1, (0,) * m)],
                   [(a, c, k) for a, (c, k) in zip((1, 2, 3), balls)])
        value = {x: f(x) for x in points}
        argv = ["decompose", "--p", "5", "--f=" + f.text(), "--m", str(m),
                "--domain", ball_literal((0,) * m, 0),
                "--resolution", str(res)]

    def check(res_):
        rep = json.loads(res_.report)
        approx = {x: Fraction(0) for x in points}

        def residual():
            worst = Fraction(0)
            for x in points:
                v = vp_frac(value[x] - approx[x])
                if v is not None:
                    worst = max(worst, Fraction(P) ** -v)
            return worst

        last = residual()
        for term in rep["terms"]:
            yv = number_value(term["y"])
            for rep_lits, ind in term["set"]["table"]:
                if parse(ind[0]) == 1:
                    x = tuple(int(c) for c in parse_vec(rep_lits))
                    approx[x] += yv
            now = residual()
            expect(now <= last, "a partial residual increased")
            last = now
        expect(last <= Fraction(P) ** -tol, f"residual {last} > 5^-{tol}")
        expect(Fraction(rep["residual"]) == last, "reported residual differs")

    return Job(name, argv + ["--tol-exp", str(tol), "--out", str(out)],
               out, check)


# ---------------------------------------------------------------------------
# the job list
# ---------------------------------------------------------------------------

def _disjoint_balls(rng, m, ks, skip_zero=False):
    """Balls ball(c; k) in Z_5^m, one per k in ks, whose radius-p^-1 parents
    are distinct: they are disjoint, and with every k <= 2 each point off
    them is at distance 1 or p^-1."""
    parents = ball_points(m, 1)[1 if skip_zero else 0:]
    parents = rng.sample(parents, len(ks))
    return [(tuple(c + P * rng.randrange(P ** (k - 1)) for c in parent), k)
            for parent, k in zip(parents, ks)]


def _outside_point(rng, src: JetSource, depth: int):
    while True:
        x = tuple(rng.randrange(P ** depth) for _ in range(src.f.m))
        if src.outside(x):
            return x


def make_jobs(rng, workdir) -> list:
    """50 jobs: one jet field in Q_5^2, nine in Q_5, and decompositions.
    Shapes, degrees and counts are fixed per job; the seed draws the balls,
    points and coefficients.

    Job costs come in blocks so that the median (jobs 25 and 26 by cost)
    falls inside the 25 quick evals, verifies and Z_5 decompositions, and
    the tail (job 40) inside the 13 Z_5^2 decompositions."""
    jobs = []

    def name(kind):
        return f"{kind}{len(jobs):02d}"

    # Q_5^2: a field of 1250 jets of a quadratic with k = 1 (the JSON codec
    # at scale), evaluated with the glue at resolution 3 (15625 cosets)
    f = Source(2, random_poly_terms(rng, 2, 2))
    src = JetSource(f, _disjoint_balls(rng, 2, [1, 1]), 3, 1,
                    workdir / "jets2d.json")
    jobs.append(build_job(name("build"), src))
    pts = _a_points(src.balls, 3)
    jobs.append(eval_job(name("eval"), src, rng.choice(pts), workdir, 3))
    # Q_5: nine fields with k = 1, jets at resolution 3, glued at resolution
    # 4.  The first is a cubic on ball(.;1) and ball(.;2), 30 jets, so its
    # jets differ and verify scans cross-class pairs; then four polynomials
    # of degree <= 2 and four lines plus a ball indicator (the limit route),
    # each on two balls of radius 5^-2: 10 jets.
    for i in range(9):
        if i == 0:
            f, ks = Source(1, random_poly_terms(rng, 1, 3)), [1, 2]
        elif i <= 4:
            f, ks = Source(1, random_poly_terms(rng, 1, 1 + i % 2)), [2, 2]
        else:
            # a unit slope and a set A off 0: with a slope divisible by p, a
            # nonlinear part, or a jet at 0, the limit route fails on some
            # seeds (see CHANGES.md)
            linear = [(rng.randrange(1, P), (1,)), (rng.randrange(1, 10), (0,))]
            f, ks = Source(1, linear, random_indicators(rng, 1, 1, 2)), [2, 2]
        src = JetSource(f, _disjoint_balls(rng, 1, ks, bool(f.indicators)),
                        3, 1, workdir / f"jets1d{i}.json")
        jobs.append(build_job(name("build"), src))
        pts = _a_points(src.balls, 3)
        jobs.append(eval_job(name("eval"), src, rng.choice(pts), workdir, 4))
        x = _outside_point(rng, src, 4) if src.globally_polynomial \
            else rng.choice(pts)
        jobs.append(eval_job(name("eval"), src, x, workdir, 4))
        if i <= 4:
            jobs.append(verify_job(name("verify"), src, rng.randrange(10 ** 6),
                                   6, workdir, 4))
    for i in range(3):                 # grid tables on Z_5
        jobs.append(decompose_job(rng, workdir, name("decompose"), 1,
                                  2 + i % 2, False))
    for i in range(50 - len(jobs)):    # tabulated from --f on Z_5^2
        jobs.append(decompose_job(rng, workdir, name("decompose"), 2, 2,
                                  True))
    # builds first (eval and verify read their jet files), then the rest
    # in a fixed shuffled order, as in the other workloads
    builds = [job for job in jobs if job.name.startswith("build")]
    rest = [job for job in jobs if not job.name.startswith("build")]
    random.Random("order").shuffle(rest)
    return builds + rest
