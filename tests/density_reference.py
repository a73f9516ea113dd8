"""The per-level density loop and the per-point Stepanoff loop that
measure.density_at, measure.union_density and quotients.ap_derivatives
replaced: B(x, p^-j) enumerated afresh for every level j, f evaluated
afresh for every grid point, and tolerances compared as Fraction powers
(ppow_le_scaled).  test_density_counts.py requires the counting versions to
give the same ratios, verdicts and failures."""

from fractions import Fraction

from norm_reference import ppow_le_scaled
from qpcalc.funcs import local_jet
from qpcalc.measure import (DEFAULT_CAP, DensityEstimate, GridFunction,
                            _verdict, enumerate_cosets)
from qpcalc.padic import Ball, PAdicNumber, PAdicVector, PadicError, PPow
from qpcalc.quotients import _VALUE_PREC, ApDerivative, StepanoffScan


def density_at(indicator, x: PAdicVector, j_range, resolution=None,
               cap=DEFAULT_CAP) -> DensityEstimate:
    """Exact density ratios of {indicator} in B(x, p^-j) for j in j_range."""
    js = sorted(j_range)
    if not js:
        raise PadicError("empty resolution range")
    res = resolution if resolution is not None else 2 * js[-1] + 1
    if res < js[-1]:
        raise PadicError("enumeration resolution is coarser than the finest ball")
    p, m = x.p, x.dim
    entries = []
    for j in js:
        reps = enumerate_cosets(Ball(x, j), res, cap=cap)
        count = sum(1 for r in reps if indicator(r))
        entries.append((j, count, len(reps)))
    return DensityEstimate(tuple(entries), _verdict(p, entries, js[0]), p)


def ap_limit(f, x: PAdicVector, candidate, eps: Fraction, j_range,
             resolution=None, cap=DEFAULT_CAP):
    if isinstance(candidate, PAdicNumber):
        candidate = PAdicVector([candidate])
    eps = Fraction(eps)
    if eps < 0:
        raise PadicError("the tolerance eps must be >= 0")
    if isinstance(f, GridFunction):
        fn = f.evaluate
        if resolution is None:
            resolution = max(f.resolution, max(j_range))
    else:
        fn = f

    one = PPow(x.p, 0)

    def outside(z):
        err = (fn(z) - candidate).norm_pow()
        return not ppow_le_scaled(err, eps, one)

    est = density_at(outside, x, j_range, resolution=resolution, cap=cap)
    verdict = {"converges-to-0": "confirmed",
               "converges-to-1": "refuted"}.get(est.verdict, "inconclusive")
    return verdict, est


def ap_derivative(f, x: PAdicVector, j_range, eps, resolution=None,
                  cap=DEFAULT_CAP) -> ApDerivative:
    eps = Fraction(eps)
    if eps < 0:
        raise PadicError("the tolerance eps must be >= 0")
    m, p = x.dim, x.p
    xf = [c.as_fraction() for c in x.coords]
    units = [tuple(int(i == k) for k in range(m)) for i in range(m)]
    t = tuple(tuple(PAdicNumber.from_fraction(p, jet.coefficient(e),
                                              prec=_VALUE_PREC)
                    for e in units)
              for jet in (local_jet(num, den, xf, 1)
                          for num, den in f.localize(x)))
    fx = f(x)

    def apply(dz: PAdicVector) -> PAdicVector:
        """T(dz), row by row: T_r0*dz_0 + T_r1*dz_1 + ... from the left."""
        out = []
        for row in t:
            acc = row[0] * dz[0]
            for a, c in zip(row[1:], dz.coords[1:]):
                acc = acc + a * c
            out.append(acc)
        return PAdicVector(out)

    def bad(z: PAdicVector) -> bool:
        dz = z - x
        if dz.val is None:
            return False
        err = (f(z) - fx - apply(dz)).norm_pow()
        return not ppow_le_scaled(err, eps, dz.norm_pow())

    est = density_at(bad, x, j_range, resolution=resolution, cap=cap)
    return ApDerivative(linear_map=t, estimate=est, eps=eps)


def stepanoff_scan(f, domain: Ball, K: int, eps, j_range=(1, 2, 3),
                   resolution=None, cap=DEFAULT_CAP) -> StepanoffScan:
    if resolution is None:
        resolution = max(j_range) + 2
    good, failures = 0, []
    reps = enumerate_cosets(domain, K, cap=cap)
    for x in reps:
        res = ap_derivative(f, x, j_range, eps, resolution=resolution,
                            cap=cap)
        if res.verdict == "converges-to-0":
            good += 1
        elif len(failures) < 16:
            failures.append(x)
    return StepanoffScan(fraction=Fraction(good, len(reps)), good=good,
                         total=len(reps), failures=tuple(failures))
