"""The two-path coset enumeration that measure.enumerate_cosets replaced:
an integer path for integral centres and balls inside Z_p^m, and a Fraction
path (exact p-adic expansion, truncation, then a widened window) for the
rest.  test_enumeration.py requires the one-path version to give the same
representatives, digit for digit and window for window, in the same order.
"""

import itertools
from fractions import Fraction

from qpcalc.measure import DEFAULT_CAP, ResourceCapExceeded
from qpcalc.padic import (DEFAULT_PREC, PAdicNumber, PAdicVector, PadicError,
                          _make, truncate)


def enumerate_cosets(b, resolution, cap=DEFAULT_CAP):
    """All canonical representatives of radius-p^(-resolution) cosets of b,
    in deterministic (digit-lexicographic, coordinate-nested) order."""
    if resolution < b.rad_exp:
        raise PadicError("resolution must be at least the ball's rad_exp")
    p, m, k = b.p, b.dim, b.rad_exp
    count = p ** ((resolution - k) * m)
    if count > cap:
        raise ResourceCapExceeded(
            f"{count} cosets exceed the cap of {cap}; raise the cap or coarsen")

    # representatives are exact sample points, so they carry generous windows;
    # the coset identity itself lives in coset_key (truncation to `resolution`)
    base = [c.as_fraction() for c in b.center.coords]
    if k >= 0 and all(f.denominator == 1 for f in base):
        # integer fast path: representative = (center + offset) mod p^resolution
        window = resolution + DEFAULT_PREC
        offsets = [sum(d * p ** (k + i) for i, d in enumerate(digits))
                   for digits in itertools.product(range(p), repeat=resolution - k)]
        reps = []
        for combo in itertools.product(offsets, repeat=m):
            reps.append(PAdicVector(_make(p, 0, (int(bi) + off) % p**resolution, window)
                                    for bi, off in zip(base, combo)))
        return reps

    scale = Fraction(p)
    offsets = [sum(d * scale ** (k + i) for i, d in enumerate(digits))
               for digits in itertools.product(range(p), repeat=resolution - k)]
    vmin = min([k, 0] + [c.val for c in b.center.coords if not c.is_zero()])
    prec = resolution - vmin + DEFAULT_PREC
    reps = []
    for combo in itertools.product(offsets, repeat=m):
        coords = [_widen(truncate(PAdicNumber.from_fraction(p, bi + off, prec=prec), resolution),
                         resolution)
                  for bi, off in zip(base, combo)]
        reps.append(PAdicVector(coords))
    return reps


def _widen(t, resolution):
    """Restamp a truncated representative with a generous window.

    A representative's digits at positions >= resolution are zero by
    construction, so widening the window records known zeros, not guesses.
    """
    if t.is_zero():
        return t
    return PAdicNumber(t.p, t.val, t.unit, resolution - t.val + DEFAULT_PREC)
