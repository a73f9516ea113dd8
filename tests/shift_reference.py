"""Reference for the descent's coset bound.

`shifted_low` is the straightforward version of `measure._shifted_low`:
for every exponent a != 0 below some term of the integer table it sums
the binomial terms G_b C(b, a) H^(b - a) over the exponents b >= a, with
no Taylor shift shared between them.  tests/test_taylor_shift.py requires
the shift-based version in qpcalc to agree with it.
"""

import itertools
import math

from qpcalc.padic import _vp


def shifted_low(p: int, items: dict, H, k: int):
    """The least v(b_a D) over a != 0 of the polynomial sum_b G_b
    (H + p^k*u)^b in u: b_a = p^(k|a|) sum_(b >= a) G_b C(b, a)
    H^(b - a)."""
    low = math.inf
    downs = {a for b in items for a in itertools.product(
        *[range(e + 1) for e in b]) if any(a)}
    for a in downs:
        t = 0
        for b, g in items.items():
            if all(e >= d for e, d in zip(b, a)):
                for h, e, d in zip(H, b, a):
                    g *= math.comb(e, d) * h ** (e - d)
                t += g
        if t:
            low = min(low, k * sum(a) + _vp(t, p))
    return low
