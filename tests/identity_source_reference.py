"""The route by which the identity suite once built its random functions:
draw the integers, print them as expression source, and parse that text
again.  Kept unchanged as the reference that `cli._poly_expr`, which
builds the expression tree directly, must agree with: the same tree, the
same draws from the generator, and the same identity results.
"""

from __future__ import annotations

import random

from qpcalc.funcs import parse_expr


def poly_source(rng: random.Random, m: int, p: int, indicator: bool) -> str:
    terms = []
    for _ in range(rng.randrange(1, 4)):
        c = rng.choice([c for c in range(-4, 5) if c])
        factors = [str(c)]
        for coord in range(m):
            factors.extend([f"x{coord}"] * rng.randrange(0, 3))
        terms.append("*".join(factors))
    src = "+".join(terms).replace("+-", "-")
    if indicator:
        center = ",".join(str(rng.randrange(p ** 2)) for _ in range(m))
        src += f"+{rng.randrange(1, p)}*ch({center};{rng.randrange(3)})"
    return src


def poly_expr(rng: random.Random, m: int, p: int, indicator: bool,
              prec: int):
    """parse_expr of poly_source: a drop-in for `cli._poly_expr`."""
    return parse_expr(poly_source(rng, m, p, indicator), p, prec=prec)
