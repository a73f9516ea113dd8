"""Reference evaluation of expression trees: the node-by-node walk that
builds one PAdicNumber per node through PAdicNumber's operators.

qpcalc.funcs walks the same trees on (val, unit, prec) triples and builds a
value only per result; the tests compare the two on every node kind."""

from __future__ import annotations

from qpcalc.funcs import (Add, ChBall, Compose, Const, Coord, Div, Mul, Neg,
                          Sub)
from qpcalc.padic import (PAdicNumber, PAdicVector, PadicError,
                          PrecisionZeroDivision)


def eval_reference(e, x: PAdicVector) -> PAdicNumber:
    """The value of the expression e at the point x."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Coord):
        if e.index >= x.dim:
            raise PadicError(f"coordinate x{e.index} outside dimension "
                             f"{x.dim}")
        return x[e.index]
    if isinstance(e, Add):
        return eval_reference(e.a, x) + eval_reference(e.b, x)
    if isinstance(e, Sub):
        return eval_reference(e.a, x) - eval_reference(e.b, x)
    if isinstance(e, Mul):
        return eval_reference(e.a, x) * eval_reference(e.b, x)
    if isinstance(e, Div):
        denom = eval_reference(e.b, x)
        if denom.is_zero():
            raise PrecisionZeroDivision(
                "expression denominator vanishes at an evaluation point "
                "(nonvanishing assertion failed)")
        return eval_reference(e.a, x) / denom
    if isinstance(e, Neg):
        return -eval_reference(e.a, x)
    if isinstance(e, ChBall):
        if x.dim != e.ball.dim:
            raise PadicError("indicator dimension mismatch")
        if e.ball.contains(x):
            return PAdicNumber.from_int(e.ball.p, 1)
        return PAdicNumber.zero(e.ball.p)
    if isinstance(e, Compose):
        y = PAdicVector(eval_reference(g, x) for g in e.inners)
        return eval_reference(e.outer, y)
    raise TypeError(f"not an expression node: {e!r}")
