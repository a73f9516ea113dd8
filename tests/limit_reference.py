"""The limit route that qpcalc replaced by its exact local normal form:
phi^n evaluated at t = p^j along a shrinking schedule, and a limit read
from an explicit Cauchy tail of those values, truncated to the digits the
tail certifies.  Kept unchanged as the reference that the exact values at
vanishing increments must agree with wherever it converges.
"""

from __future__ import annotations

from dataclasses import dataclass

from qpcalc.padic import PAdicNumber, PAdicVector, truncate
from qpcalc.quotients import QuotientPoint, phin

_DENOM_PREC = 64          # window for n! and assembled denominators


@dataclass(frozen=True)
class LimitReport:
    """Values of a quotient along a shrinking schedule t = p^j."""

    value: object               # PAdicVector, or None if nothing stabilized
    converged: bool
    steps: tuple                # ((j, PAdicVector), ...)
    agree: int

    def to_json(self):
        return {
            "converged": self.converged,
            "value": None if self.value is None else self.value.to_json(),
            "steps": [[j, v.to_json()] for j, v in self.steps],
            "agree": self.agree,
        }


def _auto_schedule(x: PAdicVector, vs, fx: PAdicVector, agree: int,
                   n: int) -> range:
    """Shrink t deep enough for a genuine limit to show a Cauchy tail, but
    not so deep that the order-n quotient (which divides by t^n) runs out of
    certified digits: new digits stop appearing past W/(n+1), and the window
    W - n*j must stay positive.  W is the shortest window of x, of the
    directions vs and of the value fx = f(x); at x = 0 only fx may carry
    the short window of f's constants."""
    ws = [c.abs_window() for c in x.coords if not c.is_zero()]
    for v in vs + (fx,):
        ws.extend(c.abs_window() for c in v.coords if not c.is_zero())
    w = min(ws) if ws else (n + 1) * (agree + 3)
    top = min(w // (n + 1) + agree, (w - 1) // max(n, 1))
    return range(1, max(top, agree + 2) + 1)


def _stabilize(values, agree: int):
    """Decide convergence from the last agree+1 values.

    Per coordinate, consecutive differences must either vanish outright or
    have strictly increasing valuations (an explicit Cauchy tail; once a
    difference vanishes it must stay vanished).  The reported limit is the
    last value truncated to the digits the tail certifies.
    """
    if len(values) < agree + 1:
        return False, None
    tail = values[-(agree + 1):]
    coords = []
    for k in range(tail[0].dim):
        dvals = []
        for a, b in zip(tail, tail[1:]):
            d = b[k] - a[k]
            dvals.append(None if d.is_zero() else d.val)
        prev = None
        settled = False
        for v in dvals:
            if v is None:
                settled = True
            elif settled or (prev is not None and v <= prev):
                return False, None
            else:
                prev = v
        last = tail[-1][k]
        coords.append(last if prev is None else truncate(last, prev + 1))
    return True, PAdicVector(coords)


def phin_limit(f, n: int, x: PAdicVector, vs, schedule=None,
               agree: int = 3) -> LimitReport:
    """Evaluate phin at t_i = p^j along the schedule and report the limit.

    Convergence is an explicit Cauchy tail over the last `agree`+1 steps (see
    _stabilize); the reported value carries only the certified digits.
    Nothing is ever averaged or extrapolated.
    """
    vs = tuple(vs)
    if schedule is None:
        schedule = _auto_schedule(x, vs, f(x), agree, n)
    p = x.p
    steps = []
    for j in schedule:
        t = PAdicNumber.from_int(p, p**j, prec=_DENOM_PREC)
        q = QuotientPoint(x, vs, (t,) * n)
        steps.append((j, phin(f, n, q)))
    ok, value = _stabilize([v for _, v in steps], agree)
    return LimitReport(value=value, converged=ok, steps=tuple(steps),
                       agree=agree)
