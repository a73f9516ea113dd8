"""Host-speed probe: a fixed pure-Python kernel timed between the jobs.

The shared 2-core host the bounds were set on runs the same code 10-30 %
faster or slower from one minute to the next, and process CPU time moves
with wall time.  One run sees one such stretch, so its times move together
by the host's speed, not the program's.  The kernel below does the kind of
work qpcalc does (``Fraction`` arithmetic, big-integer powers and digit
loops, small dicts and strings) and imports nothing from it.  A timed run
probes it once before every job and every set-up process; the median of
those probes measures the host's speed alongside them, and each end-to-end
time is scaled by ``REFERENCE_S / median probe``: seconds on a host where
the probe takes ``REFERENCE_S``.  Over 1600 pairscan jobs, the median job time of windows
of 200 jobs moved 0.90-1.14x, and their median job time over median probe
time only 0.97-1.03x.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.008       # the probe's median time on the reference host


def kernel() -> Fraction:
    acc = Fraction(0)
    tally = {}
    for i in range(1, 400):
        q = Fraction(i, 5 ** (i % 9) + 7)
        acc = acc + q * q - q / 3
        n = pow(7, i, 5 ** 16)
        s = str(n)
        tally[s[-3:]] = tally.get(s[-3:], 0) + len(s)
        while n % 5 == 0:
            n //= 5
        digits = [n % 5 ** k for k in range(6)]
        acc += Fraction(sum(digits), len(digits) + i)
    return acc


def probe() -> float:
    """Seconds one kernel call takes now."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0
