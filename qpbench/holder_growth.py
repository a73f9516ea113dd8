"""Reference figure: growth of quotients.holder_scan_s from N = 125 to N = 625.

    python3 qpbench/holder_growth.py [--seed 1]

Traces one ``scan --kind holder`` job on each grid of the pairscan
generator (Z_5 at depth 3, Z_5 at depth 4, Z_5^2 at depth 2), checks each
report, and prints the traced holder_scan time and the pairs compared.  The
N = 625 scans take about ten seconds each, which is why the timed pairscan
rounds stop at N = 125.
"""

from __future__ import annotations

import argparse
import random
import shutil
import sys
from pathlib import Path

import run
from jobs import failure
from pairscan import ONE, holder_job
from tracing import Tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    from qpcalc.cli import main as qpcalc_main

    workdir = Path.cwd() / ".qpbench" / "holder-growth"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    rng = random.Random(f"holder-growth:{args.seed}")
    ok = True
    try:
        for m, K in ((1, 3), (1, 4), (2, 2)):
            job = holder_job(rng, workdir, f"holder-m{m}-K{K}", m, K, 0, 1, ONE)
            tracer = Tracer()
            tracer.install()
            try:
                res = job.run(lambda a: tracer.run_job(qpcalc_main, a))
            finally:
                tracer.uninstall()
            why = failure(job, res)
            ok &= why is None
            n = 5 ** (m * K)
            print(f"N={n:4d} (m={m}, K={K}): quotients.holder_scan_s="
                  f"{tracer.total_seconds('quotients.holder_scan'):.3f} "
                  f"job={res.seconds:.3f}s pairs={n * (n - 1) // 2} "
                  f"sup_norm_calls={tracer.count('padic.PAdicVector.sup_norm')}"
                  f" check={'ok' if why is None else why}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
