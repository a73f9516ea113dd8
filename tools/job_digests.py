"""Print the outcome of every benchmark job, one line each: workload, job
name, exit code and the Result.outcome() digest of its stdout and --out
report.

    python3 tools/job_digests.py --src DIR [--seed N]

The jobs are those of the qpbench/ beside this file, made as its run.py
makes them and run once each, in one process, against the qpcalc package
in DIR.  Two source trees print identical lines exactly when every job
gives the same exit code, stdout and report bytes in both.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path

QPBENCH = Path(__file__).resolve().parent.parent / "qpbench"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, type=Path,
                    help="the directory that holds the qpcalc package")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    src = args.src.resolve()
    if not (src / "qpcalc" / "cli.py").is_file():
        print(f"error: no qpcalc sources at {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(QPBENCH)]
    from qpcalc import cli
    if Path(cli.__file__).resolve().parent != src / "qpcalc":
        print(f"error: qpcalc was imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import run      # qpbench/run.py: its workloads and its prepare()
    home = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp:
        # relative work directories keep the paths in argv and stdout the
        # same whichever tree is run
        os.chdir(tmp)
        try:
            for workload in sorted(run.WORKLOADS):
                main_fn, jobs = run.prepare(workload, args.seed, Path(workload))
                for job in jobs:
                    code, digest = job.run(main_fn).outcome()
                    print(workload, job.name, code, digest)
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
