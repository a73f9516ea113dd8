"""The unit of work: one ``qpcalc.cli.main(argv)`` call with its own output
check.  A job fails when main returns another exit code than the job
expects, when its report differs between two rounds of the same run, or when
its check rejects it.
"""

from __future__ import annotations

import hashlib
import io
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional


class CheckFailed(Exception):
    """An output check rejected a report."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Result:
    code: int
    stdout: str
    report: Optional[bytes]
    seconds: float

    def outcome(self) -> tuple:
        """(exit code, digest of stdout and report): what must repeat
        exactly between rounds, without keeping every round's report."""
        digest = hashlib.sha256(self.stdout.encode() + b"\0"
                                + (self.report or b"")).hexdigest()
        return self.code, digest


@dataclass
class Job:
    name: str
    argv: list
    out: Optional[Path]                 # the --out report, if the verb writes one
    check: Callable[[Result], None]     # raises CheckFailed on a wrong output
    code: int = 0                       # the exit code a correct run returns

    def run(self, main) -> Result:
        """Call main(argv) with stdout and stderr captured; only the call
        itself is timed."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            t0 = perf_counter()
            try:
                code = main(list(self.argv))
            except Exception:           # a traceback escaping main is a failure
                code = -1
                err.write(traceback.format_exc())
            seconds = perf_counter() - t0
        report = self.out.read_bytes() if self.out and self.out.exists() \
            else None
        return Result(code, out.getvalue() + err.getvalue(), report, seconds)


def failure(job: Job, result: Result) -> Optional[str]:
    """Why the job counts as failed, or None when it passed."""
    if result.code != job.code:
        return (f"exit code {result.code}, expected {job.code}: "
                f"{result.stdout.strip()[-200:]}")
    try:
        job.check(result)
    except CheckFailed as exc:
        return f"check: {exc}"
    except (KeyError, IndexError, OSError, TypeError, ValueError) as exc:
        return f"check: malformed report ({type(exc).__name__}: {exc})"
    return None
