"""Self-test of the output checks: every checker must pass the program's real
report and count a deliberately wrong one as a failed job.

    python3 qpbench/selftest.py [--seed 1]

Runs one round of each workload, then, for the first job of every kind,
feeds its checker the real report and a corrupted copy of it.  Exits 0 when
every real report passes and every corrupted one is counted as failed.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import run


def _json_edit(edit):
    def mutate(report: bytes) -> bytes:
        obj = json.loads(report)
        edit(obj)
        return json.dumps(obj).encode()
    return mutate


def _bump_digit(lit: str) -> str:
    """One-digit change in a p-adic literal: its first digit plus one mod 5."""
    if lit.startswith("0@"):
        return "1e0@5"
    digits, rest = lit.split("e")
    ds = digits.split(",")
    ds[0] = str((int(ds[0]) + 1) % 5 or 1)
    return ",".join(ds) + "e" + rest


def _holder(obj):
    obj["ratio"]["exp"][0] += obj["ratio"]["exp"][1]      # one more power of p
    obj["constant"] = str(5 * int(obj["constant"].split("/")[0]))


def _density(report: bytes) -> bytes:
    lines = report.decode().splitlines()
    j, count, total = lines[2].split(",")
    lines[2] = f"{j},{int(count) + 1},{total}"
    return ("\n".join(lines) + "\n").encode()


def _first_jet(obj):
    exps, c = obj["jets"][0][1][0][0]
    num, den = c.split("/")
    obj["jets"][0][1][0][0] = [exps, f"{int(num) + 1}/{den}"]


def _dominated(obj):
    obj["rows"][-1]["dominated"] = False


MUTATIONS = {
    "holder": ("Hölder ratio and constant off by one power of p",
               _json_edit(_holder)),
    "certify": ("pairs_checked one short",
                _json_edit(lambda o: o.update(
                    pairs_checked=o["pairs_checked"] - 1))),
    "violation": ("planted violation reported certified",
                  _json_edit(lambda o: o.update(ok=True, violations=[]))),
    "extend": ("one-digit change in one grid value",
               _json_edit(lambda o: o["table"][0][1].__setitem__(
                   0, _bump_digit(o["table"][0][1][0])))),
    "cheb": ("radius off by one power of p",
             _json_edit(lambda o: o["c"]["exp"].__setitem__(
                 0, o["c"]["exp"][0] + o["c"]["exp"][1]))),
    "ej": ("one E_j point dropped",
           _json_edit(lambda o: o["classes"][0]["points"].pop())),
    "density": ("one coset too many at j=2", _density),
    "aplimit": ("off-target count one higher at j=1",
                _json_edit(lambda o: o["ratios"][0].__setitem__(
                    1, o["ratios"][0][1] + 1))),
    "stepanoff": ("one grid point reported non-differentiable",
                  _json_edit(lambda o: o.update(
                      good=o["good"] - 1,
                      fraction=[o["good"] - 1, o["total"]]))),
    "quotient": ("one-digit change in the quotient",
                 _json_edit(lambda o: o["value"].__setitem__(
                     0, _bump_digit(o["value"][0])))),
    "taylor": ("nonzero residual",
               _json_edit(lambda o: o["residual"].__setitem__(0, "1e0@5"))),
    "identities-j1": ("one chain identity reported inexact",
                      _json_edit(lambda o: o["passed"].update(
                          chain=o["passed"]["chain"] - 1))),
    "identities-j2": ("--jobs 2 report differs by its seed",
                      _json_edit(lambda o: o.update(seed=o["seed"] + 1))),
    "build": ("one jet coefficient off by one", _json_edit(_first_jet)),
    "eval": ("one-digit change in g(x)",
             _json_edit(lambda o: o["value"].__setitem__(
                 0, _bump_digit(o["value"][0])))),
    "verify": ("a row reported not dominated", _json_edit(_dominated)),
    "decompose": ("last series term dropped",
                  _json_edit(lambda o: o["terms"].pop())),
}


def kind(job_name: str) -> str:
    """holder07 -> holder, identities34-j2 -> identities-j2."""
    return re.sub(r"\d\d", "", job_name, count=1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    base = Path.cwd() / ".qpbench" / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    ok = True
    seen = set()
    try:
        for workload in run.WORKLOADS:
            main_fn, jobs = run.prepare(workload, args.seed, base / workload)
            results = run.run_round(main_fn, jobs)
            for job, res in zip(jobs, results):
                k = kind(job.name)
                if k in seen:
                    continue
                seen.add(k)
                what, mutate = MUTATIONS[k]
                good, _ = run.count_failures([job], [[res.outcome()]], [res])
                bad_res = replace(res, report=mutate(res.report))
                bad, reasons = run.count_failures(
                    [job], [[bad_res.outcome()]], [bad_res])
                passed = good == 0 and bad == 1
                ok &= passed
                print(f"{'ok  ' if passed else 'FAIL'} {workload:9s} {k:14s} "
                      f"{what}: real report {'passes' if good == 0 else 'FAILS'}"
                      f", wrong report {'counted as failed' if bad else 'ACCEPTED'}"
                      f" ({next(iter(reasons.values()), '')[:70]})")
    finally:
        shutil.rmtree(base, ignore_errors=True)
    missing = set(MUTATIONS) - seen
    if missing:
        print(f"FAIL no job of kind {sorted(missing)}")
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
