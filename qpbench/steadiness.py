"""Steadiness of the end-to-end metrics over seeds.

    python3 qpbench/steadiness.py --workload pairscan --seeds 101-110

Runs ``run.py --trace 0`` once per seed, for the ``run_seconds`` of
BENCHMARK.json, one run at a time, from the current directory (a qpcalc
checkout), and prints for each metric its median, its quartiles
(``statistics.quantiles(values, n=4)``) and the spread (Q3 - Q1) / median
next to the bound in BENCHMARK.json.  This is how the
tables in README.md were made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, required=True, help="e.g. 101-110")
    args = ap.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    seconds = str(spec["run_seconds"])
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
            capture_output=True, text=True, check=True).stdout
        runs.append(json.loads(out.strip().splitlines()[-1]))
        print(json.dumps({"seed": seed, **runs[-1]}), flush=True)
    print("| metric | median | Q1 | Q3 | (Q3-Q1)/median | bound |")
    print("|---|---|---|---|---|---|")
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        print(f"| {name} | {med:.4f} | {q1:.4f} | {q3:.4f} | "
              f"{(q3 - q1) / med:.3f} | {bound} |")
    print(f"failed/attempted: "
          f"{sorted({(r['failed'], r['attempted']) for r in runs})}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
