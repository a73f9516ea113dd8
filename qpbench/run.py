"""qpcalc benchmark: one seeded workload, timed end to end or traced per layer.

    python3 qpbench/run.py --workload pairscan --seed 1 --seconds 30 --trace 0

Run from the root of a qpcalc checkout; the program is imported from its
``src/``.  A job is one in-process ``qpcalc.cli.main(argv)`` call; its inputs
and ``--out`` report live in ``.qpbench/work-<pid>/``, removed at exit.

--trace 0  runs whole rounds of the workload's jobs, as many as take
           --seconds on the reference host, and reports the end-to-end
           metrics, its times scaled to the reference host's speed
           (see hostspeed.py).
--trace 1  runs one round untraced and one round traced, reports the
           per-layer metrics and the tracing overhead, and writes the spans
           to .qpbench/trace/.

Every output is checked after the timed rounds; the last stdout line is the
JSON result.  See README.md for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import hostspeed
from jobs import failure
from tracing import ARITH, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = {"pairscan": "pairscan", "pointwise": "pointwise",
             "whitney": "whitney_jobs"}
# Round time of each workload on the 2-core host the bounds were set on, at
# its reference speed (hostspeed.REFERENCE_S).  A run makes
# ceil(--seconds / this) rounds: about --seconds there, and the same number
# of rounds however fast the host happens to be during the run, so the
# median-of-rounds statistics do not shift with it.
NOMINAL_ROUND_S = {"pairscan": 9.0, "pointwise": 6.0, "whitney": 9.0}
TAIL_BEYOND = 10          # job_tail_s: the job time with ten jobs beyond it
SETUP_REPEATS = 9


def prepare(workload: str, seed: int, workdir: Path):
    """Everything before the first job: import qpcalc, write the inputs."""
    sys.path.insert(0, str(SRC))
    from qpcalc import cli
    module = __import__(WORKLOADS[workload])
    workdir.mkdir(parents=True)
    jobs = module.make_jobs(random.Random(f"{workload}:{seed}"), workdir)
    return cli.main, jobs


def setup_seconds(workload: str, seed: int, workdir: Path):
    """(median over fresh processes of process start to first job ready,
    median time of the host-speed probe run before each)."""
    times, probes = [], []
    for i in range(SETUP_REPEATS):
        target = workdir / f"setup{i}"
        probes.append(hostspeed.probe())
        t0 = perf_counter()
        subprocess.run([sys.executable, str(Path(__file__)), "--setup-only",
                        "--workload", workload, "--seed", str(seed),
                        "--workdir", str(target)], check=True)
        times.append(perf_counter() - t0)
        shutil.rmtree(target)
    return statistics.median(times), statistics.median(probes)


def run_round(main, jobs, probes=None):
    """One call of every job; with a probes list, the host-speed probe runs
    before each job, outside its timed span."""
    results = []
    for job in jobs:
        if probes is not None:
            probes.append(hostspeed.probe())
        gc.collect()
        results.append(job.run(main))
    return results


def count_failures(jobs, outcomes, last):
    """(failed, reasons): a job fails in every round when its exit code or
    output differs between rounds, or when the last round's exit code or
    output is wrong.  outcomes holds each round's Result.outcome() per job;
    last is the last round's Results."""
    reasons = {}
    for i, job in enumerate(jobs):
        why = failure(job, last[i])
        if why is None and any(o[i] != outcomes[0][i] for o in outcomes):
            why = "output differs between rounds"
        if why is not None:
            reasons[job.name] = why
    return len(reasons) * len(outcomes), reasons


def timed_run(main, jobs, rounds: int, setup) -> dict:
    """setup is setup_seconds()'s pair.  Every time is scaled by
    hostspeed.REFERENCE_S over the median probe time taken alongside it."""
    times, outcomes, probes = [], [], []       # per round, per job
    for _ in range(rounds):
        last = run_round(main, jobs, probes)
        times.append([res.seconds for res in last])
        outcomes.append([res.outcome() for res in last])
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, reasons = count_failures(jobs, outcomes, last)
    # each job's median over the rounds: on a host whose speed flips between
    # states, the least of a few repeats depends on whether one of them hit
    # the fast state; the median does not.  wall_s adds up these medians,
    # so one slow second during a long job moves it no more than any other
    typical = sorted(statistics.median(column) for column in zip(*times))
    setup_s, setup_probe = setup
    job_probe = statistics.median(probes)
    raw = {"wall_s": sum(typical),
           "job_p50_s": statistics.median(typical),
           "job_tail_s": typical[len(typical) - 1 - TAIL_BEYOND]}
    ref = hostspeed.REFERENCE_S
    metrics = {"setup_s": (setup_s * ref / setup_probe, "s")}
    for name, value in raw.items():
        metrics[name] = (value * ref / job_probe, "s")
    metrics["peak_rss_mb"] = (peak_mb, "MB")
    info = {"rounds": len(times), "jobs": len(jobs),
            "tail_percentile": 100 * (len(jobs) - TAIL_BEYOND) / len(jobs),
            "unscaled_s": {"setup_s": setup_s, **raw},
            "probe_ms": {"setup": 1000 * setup_probe,
                         "jobs": 1000 * job_probe}}
    return _result(len(times) * len(jobs), failed, reasons, metrics, info)


def traced_run(main, jobs, trace_file: Path) -> dict:
    plain_probes, traced_probes = [], []
    plain = run_round(main, jobs, plain_probes)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_round(lambda argv: tracer.run_job(main, argv), jobs,
                           traced_probes)
    finally:
        tracer.uninstall()
    failed, reasons = count_failures(
        jobs, [[res.outcome() for res in r] for r in (plain, traced)], traced)
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_file)
    metrics = layer_metrics(tracer, traced)
    # each round's time over its median probe time, so that the host's speed
    # during either round does not count as tracing overhead
    metrics["trace.overhead_ratio"] = (
        sum(r.seconds for r in traced) / statistics.median(traced_probes)
        / (sum(r.seconds for r in plain) / statistics.median(plain_probes)),
        "ratio")
    info = {"spans": len(tracer.spans), "trace_file": str(trace_file)}
    return _result(2 * len(jobs), failed, reasons, metrics, info)


def layer_metrics(tracer, results) -> dict:
    t, c = tracer.total_seconds, tracer.count
    own = tracer.self_seconds()
    arith = sum(c(f"padic.{name}") for name in ARITH)
    rows = {
        "cli.self_s": own["cli"],
        "cli.report_bytes": sum(len(r.report or b"") for r in results),
        "padic.values_built": c("padic.PAdicNumber.__init__"),
        "padic.vector_sub_calls": c("padic.PAdicVector.__sub__"),
        "padic.sup_norm_calls": c("padic.PAdicVector.sup_norm"),
        "padic.ppow_from_norm_calls": c("padic.PPow.from_norm"),
        "padic.number_arith_calls": arith,
        "funcs.self_s": own["funcs"],
        "funcs.parse_expr_s": t("funcs.parse_expr"),
        "funcs.symbolic_call_calls": c("funcs.SymbolicFunction.__call__"),
        "funcs.multipoly_substitute_calls": c("funcs.MultiPoly.substitute"),
        "funcs.multipoly_substitute_s": t("funcs.MultiPoly.substitute"),
        "funcs.multipoly_recenter_s": t("funcs.MultiPoly.recenter"),
        "measure.self_s": own["measure"],
        "measure.enumerate_cosets_calls": c("measure.enumerate_cosets"),
        "measure.cosets_enumerated":
            tracer.sums.get("measure.cosets_enumerated", 0),
        "measure.enumerate_cosets_s": t("measure.enumerate_cosets"),
        "measure.density_at_s": t("measure.density_at"),
        "measure.coset_key_calls": c("measure.coset_key"),
        "measure.decompose_series_s": t("measure.decompose_series"),
        "measure.grid_from_json_s": t("measure.GridFunction.from_json"),
        "quotients.self_s": own["quotients"],
        "quotients.holder_scan_s": t("quotients.holder_scan"),
        "quotients.stepanoff_scan_s": t("quotients.stepanoff_scan"),
        "quotients.ap_derivative_calls": c("quotients.ap_derivative"),
        "quotients.phin_calls": c("quotients.phin"),
        "quotients.taylor_eval_s": t("quotients.taylor_eval"),
        "extension.self_s": own["extension"],
        "extension.certify_s": t("extension.SampleSet.certify"),
        "extension.pairs_checked":
            tracer.sums.get("extension.pairs_checked", 0),
        "extension.extend_to_grid_s": t("extension.extend_to_grid"),
        "extension.nearest_point_calls": c("extension.nearest_point"),
        "extension.chebyshev_radius_s": t("extension.chebyshev_radius"),
        "extension.decompose_Ej_s": t("extension.decompose_Ej"),
        "extension.verify_Ej_s": t("extension.verify_Ej"),
        "whitney.self_s": own["whitney"],
        "whitney.jet_field_from_function_s":
            t("whitney.jet_field_from_function"),
        "whitney.whitney_extend_s": t("whitney.whitney_extend"),
        "whitney.disjoint_ball_family_s": t("whitney.disjoint_ball_family"),
        "whitney.verify_whitney_s": t("whitney.verify_whitney"),
        "whitney.jetfield_from_json_s": t("whitney.JetField.from_json"),
        "whitney.jet_compat_modulus_calls": c("whitney.jet_compat_modulus"),
        "whitney.jet_compat_modulus_s": t("whitney.jet_compat_modulus"),
    }
    return {name: (value, "s" if name.endswith("_s") else
                   "bytes" if name.endswith("_bytes") else "count")
            for name, value in rows.items()}


def _result(attempted, failed, reasons, metrics, info) -> dict:
    for name, why in sorted(reasons.items()):
        print(f"FAILED {name}: {why}", file=sys.stderr)
    print(json.dumps(info), file=sys.stderr)
    return {"correct": not reasons,
            "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="prepare the inputs in --workdir and exit")
    ap.add_argument("--workdir", type=Path)
    args = ap.parse_args(argv)
    if not (SRC / "qpcalc" / "cli.py").is_file():
        print(f"error: no qpcalc sources at {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        prepare(args.workload, args.seed, args.workdir)
        return 0
    base = Path.cwd() / ".qpbench"
    workdir = base / f"work-{os.getpid()}"
    try:
        if args.trace:
            main_fn, jobs = prepare(args.workload, args.seed, workdir / "jobs")
            trace_file = base / "trace" / \
                f"{args.workload}-seed{args.seed}.spans.csv.gz"
            result = traced_run(main_fn, jobs, trace_file)
        else:
            setup = setup_seconds(args.workload, args.seed, workdir)
            main_fn, jobs = prepare(args.workload, args.seed, workdir / "jobs")
            rounds = max(1, math.ceil(args.seconds
                                      / NOMINAL_ROUND_S[args.workload]))
            result = timed_run(main_fn, jobs, rounds, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
