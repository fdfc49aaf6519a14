"""Benchmark of the fnovikov pipeline: forms -> max-rank element ->
canonical basis -> claim check.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its src/
directory, so nothing needs installing. Workloads are listed in
BENCHMARK.json and built in workloads.py. The load is a closed loop in one
process and one thread, one op at a time. `--workload all` runs every
workload in its own subprocess, one after another.

--trace 0 sets up the inputs a few times (setup_s is the median), then runs
whole passes over them until --seconds have passed, and reports the
end-to-end metrics: throughput, median and tail latency, each both as
measured and paced (see REFERENCE_PACE_S), set-up time (paced; raw as
setup_raw_s) and peak RSS. Each op's latency is the median of its passes,
so the latency percentiles are over the workload's distinct inputs whatever
the number of passes.

--trace 1 sets up once with the trace wrappers of tracer.py installed, runs
one untraced pass and then one traced pass over the same inputs, and reports
the per-layer metrics. trace_overhead_ratio is the traced pass's wall over
the untraced pass's wall, minus 1.

Every op's verdict is checked; a wrong verdict or an exception counts as a
failure and the run goes on. The last line of output is one JSON object
with the metrics BENCHMARK.json lists; the full record, with the
environment, the output digest and every metric, is written to
.perfbench/<workload>-seed<N>-trace<T>.json. Exits 2 when the program's
sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
# Set-up repeats until this much of it is measured, at least once and at
# most SETUP_MAX_RUNS times; setup_s is the median. negative-controls' witness
# search takes ~17 s, so it is set up once.
SETUP_SECONDS = 10
SETUP_MAX_RUNS = 5
# The host this runs on is shared, and its speed drifts by 20% and more
# over tens of seconds: a fixed Fraction loop's time, averaged over 10 s
# windows, spreads by 0.18 of its median. Timed runs therefore probe the
# host's pace between ops and also report paced latencies, rescaled to the
# pace REFERENCE_PACE_S (the probe's median on a 2-vCPU VM, Python 3.11.7),
# which cancels that drift: over 2.5 s passes the spread of pass time fell
# from 0.17 raw to 0.044 paced. The probe stays independent of the program.
PACE_LOOP = 2000
PACE_EVERY_S = 0.5
REFERENCE_PACE_S = 0.018


def load_program():
    """Put the checkout's src/ on the import path; False if it is missing."""
    if not (ROOT / "src" / "fnovikov" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(ROOT / "src"))
    return True


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def environment(seed):
    from fnovikov.scalars import BACKEND

    commit = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            commit = git.stdout.strip() if git.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    python = platform.python_version()
    return {
        "python": python,
        "backend": BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": commit,
        # results are comparable only within one backend and interpreter
        "comparable_group": f"{BACKEND}/python{python}",
    }


def run_op(op):
    """(ok, output bytes) of one op; an exception is a failed op."""
    try:
        verdict, output = op.call(*op.args)
    except Exception as exc:  # a failing op is counted, not fatal
        return False, f"error:{type(exc).__name__}".encode()
    return verdict == op.expected, output


def pace_probe():
    """Seconds the host takes right now for a fixed loop of stdlib Fraction
    arithmetic, the kind of work the program does."""
    t = perf_counter()
    total = Fraction(0)
    for i in range(1, PACE_LOOP):
        total += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
    return perf_counter() - t


def run_pass(ops, tracer=None, paced=False):
    """One pass over the ops: (latencies, paced latencies, failures, digest,
    wall). With paced, a pace probe runs after every PACE_EVERY_S of ops,
    and each op's paced latency is its latency times REFERENCE_PACE_S over
    the mean of the probes either side of it."""
    latencies, paced_latencies, pending = [], [], []
    failed = 0
    digest = hashlib.sha256()
    start = perf_counter()
    before = pace_probe() if paced else None
    probed = perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.request_id = i
        t = perf_counter()
        ok, output = run_op(op)
        latency = perf_counter() - t
        latencies.append(latency)
        failed += not ok
        digest.update(op.name.encode() + b"\0" + output + b"\0")
        if paced:
            pending.append(latency)
            if perf_counter() - probed >= PACE_EVERY_S or i == len(ops) - 1:
                after = pace_probe()
                scale = 2 * REFERENCE_PACE_S / (before + after)
                paced_latencies += [x * scale for x in pending]
                pending, before, probed = [], after, perf_counter()
    return latencies, paced_latencies, failed, digest.hexdigest(), perf_counter() - start


def tail_percentile(n):
    """Highest whole percentile with at least ten of n samples above it."""
    return math.floor(100 - 1000 / n) if n > 10 else None


def latency_summary(per_op, correct, prefix=""):
    """Throughput and latency percentiles over per-op latency samples; each
    op's latency is the median of its samples."""
    latency = sorted(statistics.median(samples) for samples in per_op)
    p = tail_percentile(len(latency))
    tail = latency[max(0, math.ceil(p / 100 * len(latency)) - 1)] if p is not None else latency[-1]
    op_time = sum(sum(samples) for samples in per_op)
    return {
        f"{prefix}throughput_ips": (correct / op_time, "1/s"),
        f"{prefix}latency_p50_s": (statistics.median(latency), "s"),
        f"{prefix}latency_tail_s": (tail, "s"),
    }


def measure(ops, seconds):
    """Whole paced passes until `seconds` have passed: (metrics, summary)."""
    per_op = [[] for _ in ops]
    per_op_paced = [[] for _ in ops]
    failed = passes = 0
    digests = set()
    wall = 0.0
    while passes == 0 or wall < seconds:
        latencies, paced, pass_failed, digest, pass_wall = run_pass(ops, paced=True)
        for samples, samples_paced, latency, latency_paced in zip(per_op, per_op_paced, latencies, paced):
            samples.append(latency)
            samples_paced.append(latency_paced)
        failed += pass_failed
        digests.add(digest)
        wall += pass_wall
        passes += 1
    attempted = passes * len(ops)
    metrics = latency_summary(per_op, attempted - failed)
    metrics.update(latency_summary(per_op_paced, attempted - failed, prefix="paced_"))
    metrics["host_pace"] = (sum(map(sum, per_op)) / sum(map(sum, per_op_paced)), "ratio")
    metrics["fail_ratio"] = (failed / attempted, "ratio")
    n = len(ops)
    summary = {
        "attempted": attempted,
        "failed": failed,
        "passes": passes,
        "wall_s": wall,
        "digest": digests.pop() if len(digests) == 1 else None,
        "latency_tail_percentile": tail_percentile(n) or 100,
        "latency_tail_samples": n,
        "op_latency_s": {op.name: statistics.median(s) for op, s in zip(ops, per_op)},
    }
    return metrics, summary


def run_workload(name, seed, seconds, trace, tiny=False):
    """Run one workload in this process; returns the full result record."""
    import tracer as tr
    from workloads import WORKLOADS

    setup = WORKLOADS[name]
    record = {"workload": name, "env": environment(seed)}
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as workdir:
        if not trace:
            setup_times = []
            while not setup_times or (sum(setup_times) < SETUP_SECONDS and len(setup_times) < SETUP_MAX_RUNS):
                t = perf_counter()
                ops = setup(seed, workdir, tiny)
                setup_times.append(perf_counter() - t)
            metrics, summary = measure(ops, seconds)
            # paced like the ops, by the host pace measured over the passes
            metrics["setup_raw_s"] = (statistics.median(setup_times), "s")
            metrics["setup_s"] = (metrics["setup_raw_s"][0] / metrics["host_pace"][0], "s")
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
            record.update(summary, setup_runs_s=setup_times)
            consistent = summary["digest"] is not None
        else:
            setup_tracer = tr.Tracer()
            t = perf_counter()
            with tr.installed(setup_tracer):
                ops = setup(seed, workdir, tiny)
            setup_wall = perf_counter() - t
            _, _, failed_plain, digest_plain, wall_plain = run_pass(ops)
            op_tracer = tr.Tracer()
            with tr.installed(op_tracer):
                _, _, failed, digest, wall = run_pass(ops, op_tracer)
            metrics = tr.report(op_tracer, wall, {i: op.dim for i, op in enumerate(ops)})
            metrics.update(tr.report(setup_tracer, setup_wall, {}, prefix="setup."))
            metrics["trace_overhead_ratio"] = (wall / wall_plain - 1, "ratio")
            metrics["fail_ratio"] = (failed / len(ops), "ratio")
            accounting = metrics["trace.accounting_error_s"][0]
            record.update(
                attempted=2 * len(ops),
                failed=failed_plain + failed,
                passes=1,
                wall_s=wall,
                untraced_wall_s=wall_plain,
                digest=digest,
                trace_accounting_ok=abs(accounting) <= 1e-6 * wall,
            )
            # the wrappers must not change any output
            consistent = digest == digest_plain and record["trace_accounting_ok"]
    record["ops_per_pass"] = len(ops)
    record["correct"] = record["failed"] == 0 and consistent
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return record


def final_line(record, wanted):
    """The machine-readable result: only the metrics BENCHMARK.json lists."""
    metrics = {}
    for spec in wanted:
        got = record["metrics"].get(spec["name"])
        if got is None or got["unit"] != spec["unit"]:
            raise KeyError(f"metric {spec['name']} [{spec['unit']}] was not measured")
        metrics[spec["name"]] = got
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def print_table(record):
    env = record["env"]
    print(f"# {record['workload']}  seed={env['seed']}  backend={env['backend']}  "
          f"python={env['python']}  nproc={env['nproc']}  commit={env['commit']}")
    print(f"# ops/pass={record['ops_per_pass']}  passes={record['passes']}  attempted={record['attempted']}  "
          f"failed={record['failed']}  digest={record['digest']}")
    if "latency_tail_percentile" in record:
        print(f"# latency_tail_s is p{record['latency_tail_percentile']} of "
              f"{record['latency_tail_samples']} per-input latencies")
    for name, m in record["metrics"].items():
        print(f"{name:60s} {m['value']:.6g} {m['unit']}")


def run_all(args):
    """Each workload in its own subprocess, one after another."""
    status = 0
    for name in (w["name"] for w in benchmark_spec()["workloads"]):
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(cmd).returncode
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not load_program():
        print(f"error: no fnovikov sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = benchmark_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    out = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print_table(record)
    print(json.dumps(final_line(record, spec["per_layer" if args.trace else "end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
