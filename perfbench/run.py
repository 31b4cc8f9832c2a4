#!/usr/bin/env python3
"""dpn benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --smoke

Run from the repository root.  Builds perfbench/ (and the dpn libraries
it links, from ../src) into .bench_build/, then runs repetitions of one
workload, each in its own process, until --seconds have passed.  Every
repetition verifies its sinks; a wrong, missing or late stream counts as
failed and makes the command exit 1.

--trace 0 prints the end-to-end metrics (medians over repetitions).
--trace 1 alternates untraced and traced repetitions and prints the
per-layer metrics of the traced ones, plus proc.tracing_overhead (traced
over untraced median wall_s).  The last line of stdout is always one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--all runs every workload untraced then traced and prints both tables;
--smoke runs every workload at a tiny size and checks that a dropped and
a reordered token are reported as failures.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "dpn_perfbench"

WORKLOADS = ["local_stream", "relay_chain", "remote_fanout", "remote_bulk"]

# A whole run must end within this many seconds after the build.  One
# repetition may take at most REP_DEADLINE_S; the slowest healthy
# repetition today (remote_bulk) takes about 5 s.
RUN_BUDGET_S = 170.0
REP_DEADLINE_S = 120.0
MIN_REPS = 3

# The end-to-end metrics BENCHMARK.json gates on: medians over the
# untraced repetitions of a run.
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("tokens_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("cpu_s", "s"),
]
# Printed beside them but not gated: token latency (samples pooled over
# the run) spreads far more than any allowed bound on remote_fanout, and
# failed_ratio is 0 on a healthy run (its gate is `failed` in the result).
REPORTED = END_TO_END + [
    ("token_latency_p50_us", "us"),
    ("token_latency_p99_us", "us"),
    ("failed_ratio", "ratio"),
]

PER_LAYER = [
    ("io.typed.put_ns_p50", "ns"),
    ("io.typed.put_ns_p99", "ns"),
    ("io.typed.get_ns_p50", "ns"),
    ("io.typed.get_ns_p99", "ns"),
    ("io.typed.blocked_share", "ratio"),
    ("io.pipe.reader_wakeups_per_token", "count"),
    ("io.pipe.writer_wakeups_per_token", "count"),
    ("io.pipe.blocked_read_s", "s"),
    ("io.pipe.blocked_write_s", "s"),
    ("sched.dispatches_per_hop", "count"),
    ("sched.steals_per_hop", "count"),
    ("sched.parks", "count"),
    ("sched.runq_wait_us_p50", "us"),
    ("sched.runq_wait_us_p99", "us"),
    ("core.build_s", "s"),
    ("core.start_s", "s"),
    ("core.join_s", "s"),
    ("core.teardown_s", "s"),
    ("dist.ship_us_p50", "us"),
    ("dist.ship_us_p99", "us"),
    ("dist.receive_us_p50", "us"),
    ("dist.receive_us_p99", "us"),
    ("dist.receive_growth", "ratio"),
    ("dist.remote_write_us_p99", "us"),
    ("net.mux.credit_stalls", "count"),
    ("net.mux.credit_stall_s", "s"),
    ("net.mux.streams_total", "count"),
    ("net.mux.connections", "count"),
    ("net.mux.wire_bytes_per_token", "B"),
    ("obs.flight_events_per_token", "count"),
    ("obs.flight_dropped", "count"),
    ("proc.tracing_overhead", "ratio"),
]


def log(message):
    print(message, file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Build


def build():
    """Configures (once) and builds the benchmark; exits 2/3 on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"perfbench: dpn sources not found under {ROOT / 'src'}")
        sys.exit(2)
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    env = child_env()
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", "dpn_perfbench"])
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            log(f"perfbench: build step failed: {' '.join(step)}")
            sys.exit(3)


def child_env():
    """The environment for builds and repetitions: no DPN_* overrides
    from the caller, scratch files kept inside the build directory."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("DPN_")}
    scratch = ROOT / ".bench_build" / "tmp"
    flight = ROOT / ".bench_build" / "flight"
    scratch.mkdir(parents=True, exist_ok=True)
    flight.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(scratch)
    env["DPN_FLIGHT_DIR"] = str(flight)
    return env


# --------------------------------------------------------------------------
# Host stamp


def host_stamp(record):
    """nproc, compiler, build type and source revision of this result."""
    revision = "none"
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            revision = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "compiler": record.get("compiler", "unknown"),
        "build_type": record.get("build_type", "unknown"),
        "git_rev": revision,
        "src_sha256": digest.hexdigest()[:16],
    }


# --------------------------------------------------------------------------
# Repetitions


def rep_seed(seed, index):
    """Seed of repetition `index` of a run: fixed by the run's seed."""
    return (seed * 1_000_003 + index) % (1 << 63)


def run_rep(workload, seed, trace, deadline_s, smoke=False, fault=None):
    """Runs one repetition in its own process.  Returns its record, or a
    failure record when it crashed, printed nothing or missed the deadline."""
    command = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--trace", "1" if trace else "0"]
    if smoke:
        command.append("--smoke")
    if fault:
        command += ["--fault", fault]
    try:
        done = subprocess.run(command, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline_s))
    except subprocess.TimeoutExpired:
        return {"error": f"missed the {deadline_s:.0f} s deadline",
                "timed_out": True}
    lines = done.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"exit {done.returncode}, no record: "
                         f"{done.stderr.strip()[-300:]}"}
    record["exit"] = done.returncode
    return record


def rep_failed(record):
    return ("sinks" not in record or record.get("sinks_failed", 0) > 0
            or record.get("error") or record.get("exit", 1) != 0)


def per_rep(record):
    """The gated end-to-end metrics of one repetition."""
    data_s = record["data_s"]
    return {
        "setup_s": record["setup_s"],
        "wall_s": record["wall_s"],
        "tokens_per_s": record["tokens"] / data_s if data_s > 0 else 0.0,
        "peak_rss_mb": record["peak_rss_mb"],
        "cpu_s": record["cpu_s"],
    }


def quantile(ordered, q):
    """Linear between order statistics, as the binary computes it."""
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def run_workload(workload, seed, seconds, trace):
    """Repeats `workload` for `seconds`; returns the run's summary."""
    begin = time.monotonic()
    untraced, traced, failures = [], [], []
    attempted = failed = 0
    index = 0
    while True:
        elapsed = time.monotonic() - begin
        reps = len(untraced) + len(traced) + len(failures)
        if reps >= MIN_REPS * (2 if trace else 1) and elapsed >= seconds:
            break
        deadline = min(REP_DEADLINE_S, RUN_BUDGET_S - elapsed)
        if reps > 0 and deadline < REP_DEADLINE_S:
            break  # out of budget for another full-deadline repetition
        traced_rep = trace and index % 2 == 1
        record = run_rep(workload, rep_seed(seed, index), traced_rep, deadline)
        index += 1
        sinks = int(record.get("sinks", 1))
        attempted += sinks
        if rep_failed(record):
            failed += max(1, int(record.get("sinks_failed", sinks)))
            failures.append(record)
            log(f"perfbench: {workload} repetition {index} failed: "
                f"{record.get('error') or 'wrong sink output'}")
            if record.get("timed_out"):
                break
            continue
        (traced if traced_rep else untraced).append(record)
    return {"workload": workload, "untraced": untraced, "traced": traced,
            "failures": failures, "attempted": attempted, "failed": failed}


def summarize(run):
    """Run-level metrics: medians over the repetitions."""
    untraced, traced = run["untraced"], run["traced"]
    e2e = {}
    if untraced:
        rows = [per_rep(r) for r in untraced]
        for name, _ in END_TO_END:
            e2e[name] = statistics.median(row[name] for row in rows)
        # Latency quantiles of all samples of the run pooled: steadier
        # than a median of per-repetition tails.
        pooled = sorted(x for r in untraced for x in r["latency_ns"])
        e2e["token_latency_p50_us"] = quantile(pooled, 0.50) * 1e-3
        e2e["token_latency_p99_us"] = quantile(pooled, 0.99) * 1e-3
        e2e["latency_samples"] = len(pooled)
    layers = {}
    if traced:
        for name, _ in PER_LAYER[:-1]:
            layers[name] = statistics.median(r["layers"][name] for r in traced)
        if untraced:
            layers["proc.tracing_overhead"] = (
                statistics.median(r["wall_s"] for r in traced) /
                statistics.median(r["wall_s"] for r in untraced))
    return e2e, layers


# --------------------------------------------------------------------------
# Printing


def fmt(value):
    if value == 0:
        return "0"
    magnitude = abs(value)
    if magnitude >= 1e5 or magnitude < 1e-3:
        return f"{value:.4g}"
    return f"{value:.4f}".rstrip("0").rstrip(".")


def print_table(title, names_units, columns):
    """columns: list of (header, {name: value})."""
    print(title)
    width = max(len(n) for n, _ in names_units)
    header = f"  {'metric':<{width}}  {'unit':<6}" + "".join(
        f"  {h:>14}" for h, _ in columns)
    print(header)
    for name, unit in names_units:
        cells = "".join(
            f"  {fmt(values[name]) if name in values else '-':>14}"
            for _, values in columns)
        print(f"  {name:<{width}}  {unit:<6}{cells}")


def failed_ratio(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 1.0


def print_run(run, e2e, layers):
    reps = len(run["untraced"]) + len(run["traced"]) + len(run["failures"])
    first = (run["untraced"] or run["traced"] or [{}])[0]
    print(f"workload {run['workload']}: {reps} repetitions "
          f"({len(run['untraced'])} untraced, {len(run['traced'])} traced), "
          f"{run['attempted']} sinks verified")
    if first:
        print(f"  workers {int(first['workers'])}, latency samples "
              f"{e2e.get('latency_samples', 0)} (pooled over repetitions)")
    print_table("end-to-end (untraced repetitions, medians)", REPORTED,
                [(run["workload"], dict(e2e, failed_ratio=failed_ratio([run])))])
    if layers:
        print_table("per-layer (traced repetitions, medians)", PER_LAYER,
                    [(run["workload"], layers)])


def result_line(runs, metrics, units):
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in metrics},
    })


# --------------------------------------------------------------------------
# Modes


def mode_single(args):
    build()
    trace = args.trace == 1
    run = run_workload(args.workload, args.seed, args.seconds, trace)
    e2e, layers = summarize(run)
    first = (run["untraced"] or run["traced"] or [{}])[0]
    print("host " + json.dumps(host_stamp(first)))
    print_run(run, e2e, layers)
    names = PER_LAYER if trace else END_TO_END
    values = layers if trace else e2e
    units = dict(names)
    metrics = {name: values[name] for name, _ in names if name in values}
    print(result_line([run], metrics, units))
    complete = len(metrics) == len(names)
    return 0 if run["failed"] == 0 and complete else 1


def mode_all(args):
    build()
    runs, e2e_cols, layer_cols = [], [], []
    for workload in WORKLOADS:
        run = run_workload(workload, args.seed, args.seconds, trace=False)
        traced = run_workload(workload, args.seed, args.seconds, trace=True)
        e2e, _ = summarize(run)
        _, layers = summarize(traced)
        runs += [run, traced]
        e2e_cols.append((workload, e2e))
        layer_cols.append((workload, layers))
        for r in (run, traced):
            for failure in r["failures"]:
                log(f"perfbench: {workload}: {failure.get('error')}")
    first = (runs[0]["untraced"] or [{}])[0]
    print("host " + json.dumps(host_stamp(first)))
    print(f"seed {args.seed}, {args.seconds} s per workload and mode")
    ratios = {w: failed_ratio([r for r in runs if r["workload"] == w])
              for w in WORKLOADS}
    print_table("end-to-end (untraced runs, medians over repetitions)",
                REPORTED,
                [(w, dict(v, failed_ratio=ratios[w])) for w, v in e2e_cols])
    print("latency samples (pooled): " + ", ".join(
        f"{w} {v.get('latency_samples', 0)}" for w, v in e2e_cols))
    print("repetitions (untraced run; traced run untraced+traced): " +
          ", ".join(f"{u['workload']} {len(u['untraced'])}; "
                    f"{len(t['untraced'])}+{len(t['traced'])}"
                    for u, t in zip(runs[::2], runs[1::2])))
    print_table("per-layer (traced runs, medians over repetitions)",
                PER_LAYER, layer_cols)
    failed = sum(r["failed"] for r in runs)
    print(result_line(runs, {}, {}))
    return 0 if failed == 0 else 1


def mode_smoke(_args):
    build()
    checks = []
    for workload in WORKLOADS:
        record = run_rep(workload, 7, trace=True, deadline_s=60, smoke=True)
        ok = not rep_failed(record) and all(
            name in record["layers"] for name, _ in PER_LAYER[:-1])
        checks.append((f"{workload} verifies", ok, record.get("error", "")))
    # The verification itself: a dropped or reordered token must fail.
    for workload in ("local_stream", "remote_fanout"):
        for fault in ("drop", "reorder"):
            record = run_rep(workload, 7, trace=False, deadline_s=60,
                             smoke=True, fault=fault)
            caught = (record.get("sinks_failed") == 1
                      and record.get("exit") == 1)
            checks.append((f"{workload} {fault} is reported", caught,
                           json.dumps({k: record.get(k) for k in
                                       ("sinks_failed", "exit", "error")})))
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}" +
              ("" if ok else f"  {detail}"))
    passed = sum(ok for _, ok, _ in checks)
    print(json.dumps({"smoke_checks": len(checks), "passed": passed}))
    return 0 if passed == len(checks) else 1


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes plus the verification self-check")
    args = parser.parse_args()
    if args.smoke:
        return mode_smoke(args)
    if args.all:
        return mode_all(args)
    if not args.workload:
        parser.error("--workload, --all or --smoke is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return mode_single(args)


if __name__ == "__main__":
    sys.exit(main())
