#!/usr/bin/env python3
"""The repository benchmark: verified rounds/s, settle latency and wire cost.

Run from the root of a checkout:

    python3 perfbench/run.py --workload storm_online --seed 7 --seconds 20 --trace 0

The first call builds perfbench/ (which compiles the pvr library from the
repository's own sources, Release, tests off) into .bench_build/. Then, for
one workload and seed:

* set-up time: plan_world(spec) timed in SETUP_PROCESSES fresh processes that
  make no other call (median), so no in-process cache can hide key
  generation from a later change;
* an untimed traced run of the workload's online scenario (storm_online for
  replay_audit, whose trace it records): exact settle quantiles from its
  round.settle spans, and the fingerprint every measured call must match;
* --trace 0: the workload's call (run_scenario, or replay_trace for
  replay_audit) repeated with tracing off for --seconds in one process, every
  output checked; prints the end-to-end metrics, wall and CPU times scaled
  to a reference host speed by a fixed calibration kernel timed around each
  call (METRICS.md, "Host-speed scaling");
* --trace 1: the traced run (see perfbench.cpp, mode "layers"); prints the
  per-layer metrics and writes the spans to .bench_build/runs/.

Every run prints one self-describing JSON line (seed, workers, rounds,
hw_threads, commit, compiler, build type, every end-to-end value including
the two that correctness pins to 0) and then, last, the result line
{"correct", "attempted", "failed", "metrics"}. A failed output check names
the check on stderr, prints no metric and exits 1. METRICS.md says what each
metric means and which end-to-end metric each layer should move.
"""
import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("storm_online", "chaos_online", "replay_audit")
# 1200 rounds leave 12 settle samples beyond p99, and one storm call takes
# about 3 s on a 4-thread host, so a run's median has ~9 calls under it.
ROUNDS = 1200
SETUP_PROCESSES = 7
# Seconds the fixed calibration kernel (perfbench.cpp, calibration_seconds)
# takes on an unloaded 4-vCPU KVM Xeon host. Wall and CPU times are scaled
# by calibration time / this reference, measured around each call, so that
# they read as on that host at that speed; the raw values are printed in
# the description line.
CALIBRATION_REFERENCE_S = 0.015
# Wall-clock allowance for the build (first run in a checkout) and for
# everything after it; children are killed and reaped when it runs out.
BUILD_DEADLINE_S = 700
RUN_DEADLINE_S = 170

END_TO_END_UNITS = {
    "rounds_per_s": "1/s",
    "setup_s": "s",
    "cpu_ms_per_round": "ms",
    "peak_rss_mb": "MB",
    "settle_p50_ms": "ms",
    "settle_p99_ms": "ms",
    "bytes_per_round": "B",
}
# Printed in the description line; correctness pins both to 0, so they are
# output checks rather than bounded metrics.
PINNED_TO_ZERO_UNITS = {"failed_rounds_share": "share", "false_evidence": "count"}

CHANNELS = ("pvr.input", "pvr.bundle.agg", "pvr.gossip", "pvr.gossip.root",
            "pvr.reveal.n", "pvr.reveal.b", "pvr.export")
PER_LAYER_UNITS = {
    "crypto.sign_us": "us",
    "crypto.signs_per_round": "count",
    "crypto.verify_us": "us",
    "crypto.verifies_per_round": "count",
    "crypto.verify_cache_hit_ratio": "ratio",
    "crypto.sha256_ns_per_byte": "ns/B",
    "crypto.hashed_bytes_per_round": "B",
    "crypto.keygen_ms": "ms",
    "crypto.keys_per_world": "count",
    **{f"core.decode_us.{c}": "us" for c in CHANNELS},
    **{f"core.encode_us.{c}": "us" for c in CHANNELS},
    "core.windows_per_round": "count",
    "core.evidence_per_round": "count",
    "net.dispatch_ns_per_event": "ns",
    "net.events_per_round": "count",
    "net.messages_per_round": "count",
    "net.bytes_per_round.input": "B",
    "net.bytes_per_round.bundle": "B",
    "net.bytes_per_round.gossip": "B",
    "net.bytes_per_round.reveal_export": "B",
    "engine.tasks_per_round": "count",
    "engine.task_us_mean": "us",
    "engine.busy_share": "share",
    "engine.rounds_per_drain": "count",
    "engine.verify_ms_per_round": "ms",
    "engine.overlap_ratio": "ratio",
    "scenario.sim_ms_per_round": "ms",
    "scenario.settle_horizon_ms": "ms",
    "scenario.peak_open_rounds": "count",
    "scenario.peak_root_digests": "count",
    "budget.sign_cpu_share": "share",
    "budget.verify_cpu_share": "share",
    "budget.sha256_cpu_share": "share",
    "budget.keygen_cpu_share": "share",
    "budget.dispatch_cpu_share": "share",
    "budget.decode_cpu_share": "share",
    "budget.unattributed_cpu_share": "share",
    "obs.trace_overhead_share": "share",
}
BUDGET_PARTS = ("sign", "verify", "sha256", "keygen", "dispatch", "decode")


class CheckFailed(Exception):
    pass


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_child(command, deadline, log_path=None):
    """Runs a child to completion by `deadline` (monotonic seconds); a child
    still running then is killed and reaped."""
    timeout = max(1.0, deadline - time.monotonic())
    try:
        if log_path is None:
            done = subprocess.run(command, capture_output=True, text=True,
                                  timeout=timeout)
        else:
            with open(log_path, "w") as log:
                done = subprocess.run(command, stdout=log,
                                      stderr=subprocess.STDOUT, text=True,
                                      timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(command)}")
    if done.returncode != 0:
        detail = done.stderr.strip() if log_path is None else f"see {log_path}"
        fail(f"{' '.join(command[:2])} exited {done.returncode}: {detail}")
    return done.stdout


def json_lines(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def build(root, build_root, deadline):
    """Configures once and builds; a no-op rebuild takes well under a second."""
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        fail("run from the root of a repository checkout (no CMakeLists.txt or src/ here)")
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log = os.path.join(build_dir, "build.log")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_child(configure, deadline, log)
    run_child(["cmake", "--build", build_dir, "-j", "4"], deadline, log)
    return os.path.join(build_dir, "pvr_perfbench")


def git_commit(root):
    """HEAD of the checkout, or None when it is not a git repository. Git
    may not search above the checkout for one."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(root)}
    try:
        done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest(root):
    """SHA-256 over the library sources and build files the binary is built from."""
    digest = hashlib.sha256()
    paths = [os.path.join(root, "CMakeLists.txt")]
    for base, dirs, files in os.walk(os.path.join(root, "src")):
        dirs.sort()
        paths += [os.path.join(base, name) for name in sorted(files)]
    for path in paths:
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as source:
            digest.update(source.read())
    return digest.hexdigest()


def check_reports(reports, recorded=None):
    """The output checks every run makes; raises CheckFailed naming the check.

    `recorded` is the untimed traced run of the same spec: the measured calls
    must reproduce its fingerprint (replay_audit: the run it replays).
    """
    for report in reports:
        if report["detection_rate"] != 1.0:
            raise CheckFailed(f"detection_rate is {report['detection_rate']}, not 1.0")
        for field in ("false_evidence", "audit_failures", "verify_failures"):
            if report[field] != 0:
                raise CheckFailed(f"{field} is {report[field]}, not 0")
    fingerprints = {report["fingerprint"] for report in reports}
    if len(fingerprints) != 1:
        raise CheckFailed("fingerprint differs across repeats of the same workload and seed")
    if recorded is not None and fingerprints != {recorded["fingerprint"]}:
        raise CheckFailed("fingerprint differs from the recorded (traced) run's")


def host_slowdown(line):
    """How much slower than the reference the host ran around this sample."""
    return (line["calib_before_s"] + line["calib_after_s"]) / 2 / CALIBRATION_REFERENCE_S


def failed_rounds(report):
    return report["attacked_rounds"] - report["detected_rounds"] + report["verify_failures"]


def settle_quantiles(spans_path, rounds):
    """Exact p50 and p99 settle latency (ms) from the round.settle spans."""
    with open(spans_path) as spans_file:
        latencies = sorted(e["dur"] for e in json.load(spans_file)["traceEvents"]
                           if e.get("name") == "round.settle")
    if len(latencies) != rounds:
        raise CheckFailed(f"{len(latencies)} round.settle spans for {rounds} rounds")
    def nearest_rank(q):
        return latencies[math.ceil(q * len(latencies)) - 1] / 1e3
    return nearest_rank(0.5), nearest_rank(0.99)


def sim_ms_outside_drain(spans_path):
    """Calling-thread ms of the first traced replay call outside engine.drain."""
    with open(spans_path) as spans_file:
        events = [e for e in json.load(spans_file)["traceEvents"]
                  if e.get("ph") == "X" and e.get("pid") == 1]
    call = min((e for e in events if e["name"] == "bench.workload_call"),
               key=lambda e: e["ts"])
    drained = sum(e["dur"] for e in events
                  if e["name"] == "engine.drain" and e["tid"] == call["tid"]
                  and call["ts"] <= e["ts"] <= call["ts"] + call["dur"])
    return (call["dur"] - drained) / 1e3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    build_root = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(root, build_root, time.monotonic() + BUILD_DEADLINE_S)
    deadline = time.monotonic() + RUN_DEADLINE_S
    runs_dir = os.path.join(build_root, "runs")
    os.makedirs(runs_dir, exist_ok=True)
    common = ["--seed", str(args.seed), "--rounds", str(ROUNDS)]

    setups = [json_lines(run_child([binary, "setup", "--workload", args.workload] + common,
                                   deadline))[-1]
              for _ in range(SETUP_PROCESSES)]

    # The untimed traced run gives the exact settle quantiles of --trace 0
    # and the trace replay_audit re-verifies. With --trace 1 an online
    # workload's traced run records its own trace, so it is skipped there.
    prefix = os.path.join(runs_dir, f"{args.workload}-{args.seed}-{os.getpid()}")
    record_spans, trace_path = prefix + "-settle.json", prefix + ".trace"
    replay = ["--replay", trace_path] if args.workload == "replay_audit" else []
    spans_path = os.path.join(runs_dir, f"{args.workload}-{args.seed}-spans.json")
    recorded = None
    try:
        if replay or not args.trace:
            recorded = json_lines(run_child(
                [binary, "record", "--workload", args.workload, "--spans", record_spans]
                + (["--out", trace_path] if replay else []) + common, deadline))[-1]
        mode = ["layers", "--spans", spans_path] if args.trace else ["measure"]
        lines = json_lines(run_child(
            [binary] + mode + ["--workload", args.workload, "--seconds", str(args.seconds)]
            + common + replay, deadline))
        reports = [line for line in lines if "fingerprint" in line]
        attempted = sum(report["rounds"] for report in reports)
        failed = sum(failed_rounds(report) for report in reports)
        try:
            check_reports(reports, recorded)
            if recorded:
                check_reports([recorded])
                settle = settle_quantiles(record_spans, recorded["rounds"])
            if args.trace and lines[-2]["verify_rejects"]:
                raise CheckFailed(f"the verify layer rejected {lines[-2]['verify_rejects']}"
                                  " of the workload's own signatures")
        except CheckFailed as error:
            print(f"perfbench: check failed: {error}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                              "metrics": {}}))
            sys.exit(1)
    finally:
        for path in (trace_path, record_spans):
            if os.path.exists(path):
                os.remove(path)

    first = reports[0]
    rounds = first["rounds"]
    values = {
        "setup_s": statistics.median(line["setup_s"] / host_slowdown(line) for line in setups),
        "bytes_per_round": first["bytes_total"] / rounds,
        "failed_rounds_share": failed / attempted,
        "false_evidence": sum(report["false_evidence"] for report in reports),
    }
    if args.trace:
        summary = {**lines[-2], **lines[-1]}
        if args.workload == "replay_audit":
            summary["scenario.sim_ms_per_round"] = sim_ms_outside_drain(spans_path) / rounds
            summary["scenario.settle_horizon_ms"] = recorded["settle_horizon_us"] / 1e3
        summary["budget.unattributed_cpu_share"] = 1.0 - sum(
            summary[f"budget.{part}_cpu_share"] for part in BUDGET_PARTS)
        raw = {}
        # A channel the workload never sends reads 0.
        metrics = {name: {"value": summary.get(name, 0.0), "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
        calls = len(reports)
    else:
        summary = lines[-1]
        timed = [line for line in lines if line.get("kind") == "call"]
        values["rounds_per_s"] = statistics.median(
            call["rounds"] / call["wall_s"] * host_slowdown(call) for call in timed)
        values["cpu_ms_per_round"] = statistics.median(
            call["cpu_s"] * 1e3 / call["rounds"] / host_slowdown(call) for call in timed)
        raw = {
            "rounds_per_s": statistics.median(call["rounds"] / call["wall_s"] for call in timed),
            "cpu_ms_per_round": statistics.median(
                call["cpu_s"] * 1e3 / call["rounds"] for call in timed),
            "host_slowdown": statistics.median(host_slowdown(call) for call in timed),
        }
        values["peak_rss_mb"] = summary["peak_rss_mb"]
        # replay_audit verifies offline, after the fact, so it reports the
        # settle quantiles of the online run it audits.
        values["settle_p50_ms"], values["settle_p99_ms"] = settle
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        calls = len(timed)

    settled = recorded or first
    description = {
        "workload": args.workload, "seed": args.seed, "rounds": rounds,
        "timed_calls": calls, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
        **{key: summary[key] for key in
           ("compiler", "build_type", "cxx_flags", "hw_threads", "workers")},
        # Unscaled wall-clock values, before the host-speed calibration.
        "raw": {"setup_s": statistics.median(line["setup_s"] for line in setups), **raw},
        # The report's own quantiles: upper edges of log2 buckets.
        "report_settle_us": {"p50": settled["p50_settle_us"], "p99": settled["p99_settle_us"]},
        "end_to_end": {name: {"value": values[name], "unit": unit} for name, unit in
                       {**END_TO_END_UNITS, **PINNED_TO_ZERO_UNITS}.items()
                       if name in values},
    }
    print(json.dumps(description))
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
