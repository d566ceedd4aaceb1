#!/usr/bin/env python3
"""Build and run the topobench end-to-end / per-layer benchmark.

Run from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
  python3 perfbench/run.py --smoke

The first form builds topobench_perf (perfbench/CMakeLists.txt, into
.bench_build/) if needed, measures set-up time by starting it in
set-up-only mode several times, runs one measurement, and prints the
provenance header, a human-readable report, and as its last line one JSON
object {"correct", "attempted", "failed", "metrics"}. --all runs every
workload and prints each report. --smoke runs every workload at its
smallest size, traced and untraced, and fails on any failed check or any
metric missing from BENCHMARK.json's lists.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORK_DIR = os.path.join(BUILD_ROOT, "work")
BINARY = os.path.join(BUILD_DIR, "topobench_perf")
WORKLOADS = ["packet_vs_flow", "sweep_grid", "search_approx"]
SETUP_REPS = 21
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once and builds topobench_perf; build output goes to stderr."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def describe():
    """git describe when the checkout is a repository, else a digest of the
    library sources, so every number traces back to the code that ran."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "describe", "--always", "--dirty"],
                                 cwd=ROOT, capture_output=True, text=True)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for base in ["CMakeLists.txt", "src"]:
        path = os.path.join(ROOT, base)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def binary_args(workload, seed, extra):
    return [BINARY, "--workload", workload, "--seed", str(seed),
            "--root", ROOT, "--work", os.path.join(WORK_DIR, workload)] + extra


def setup_seconds(workload, seed, smoke):
    """Median wall time of a fresh process doing the workload's set-up:
    start, register scenarios, start the pool, load specs, derive inputs.
    One untimed start first brings the binary and specs into the page cache."""
    times = []
    extra = ["--setup-only"] + (["--smoke"] if smoke else [])
    for rep in range(SETUP_REPS + 1):
        start = time.perf_counter()
        done = subprocess.run(binary_args(workload, seed, extra), cwd=ROOT,
                              stdout=subprocess.DEVNULL, timeout=RUN_TIMEOUT_S)
        if rep > 0:
            times.append(time.perf_counter() - start)
        if done.returncode != 0:
            fail("set-up of %s failed" % workload)
    return statistics.median(times)


def run_binary(workload, seed, extra):
    """Runs topobench_perf once; returns (report lines, result object)."""
    # A session of its own, so a timeout also stops its child processes.
    proc = subprocess.Popen(binary_args(workload, seed, extra), cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    sys.stderr.write(err)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s exited with status %d" % (workload, proc.returncode))
    return lines[:-1], json.loads(lines[-1])


def measure(workload, seed, seconds, trace, smoke=False, label=None):
    """One measurement; returns (report lines, result object)."""
    if workload not in WORKLOADS:
        fail("unknown workload %s (known: %s)" % (workload, ", ".join(WORKLOADS)))
    flags = ["--smoke"] if smoke else []
    try:
        setup = None if trace else setup_seconds(workload, seed, smoke)
        lines, result = run_binary(workload, seed, flags + [
            "--seconds", str(seconds), "--trace", "1" if trace else "0",
            "--describe", label or describe()])
    finally:
        shutil.rmtree(os.path.join(WORK_DIR, workload), ignore_errors=True)
    if setup is not None and "job_s" in result["metrics"]:
        result["metrics"] = dict([("setup_s", {"value": setup, "unit": "s"})] +
                                 list(result["metrics"].items()))
        lines.append("setup_s %r s (lower) median of %d starts" %
                     (setup, SETUP_REPS))
    return lines, result


def expected_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def smoke():
    """Self-test: every workload at its smallest size, untraced and traced."""
    end_to_end, per_layer = expected_names()
    label = describe()
    problems = []
    for workload in WORKLOADS:
        for trace, names in ((False, end_to_end), (True, per_layer)):
            lines, result = measure(workload, 1, 1, trace, smoke=True,
                                    label=label)
            tag = "%s trace=%d" % (workload, trace)
            got = list(result["metrics"])
            if not result["correct"] or result["failed"]:
                problems.append(tag + ": failed checks: " + "; ".join(
                    l for l in lines if l.startswith("FAILED")))
            if sorted(got) != sorted(names):
                problems.append(tag + ": metrics differ from BENCHMARK.json: "
                                "missing %s, extra %s" % (
                                    sorted(set(names) - set(got)),
                                    sorted(set(got) - set(names))))
            print("%-30s correct=%s attempted=%d metrics=%d" % (
                tag, result["correct"], result["attempted"], len(got)))
    for problem in problems:
        print("SMOKE FAILED: " + problem)
    print("smoke: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not (args.smoke or args.all or args.workload):
        parser.error("give --workload NAME, --all or --smoke")
    build()
    if args.smoke:
        return smoke()
    if args.all:
        label = describe()
        for workload in WORKLOADS:
            lines, result = measure(workload, args.seed, args.seconds,
                                    args.trace, label=label)
            print("== %s" % workload)
            print("\n".join(lines))
            print(json.dumps(result))
        return 0
    lines, result = measure(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
