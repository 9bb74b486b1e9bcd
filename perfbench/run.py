#!/usr/bin/env python3
"""Query-service benchmark: one run of one workload.

    python3 perfbench/run.py --workload hot_cache --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seconds 20        # every workload in turn

Run from the root of a checkout. Builds the daemon and the load driver in
Release from the checkout's sources (into $CARGO_TARGET_DIR, default
.bench_build; a no-op when nothing changed), then runs the driver, which
spawns `mpcstabd serve --http-port 0`, drives closed-loop POST /v1/query
traffic over loopback and validates every response. The last stdout line is
the result object {"correct","attempted","failed","metrics"}: end-to-end
metrics with --trace 0, per-layer metrics with --trace 1. The full report
(every metric with its samples or base, the run environment and the
layer-to-end-to-end map of perfbench/layers.json) is written to
<build dir>/reports/<workload>-seed<N>-trace<T>.json.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hot_cache", "cold_local", "cold_exchange")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(os.path.join(ROOT, target)), "perfbench")


def build(out):
    """Configures (once) and builds the Release daemon and driver."""
    for needed in ("src/CMakeLists.txt", "tools/mpcstabd.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("%s is missing: run from the root of a full checkout" % needed)
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", *generator, "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def git_sha():
    # The ceiling stops git from reporting an enclosing repository when the
    # checkout itself is not one.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              env=env, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """sha256 over the sources the benchmark builds, for checkouts without git."""
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def environment(report):
    env = {
        "nproc": os.cpu_count(),
        "build_type": "Release",
        "thread_budget": report.get("thread_budget"),
        "max_engines": report.get("max_engines"),
        "git_sha": git_sha(),
    }
    if env["git_sha"] is None:
        env["source_sha256"] = source_digest()
    return env


def run_one(out, workload, seed, seconds, trace):
    """Runs the driver once; returns (exit code, last stdout line)."""
    reports = os.path.join(os.path.dirname(out), "reports")
    os.makedirs(reports, exist_ok=True)
    report_path = os.path.join(
        reports, "%s-seed%d-trace%d.json" % (workload, seed, trace))
    if os.path.exists(report_path):
        os.remove(report_path)  # never annotate a previous run's report
    cmd = [os.path.join(out, "perfbench_driver"),
           "--daemon", os.path.join(out, "mpcstabd"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--report", report_path]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %ds" % (workload, RUN_TIMEOUT_S))
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if os.path.isfile(report_path):
        with open(report_path) as f:
            report = json.load(f)
        report["environment"] = environment(report)
        with open(os.path.join(HERE, "layers.json")) as f:
            report["layers"] = json.load(f)
        with open(report_path, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return done.returncode, declared_only(lines[-1] if lines else "", trace)


def declared_only(last, trace):
    """Keeps the result line's metrics to those BENCHMARK.json declares for
    the mode (end_to_end or per_layer); the report keeps every metric."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        result = json.loads(last)
        with open(path) as f:
            declared = json.load(f)["per_layer" if trace else "end_to_end"]
    except (OSError, ValueError, KeyError):
        return last
    names = [m["name"] for m in declared]
    result["metrics"] = {n: result["metrics"][n] for n in names
                         if n in result["metrics"]}
    return json.dumps(result)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.all and args.workload is None:
        parser.error("--workload or --all is required")
    out = build_dir()
    build(out)
    status = 0
    for workload in WORKLOADS if args.all else (args.workload,):
        code, last = run_one(out, workload, args.seed, args.seconds, args.trace)
        if code != 0:
            print("perfbench: %s exited %d" % (workload, code), file=sys.stderr)
        status = status or code
        print(last, flush=True)
    sys.exit(status)


if __name__ == "__main__":
    main()
