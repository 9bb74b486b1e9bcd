#!/usr/bin/env python3
"""Paired comparison of two checkouts on the query-service benchmark.

    python3 perfbench/compare.py --parent ../parent --change .

Runs perfbench/run.py in the parent and the change checkout alternately:
10 pairs of every workload at BENCHMARK.json's run_seconds, swapping which
side goes first on every pair, with the same seed on both sides of a pair.
Prints each workload's median and quartiles per side and labels every
end-to-end metric of BENCHMARK.json:

  improved    the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range
  worse       the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  neither, and the parent's own spread (IQR / median) is wider
              than the bound, unless every change run beats every parent run
  unchanged   otherwise
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("hot_cache", "cold_local", "cold_exchange")
PAIRS = 10
BASE_SEED = 1000


def run(checkout, workload, seed, seconds):
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)  # each checkout builds in its own tree
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, stdout=subprocess.PIPE, text=True, check=False)
    result = json.loads(done.stdout.strip().split("\n")[-1])
    if done.returncode != 0 or not result["correct"]:
        sys.exit("compare: %s failed on %s (seed %d)" % (checkout, workload, seed))
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def classify(parent, change, better, bound):
    """The label of one metric from paired runs (lists in pair order)."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    if (wins >= 0.9 * len(parent) and sign * (cmed - pmed) > 0
            and abs(cmed - pmed) > p3 - p1):
        return "improved"
    if sign * (cmed - pmed) < 0 and abs(cmed - pmed) > bound * abs(pmed):
        return "worse"
    every_better = (min(change) > max(parent) if sign > 0
                    else max(change) < min(parent))
    if pmed and (p3 - p1) / abs(pmed) > bound and not every_better:
        return "unresolved"
    return "unchanged"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    args = parser.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    values = {}  # (workload, side) -> list of metric dicts, in pair order
    for pair in range(PAIRS):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for workload in WORKLOADS:
            for side in order:
                values.setdefault((workload, side), []).append(
                    run(sides[side], workload, BASE_SEED + pair, seconds))
        print("pair %d/%d done" % (pair + 1, PAIRS), file=sys.stderr)
    for workload in WORKLOADS:
        print("\n%s (%d pairs, %ds runs)" % (workload, PAIRS, seconds))
        print("  %-16s %-40s %-40s %s" % ("metric", "parent q1/median/q3",
                                         "change q1/median/q3", "verdict"))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [r[name] for r in values[(workload, "parent")]]
            change = [r[name] for r in values[(workload, "change")]]
            fmt = lambda v: "%.4g / %.4g / %.4g" % quartiles(v)
            print("  %-16s %-40s %-40s %s" % (
                name, fmt(parent), fmt(change),
                classify(parent, change, metric["better"], metric["bound"])))


if __name__ == "__main__":
    main()
