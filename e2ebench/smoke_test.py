#!/usr/bin/env python3
"""Tiny-size smoke test of the end-to-end benchmark.

Run from the repository root:  python3 e2ebench/smoke_test.py

Runs every workload of BENCHMARK.json untraced and traced with --tiny
inputs for one second and asserts that every named metric is printed with
its unit (in the result JSON and in the human-readable `metric` lines),
that failed_frac is 0 and that every correctness check passed.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_one(workload, trace, expected):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "5", "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    problems = []
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return ["exit code %d: %s" % (proc.returncode, proc.stderr[-500:])]
    if proc.returncode != 0:
        problems.append("exit code %d" % proc.returncode)
    if result["correct"] is not True:
        problems.append("correct is false")
    if result["attempted"] < 1:
        problems.append("nothing attempted")
    if result["failed"] != 0:
        problems.append("failed = %d" % result["failed"])
    if "failed_frac = 0 " not in proc.stdout:
        problems.append("failed_frac is not 0")
    problems += [line for line in lines if line.startswith("CHECK FAILED")]
    got = result["metrics"]
    if sorted(got) != sorted(expected):
        problems.append("metric names differ: %s" %
                        sorted(set(got) ^ set(expected)))
    for name, unit in expected.items():
        if name in got and got[name]["unit"] != unit:
            problems.append("%s has unit %s, want %s" %
                            (name, got[name]["unit"], unit))
        prefix = "metric %s = " % name
        printed = [l for l in lines if l.startswith(prefix)]
        if len(printed) != 1 or not printed[0].endswith(" " + unit):
            problems.append("%s not printed once with unit %s" % (name, unit))
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    sets = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    failures = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            problems = run_one(workload, trace, sets[trace])
            status = "ok" if not problems else "FAIL"
            print("%-16s trace=%d %s" % (workload, trace, status))
            for p in problems:
                print("    " + p)
            failures += bool(problems)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
