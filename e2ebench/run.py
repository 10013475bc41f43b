#!/usr/bin/env python3
"""End-to-end benchmark of hpas sweep / dataset / serve.

Run from the repository root:

    python3 e2ebench/run.py --workload sweep_sim --seed 7 --seconds 10 --trace 0

Builds the benchmark package (e2ebench/CMakeLists.txt, which compiles the
library from src/) into .bench_build/e2ebench on first use, then runs one
workload. Prints an `env` line (run environment), the benchmark's own
lines (checks, every metric with its unit, failed_frac) and, as the last
line, the JSON result. Exits non-zero without a result line when the build
or the run fails, and non-zero after the result line when a correctness
check or an operation failed. Scratch data goes to .bench_work/.
"""
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "hpas_e2ebench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def build_type():
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def source_digest():
    """sha256 over src/: identifies the code when there is no git checkout."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def read_text(path):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return "unavailable"


def fs_type(path):
    best, kind = "", "unknown"
    path = os.path.realpath(path)
    try:
        with open("/proc/self/mounts") as f:
            for line in f:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def environment():
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "build_type": build_type(),
        "git_commit": git_commit(),
        "src_digest": source_digest(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "cpu_governor": read_text(
            "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"),
        "work_fs": fs_type(ROOT),
    }


def main():
    build()
    env = environment()
    cmd = [BINARY] + sys.argv[1:]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail("benchmark exited with code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line is not a JSON result")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result has unexpected keys")
    print("env " + json.dumps(env, sort_keys=True))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    # A wrong output is not a measurement: the result line is still
    # printed, but the exit status says the run failed.
    if result["correct"] is not True or result["failed"] != 0:
        sys.stdout.flush()
        fail("correctness checks failed or operations failed")


if __name__ == "__main__":
    main()
