#!/usr/bin/env python3
"""Gate BENCH_*.json runs against the checked-in baseline.

Compares one or more runs of a microbenchmark (microbench_engine or
microbench_dataset; the suite is read from the file's top-level "suite"
marker) against the corresponding bench/BENCH_<suite>_baseline.json and
fails (exit 1) on regression beyond the allowed fraction (default 30%,
per the CI bench-smoke job). Machine-independent contracts (zero
allocations, bit-equality, flat memory) are enforced by the benchmark
binaries themselves; this script only guards against drift.

Given several runs of the same suite, the gate compares the *median*
with a variance bar: a metric fails only when its median is beyond the
allowed bound by more than one sample standard deviation. That keeps a
single noisy repeat from failing CI while still catching real drift --
the medians-with-variance-bars companion to bench_stats.py's CV gate.
With a single run the bar is zero and the comparison is the plain
point-estimate floor/ceiling.

Metrics are directional: throughput regresses downward (gated by a
floor), footprint metrics such as peak RSS regress upward (gated by a
ceiling).

Usage: check_bench_regression.py RUN.json [RUN2.json ...]
           [--baseline PATH] [--suite engine|dataset]
           [--max-regression 0.30]
"""

import json
import statistics
import sys
from pathlib import Path

# (path into the JSON document, human label, direction)
# direction "higher" = bigger is better (floor gate); "lower" = smaller
# is better (ceiling gate).
METRICS_BY_SUITE = {
    "engine": [
        (("engine", "events_per_sec"), "engine events/sec", "higher"),
        (("world", "incremental_events_per_sec"),
         "world incremental events/sec", "higher"),
        (("world", "speedup"), "incremental vs full-recompute speedup",
         "higher"),
        (("dragonfly1k", "agg_ops_per_sec"),
         "dragonfly1k aggregate ops/sec", "higher"),
        (("peak_rss_bytes",), "peak RSS bytes", "lower"),
    ],
    "dataset": [
        (("extractor", "samples_per_sec"),
         "streaming extractor samples/sec", "higher"),
        (("factory", "rows_per_sec"), "factory rows/sec", "higher"),
        # Deterministic row framing: 24-byte shard headers amortized over
        # the rows plus 8 + 12 + 8F bytes per frame. Growth means the
        # on-disk format got fatter.
        (("factory", "bytes_per_row"), "shard bytes/row", "lower"),
        (("factory", "peak_buffered_values"),
         "peak buffered values per row", "lower"),
        (("peak_rss_bytes",), "peak RSS bytes", "lower"),
    ],
}

def lookup(doc, path):
    node = doc
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


def main(argv):
    run_paths = []
    baseline_path = None
    suite = None
    max_regression = 0.30
    i = 1
    while i < len(argv):
        arg = argv[i]
        if arg == "--max-regression" and i + 1 < len(argv):
            max_regression = float(argv[i + 1])
            i += 2
        elif arg == "--baseline" and i + 1 < len(argv):
            baseline_path = Path(argv[i + 1])
            i += 2
        elif arg == "--suite" and i + 1 < len(argv):
            suite = argv[i + 1]
            i += 2
        elif arg.startswith("--"):
            print(__doc__.strip(), file=sys.stderr)
            return 2
        else:
            run_paths.append(Path(arg))
            i += 1
    if not run_paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    runs = [json.loads(p.read_text()) for p in run_paths]
    if suite is None:
        suite = runs[0].get("suite", "engine")
    if suite not in METRICS_BY_SUITE:
        print(f"unknown suite {suite!r} (have: "
              f"{', '.join(sorted(METRICS_BY_SUITE))})", file=sys.stderr)
        return 2
    for path, run in zip(run_paths, runs):
        run_suite = run.get("suite", "engine")
        if run_suite != suite:
            print(f"{path}: suite {run_suite!r} does not match {suite!r}",
                  file=sys.stderr)
            return 2
    if baseline_path is None:
        baseline_path = (Path(__file__).resolve().parent
                         / f"BENCH_{suite}_baseline.json")
    baseline = json.loads(baseline_path.read_text())

    n = len(runs)
    failures = 0
    for path, label, direction in METRICS_BY_SUITE[suite]:
        values = [lookup(run, path) for run in runs]
        base = lookup(baseline, path)
        if any(v is None for v in values) or base is None:
            print(f"FAIL  {label}: missing from "
                  f"{'baseline' if base is None else 'a current run'}")
            failures += 1
            continue
        median = statistics.median(values)
        sigma = statistics.stdev(values) if n > 1 else 0.0
        if direction == "higher":
            bound = base * (1.0 - max_regression)
            ok = median >= bound - sigma
            bound_name = "floor"
        else:
            bound = base * (1.0 + max_regression)
            ok = median <= bound + sigma
            bound_name = "ceiling"
        bar = f" +/- {sigma:.3g} over {n} runs" if n > 1 else ""
        status = "ok  " if ok else "FAIL"
        print(f"{status}  {label}: median {median:.4g}{bar}, "
              f"baseline {base:.4g} ({bound_name} {bound:.4g})")
        if not ok:
            failures += 1

    if failures:
        print(f"\n{failures} metric(s) regressed more than "
              f"{max_regression:.0%} vs {baseline_path}", file=sys.stderr)
        return 1
    print("\nall metrics within the regression budget")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
