#!/usr/bin/env python3
"""Holds a fresh micro_bench run to the committed snapshot's throughput.

    perf_gate.py SNAPSHOT FRESH...

All files are micro_bench JSON (--benchmark_out_format=json); the fresh run
may be split over several files, whose entries the gate takes together. It
judges every entry the snapshot names by its best repetition on each side:

  * a sweep (an entry with an efficiency counter): efficiency within
    [0.5, 2.0]x of the snapshot;
  * an end-to-end run (an entry with pages_touched_per_s):
    pages_touched_per_s and sim_events_per_s within [0.4, 2.5]x;
  * a micro-kernel (any other entry): items_per_second at least 0.05x.

A two-sided rate above its band fails as well: the snapshot is stale or the
measurement is broken, and the snapshot is re-recorded (docs/INTERNALS.md,
section 7). The gate also fails when a snapshot entry is missing from the
fresh run, and when a fresh entry reports error_occurred (it skipped itself:
an experiment did not complete, or the serial and parallel sweep tables
differ). Exit status 0 means every check passed, 1 that one failed.
"""

import json
import sys

# (metric, lowest ratio, highest ratio) per kind of entry.
SWEEP = [("efficiency", 0.5, 2.0)]
END_TO_END = [("pages_touched_per_s", 0.4, 2.5), ("sim_events_per_s", 0.4, 2.5)]
MICRO_KERNEL = [("items_per_second", 0.05, float("inf"))]


def load_runs(paths):
    """Each entry's repetitions (google-benchmark "iteration" runs) by name."""
    runs = {}
    for path in paths:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        for run in doc["benchmarks"]:
            if run["run_type"] == "iteration":
                runs.setdefault(run["run_name"], []).append(run)
    return runs


def check(snapshot, fresh):
    """Prints one line per gated metric; returns the failures."""
    failures = list(dict.fromkeys(  # one line per entry, not per repetition
        f"{name}: error_occurred: {run.get('error_message', '')}"
        for name, runs in fresh.items() for run in runs if run.get("error_occurred")))
    for name, base_runs in snapshot.items():
        runs = fresh.get(name)
        if runs is None:
            failures.append(f"{name}: in the snapshot but missing from the fresh run")
            continue
        if any(run.get("error_occurred") for run in runs):
            continue
        kind = SWEEP if "efficiency" in base_runs[0] else \
            END_TO_END if "pages_touched_per_s" in base_runs[0] else MICRO_KERNEL
        for metric, lo, hi in kind:
            ratio = max(run[metric] for run in runs) / max(run[metric] for run in base_runs)
            verdict = f"{name}: {metric} is {ratio:.2f}x the snapshot"
            print(f"{verdict}, band [{lo}, {hi}]")
            if ratio < lo:
                failures.append(f"{verdict}, below its band [{lo}, {hi}]")
            elif ratio > hi:
                failures.append(f"{verdict}, above its band [{lo}, {hi}]: re-record the snapshot")
    return failures


def main(argv):
    if len(argv) < 3:
        print("usage: perf_gate.py SNAPSHOT FRESH...", file=sys.stderr)
        return 2
    failures = check(load_runs(argv[1:2]), load_runs(argv[2:]))
    for failure in failures:
        print(f"FAILED {failure}")
    print("perf_gate: " + ("ok" if not failures else f"{len(failures)} failure(s)"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
