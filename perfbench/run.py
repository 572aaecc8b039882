#!/usr/bin/env python3
"""Builds and runs the simulator's benchmark (perfbench).

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig07_grid --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

A run configures and builds perfbench/CMakeLists.txt (the library in src/
plus the driver in perfbench/src) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs the driver. Its standard output ends with
one JSON object: {"correct", "attempted", "failed", "metrics"}. --trace 0
reports BENCHMARK.json's end_to_end metrics, --trace 1 its per_layer ones.

--selftest checks BENCHMARK.json and perfbench/manifest.json against the
benchmark's schema, runs every workload once at smoke size with and without
tracing (every named metric present with its unit, no failed point), and
checks that a corrupted committed digest is reported as a failure.
"""

import argparse
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
BUILD_JOBS = 2


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_process(cmd, timeout, capture):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds the driver; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("the library sources (src/) are not in this checkout")
        return None
    out = build_dir()
    try:
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            code, _ = run_process(
                ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                BUILD_TIMEOUT_S, capture=False)
            if code != 0:
                log("cmake configure failed")
                return None
        code, _ = run_process(["cmake", "--build", out, "-j", str(BUILD_JOBS)],
                              BUILD_TIMEOUT_S, capture=False)
    except subprocess.TimeoutExpired:
        log("build timed out")
        return None
    if code != 0:
        log("build failed")
        return None
    return os.path.join(out, "perfbench")


def source_id():
    """The commit when run from a git clone, else a hash of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
            if res.returncode == 0:
                return res.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha1-" + h.hexdigest()[:16]


def run_driver(binary, workload, seed, seconds, trace, extra=()):
    """Runs the driver; returns (all stdout lines, parsed result or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--root", ROOT, "--commit", source_id()]
    if trace:
        spans = os.path.join(build_dir(), "spans", f"{workload}-seed{seed}.json")
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        cmd += ["--spans", spans]
    cmd += list(extra)
    try:
        code, out = run_process(cmd, RUN_TIMEOUT_S, capture=True)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return [], None
    lines = out.splitlines()
    if code != 0 or not lines:
        log(f"driver exited with code {code}")
        return lines, None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("the driver's last line is not JSON")
        return lines, None
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        log("the driver's result has the wrong keys")
        return lines, None
    return lines, result


def load_json(name):
    with open(os.path.join(ROOT, name)) as f:
        return json.load(f)


# --- self-test ----------------------------------------------------------------

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def check_schema(errors):
    bench = load_json("BENCHMARK.json")
    keys = ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
    if sorted(bench) != keys:
        errors.append(f"BENCHMARK.json keys {sorted(bench)} != {keys}")
        return bench
    cmd = bench["command"]
    if not (isinstance(cmd, list) and 1 <= len(cmd) <= 32 and
            all(isinstance(c, str) and len(c) <= 200 and not c.startswith("/") and ".." not in c
                for c in cmd)):
        errors.append("command must be 1-32 relative strings")
    paths = bench["paths"]
    if not (1 <= len(paths) <= 16 and all(PATH_RE.match(p) and ".." not in p for p in paths)):
        errors.append("paths must be 1-16 relative directories")
    if not (isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60):
        errors.append("run_seconds must be a whole number in [1, 60]")
    names = []
    if not 2 <= len(bench["workloads"]) <= 8:
        errors.append("there must be 2-8 workloads")
    for w in bench["workloads"]:
        if sorted(w) != ["name", "why"] or len(w["why"]) > 200 or "\n" in w["why"]:
            errors.append(f"workload entry {w} is malformed")
        names.append(w["name"])
    for section, lo, hi in (("end_to_end", 1, 16), ("per_layer", 1, 128)):
        if not lo <= len(bench[section]) <= hi:
            errors.append(f"{section} must have {lo}-{hi} metrics")
        for m in bench[section]:
            want = ["better", "bound", "name", "unit"] if section == "end_to_end" else \
                ["better", "name", "unit"]
            if sorted(m) != want:
                errors.append(f"{section} entry {m} must have exactly the keys {want}")
                continue
            if not UNIT_RE.match(m["unit"]) or m["better"] not in ("higher", "lower"):
                errors.append(f"{section} entry {m['name']} has a bad unit or direction")
            if section == "end_to_end" and not 0 < m["bound"] <= 0.25:
                errors.append(f"{m['name']}: bound must be in (0, 0.25]")
            names.append(m["name"])
    for n in names:
        if not NAME_RE.match(n):
            errors.append(f"bad name {n!r}")
    if len(names) != len(set(names)):
        errors.append("names must be unique")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errors.append("end_to_end must hold setup_s in s, lower is better")
    elif setup[0]["bound"] < max(m["bound"] for m in bench["end_to_end"]):
        errors.append("setup_s must have the largest bound")

    manifest = load_json("perfbench/manifest.json")
    layer_names = {m["name"] for m in bench["per_layer"]}
    e2e_names = {m["name"] for m in bench["end_to_end"]}
    workload_names = {w["name"] for w in bench["workloads"]}
    moves = manifest.get("per_layer_moves", {})
    if set(moves) != layer_names:
        errors.append("manifest per_layer_moves must name exactly the per_layer metrics")
    for name, move in moves.items():
        if not set(move["end_to_end"]) <= e2e_names | {"none"} or \
                not set(move["workloads"]) <= workload_names:
            errors.append(f"manifest entry {name} names an unknown metric or workload")
    for key in ("default_seed", "holdout_seed"):
        if not isinstance(manifest.get(key), int):
            errors.append(f"manifest must name the {key}")
    return bench


def check_result(label, result, specs, errors):
    if result is None:
        errors.append(f"{label}: no result")
        return
    if result["failed"] != 0 or not result["correct"] or result["attempted"] < 1:
        errors.append(f"{label}: {result['failed']} of {result['attempted']} points failed")
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in specs}:
        errors.append(f"{label}: metrics {sorted(metrics)} do not match BENCHMARK.json")
        return
    for m in specs:
        got = metrics[m["name"]]
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            errors.append(f"{label}: {m['name']} should be a number in {m['unit']}")


def selftest():
    errors = []
    bench = check_schema(errors)
    binary = build()
    if binary is None:
        errors.append("the benchmark does not build")
    else:
        for w in bench["workloads"]:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                label = f"{w['name']} --trace {trace}"
                _, result = run_driver(binary, w["name"], 1, 0, trace, ["--smoke"])
                check_result(label, result, bench[section], errors)
                if result is not None and trace == 0:
                    for name, m in result["metrics"].items():
                        if not m["value"] > 0:
                            errors.append(f"{label}: end-to-end {name} is not positive")
                log(f"self-test: {label} done")
        lines, result = run_driver(binary, "interactive_hog", 1, 0, 0,
                                   ["--smoke", "--corrupt-digest"])
        if result is None or result["correct"] or result["failed"] < 1 or \
                not any(line.startswith("FAILED ") and "digest" in line for line in lines):
            errors.append("a corrupted committed digest was not reported as a failed point")
    for e in errors:
        print(f"SELFTEST FAIL {e}")
    print("selftest: " + ("ok" if not errors else f"{len(errors)} problem(s)"))
    return 0 if not errors else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes, for quick checks")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(BENCH_DIR, "CMakeLists.txt")):
        log("perfbench/CMakeLists.txt is missing")
        return 2
    if args.selftest:
        return selftest()
    if not args.workload:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")

    started = time.monotonic()
    binary = build()
    if binary is None:
        return 2
    log(f"build ready in {time.monotonic() - started:.1f} s")
    lines, result = run_driver(binary, args.workload, args.seed, args.seconds, args.trace,
                               ["--smoke"] if args.smoke else [])
    if result is None:
        for line in lines:
            print(line, file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
