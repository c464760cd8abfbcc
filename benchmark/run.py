#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

    python3 benchmark/run.py --workload train|serve|decode --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The driver and the chimera library (the
root build's own target) are compiled into $CARGO_TARGET_DIR (default
.bench_build) on first use; later runs rebuild incrementally. All build
output goes to stderr; the last line of stdout is the driver's JSON result,
checked here against the metric names and units of BENCHMARK.json. With
--trace 1 the driver reports only the layers its workload exercises; the
others are filled in here as 0.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no root build next to the benchmark: nothing to build")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", os.path.join(ROOT, "benchmark"), "-B",
                   build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        subprocess.run(["cmake", "--build", build_dir, "-j", "4"], check=True,
                       stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "chimera_bench")


def checked_result(line, trace):
    """The driver's result with every metric of the mode in BENCHMARK.json
    order; per-layer metrics the workload does not exercise read 0."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result has the wrong keys")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    extra = sorted(set(got) - {m["name"] for m in want})
    if extra:
        fail(f"metrics not in BENCHMARK.json: {extra}")
    metrics = {}
    for m in want:
        if m["name"] not in got:
            if not trace:
                fail(f"end-to-end metric {m['name']} missing")
            got[m["name"]] = {"value": 0, "unit": m["unit"]}
        if got[m["name"]]["unit"] != m["unit"]:
            fail(f"metric {m['name']} has unit {got[m['name']]['unit']}, "
                 f"not {m['unit']}")
        metrics[m["name"]] = got[m["name"]]
    result["metrics"] = metrics
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["train", "serve", "decode"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(os.path.join(ROOT, build_dir))
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", args.trace],
            stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"driver exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("driver printed no result")
    result = checked_result(lines[-1], args.trace == "1")
    sys.stdout.write("\n".join(lines[:-1] + [json.dumps(result)]) + "\n")


if __name__ == "__main__":
    main()
