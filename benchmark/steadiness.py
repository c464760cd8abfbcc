#!/usr/bin/env python3
"""Runs the benchmark repeatedly and reports the spread of every metric.

    python3 benchmark/steadiness.py [--runs 10] [--first-seed 1]
        [--workloads train,serve,decode] [--seconds S]

Each workload runs --runs times with --trace 0, each run on its own seed
(first-seed, first-seed + 1, ...). For every end-to-end metric it prints the
median, the quartiles (statistics.quantiles(n=4)), the spread (Q3 - Q1) /
median and the metric's bound from BENCHMARK.json. A spread under a third of
the bound is steady; setup_s is exempt (its median is what is compared).
This is how the bounds in BENCHMARK.json were set. Every run's result goes to
benchmark/steadiness_out/steadiness-<first-seed>.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()
    if args.runs < 4:
        sys.exit("steadiness.py: quartiles need at least 4 runs")

    results = {}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            r = run_once(workload, args.first_seed + i, args.seconds)
            if not r["correct"]:
                steady = False
            values = " ".join(f"{k}={v['value']:.4g}"
                              for k, v in r["metrics"].items())
            print(f"{workload} seed {args.first_seed + i}: "
                  f"{'correct' if r['correct'] else 'INCORRECT'} {values}",
                  flush=True)
            runs.append(r)
        results[workload] = runs
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"\n{workload}: {args.runs} runs of {args.seconds:g} s, "
              f"failed share(s) {sorted(shares)}")
        print(f"  {'metric':<18}{'median':>12}{'Q1':>12}{'Q3':>12}"
              f"{'spread':>9}{'bound':>7}  verdict")
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if m["name"] == "setup_s":
                verdict = "exempt"
            elif spread < m["bound"] / 3:
                verdict = "steady"
            else:
                verdict = "UNSTEADY" if spread > m["bound"] else "marginal"
                steady = False
            print(f"  {m['name']:<18}{med:>12.4f}{q1:>12.4f}{q3:>12.4f}"
                  f"{spread:>9.4f}{m['bound']:>7.2f}  {verdict}")

    out_dir = os.path.join(HERE, "steadiness_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"steadiness-{args.first_seed}.json")
    with open(path, "w") as f:
        json.dump(results, f, indent=1)
    print(f"\nraw results: {os.path.relpath(path, ROOT)}")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
