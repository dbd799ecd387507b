#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics against their bounds.

    python3 rqbench/spread.py [--runs 10] [--sets 2] [--workload NAME ...]

Run from the repository root. For each workload, makes `--sets` sets of
`--runs` untraced runs of the current build, each run with its own seed,
and prints per end-to-end metric: each set's median and quartile spread
(Q3 - Q1 over the median, from statistics.quantiles(n=4)), the metric's
bound from BENCHMARK.json, and the drift between the first and each later
set's median, |m - m0| over the smaller of the two, so the order of the
sets does not matter. It also checks that every set has the same share of
failed operations. Exits 1 when a spread or a drift exceeds its bound, or
the failed shares differ.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        ["python3", "rqbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--values", action="store_true",
                        help="also print every run's value")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    ok = True
    seed = args.first_seed
    for workload in workloads:
        sets = []
        for _ in range(args.sets):
            results = []
            for _ in range(args.runs):
                results.append(run_once(workload, seed, seconds))
                seed += 1
            sets.append(results)
        print(f"== {workload} ({args.sets} sets x {args.runs} runs, "
              f"{seconds} s each)")
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s)
                  for s in sets]
        correct = all(r["correct"] for s in sets for r in s)
        print(f"   correct={correct} failed share per set={shares}")
        if len(set(shares)) != 1 or not correct:
            ok = False
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians, spreads = [], []
            for s in sets:
                values = [r["metrics"][name]["value"] for r in s]
                medians.append(statistics.median(values))
                spreads.append(spread(values))
            drifts = [abs(m - medians[0]) / min(m, medians[0])
                      for m in medians[1:]]
            bad_spread = max(spreads) > bound
            bad_drift = any(d > bound for d in drifts)
            ok = ok and not bad_spread and not bad_drift
            flag = "FAIL" if bad_spread or bad_drift else (
                "ok" if max(spreads + drifts) < bound / 3 else "ok (> bound/3)")
            print(f"   {name:24s} medians="
                  + " ".join(f"{m:.6g}" for m in medians)
                  + " spread=" + " ".join(f"{s:.3f}" for s in spreads)
                  + f" bound={bound} drift="
                  + " ".join(f"{d:.3f}" for d in drifts) + f"  {flag}")
            if args.values:
                for i, s in enumerate(sets):
                    print(f"      set {i + 1}: " + " ".join(
                        f"{r['metrics'][name]['value']:.4g}" for r in s))
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
