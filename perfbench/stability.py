#!/usr/bin/env python3
"""Runs each workload repeatedly and prints the spread of every metric.

    python3 perfbench/stability.py --runs 10 --seconds 20
    python3 perfbench/stability.py --workloads serve_mixed --runs 5 --sets 2

Run from the root of a checkout. Each run uses the next seed (--first-seed,
--first-seed + 1, ...). For every workload and metric it prints the median,
the quartiles (statistics.quantiles, n=4) and the spread: (q3 - q1) / median.
End-to-end metrics are checked against their BENCHMARK.json bound: the
spread must stay below the bound (setup_s excepted) and, with --sets 2, the
second set's median may not be worse than the first's by more than it.
With --trace 1 the traced run's per-layer metrics are summarized instead.
Exits 1 when a check fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    out = subprocess.run(command, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
    last = out.stdout.rstrip("\n").split("\n")[-1]
    if out.returncode != 0 or not last.startswith("{"):
        raise SystemExit("run failed: %s seed %d (exit %d)" %
                         (workload, seed, out.returncode))
    return json.loads(last)


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--verbose", action="store_true",
                        help="also print every run's value")
    args = parser.parse_args()

    metrics = spec["per_layer" if args.trace else "end_to_end"]
    ok = True
    for workload in args.workloads:
        sets = []
        for _ in range(args.sets):
            results = [run_once(workload, args.first_seed + i, args.seconds,
                                args.trace) for i in range(args.runs)]
            sets.append(results)
            shares = {r["failed"] / r["attempted"] for r in results}
            if len(shares) != 1 or any(not r["correct"] for r in results):
                print("%s: failed share differs between runs or a run was "
                      "incorrect" % workload)
                ok = False
        print("\n%s (%d runs x %d set%s, %g s each)" %
              (workload, args.runs, args.sets, "" if args.sets == 1 else "s",
               args.seconds))
        print("  %-34s %14s %14s %14s %8s %6s %s" %
              ("metric", "median", "q1", "q3", "spread", "bound", "check"))
        for metric in metrics:
            name = metric["name"]
            medians = []
            for results in sets:
                values = [r["metrics"][name]["value"] for r in results]
                median, q1, q3, spread = summarize(values)
                medians.append(median)
                bound = metric.get("bound")
                verdict = ""
                if bound is not None and name != "setup_s":
                    verdict = "ok" if spread <= bound else "SPREAD"
                    if spread > bound:
                        ok = False
                print("  %-34s %14.6g %14.6g %14.6g %8.4f %6s %s" %
                      (name, median, q1, q3, spread,
                       "" if bound is None else "%.3g" % bound, verdict))
                if args.verbose:
                    print("      " + " ".join("%.6g" % v for v in values))
            if len(medians) == 2 and metric.get("bound") is not None:
                first, second = medians
                worse = (second - first) / first if metric["better"] == "lower" \
                    else (first - second) / first
                verdict = "ok" if worse <= metric["bound"] else "DRIFT"
                ok = ok and worse <= metric["bound"]
                print("  %-34s second set worse by %.4f: %s" %
                      (name, worse, verdict))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
