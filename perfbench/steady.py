#!/usr/bin/env python3
"""Steadiness report for perfbench.

Runs every workload repeatedly, alternating the workload order from round to
round and giving each round its own seed, then prints for each end-to-end
metric the median, the quartiles and the spread (Q3 - Q1) / median beside the
metric's bound from BENCHMARK.json, with host.ref_ms (a fixed block of
standard-library work timed before set-up and after teardown) alongside, so a
wide spread can be told apart from a noisy host.

Run from the repository root:
    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads relocate_kv --seconds 10

The raw results are written to .bench_build/steady.json (--out to change).
With --against an earlier results file, it also prints how far each median
moved from that set's, in the metric's "worse" direction, beside the bound:
two sets of the same code should agree within the bounds.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout + p.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {p.returncode}")
    result = json.loads(lines[-1])
    host = []
    for line in lines:
        m = re.match(r"host\.ref_ms: (.*) \(", line)
        if m:
            host = [float(x) for x in m.group(1).split()]
    return result, host, lines[:-1]


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10, help="runs per workload")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--seed", type=int, default=1, help="seed of the first round; round r uses seed + r")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--out", default=".bench_build/steady.json", help="where the raw results go")
    ap.add_argument("--against", help="an earlier --out file whose medians to compare with")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    runs = {w: [] for w in workloads}
    for r in range(args.runs):
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        for w in order:
            result, host, log = run_once(w, args.seed + r, args.seconds, 0)
            runs[w].append({"seed": args.seed + r, "result": result, "host_ref_ms": host, "log": log})
            print(f"round {r} {w}: correct={result['correct']} failed={result['failed']}/{result['attempted']} "
                  f"host.ref_ms={statistics.median(host):.2f}", flush=True)

    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(runs, f, indent=1)

    worst = 0.0
    for w in workloads:
        rs = runs[w]
        failed = sum(x["result"]["failed"] for x in rs)
        attempted = sum(x["result"]["attempted"] for x in rs)
        print(f"\n{w}: {len(rs)} runs, all correct={all(x['result']['correct'] for x in rs)}, "
              f"failed {failed}/{attempted} ({100.0 * failed / attempted:.3f}%)")
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6} {'spread/bound':>12}")
        for name, m in bounds.items():
            vals = [x["result"]["metrics"][name]["value"] for x in rs]
            q1, q2, q3 = quartiles(vals)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            ratio = spread / m["bound"]
            worst = max(worst, ratio)
            print(f"  {name:<16} {q2:>12.4f} {q1:>12.4f} {q3:>12.4f} {spread:>8.3f} {m['bound']:>6.2f} {ratio:>12.2f}")
        host = [statistics.median(x["host_ref_ms"]) for x in rs]
        q1, q2, q3 = quartiles(host)
        print(f"  {'host.ref_ms':<16} {q2:>12.4f} {q1:>12.4f} {q3:>12.4f} {(q3 - q1) / q2:>8.3f}")
    print(f"\nworst spread/bound: {worst:.2f}; steady when below 0.33")
    if args.against:
        with open(args.against) as f:
            before = json.load(f)
        compare(before, runs, bounds)


def compare(before, after, bounds):
    """Prints, per workload and metric, how much worse after's median is than
    before's, as a share of before's median, beside the bound."""
    worst = 0.0
    for w in after:
        if w not in before:
            continue
        print(f"\n{w}: median shift against the earlier set (positive = worse)")
        for name, m in bounds.items():
            m1 = statistics.median(x["result"]["metrics"][name]["value"] for x in before[w])
            m2 = statistics.median(x["result"]["metrics"][name]["value"] for x in after[w])
            shift = (m2 - m1) / m1 if m["better"] == "lower" else (m1 - m2) / m1
            worst = max(worst, shift / m["bound"])
            print(f"  {name:<16} {m1:>12.4f} {m2:>12.4f} {shift:>+8.3f} {m['bound']:>6.2f}")
    print(f"\nworst shift/bound: {worst:.2f}; the sets agree when below 1")


if __name__ == "__main__":
    main()
