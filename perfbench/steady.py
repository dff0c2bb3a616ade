#!/usr/bin/env python3
"""Steadiness check: run each workload once per seed and report, for every
end-to-end metric, its median, quartiles and spread — the distance between
the first and third quartile as a share of the median.

    python3 perfbench/steady.py --workloads cli-dup --seeds 1-10 --sets 2

Bounds in BENCHMARK.json are derived from these spreads: a metric holds
when its spread is below a third of its bound. With `--sets N` the seeds
run N times over, and every later set's median must not be worse than the
first set's by more than the bound. Exits 1 if any metric fails either
test or any run reports a failed operation. Run from the repository root;
each run goes through perfbench/run.sh, which builds first.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worsening(metric, first, later):
    """How much worse `later` is than `first`, as a share of `first`."""
    change = (later - first) / first
    return change if metric["better"] == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    parser.add_argument("--workloads", help="comma-separated (default: all)")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,4,9")
    parser.add_argument("--sets", type=int, default=1, help="times to run the seeds")
    parser.add_argument("--seconds", type=int, help="default: run_seconds")
    args = parser.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    steady = True
    for workload in workloads:
        medians = []
        for set_no in range(1, args.sets + 1):
            values = {name: [] for name in metrics}
            for seed in seeds(args.seeds):
                result = run(workload, seed, seconds, 0)
                if not result["correct"] or result["failed"]:
                    steady = False
                    print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
                for name in metrics:
                    values[name].append(result["metrics"][name]["value"])
                print(f"{workload} set {set_no} seed {seed}: " + ", ".join(
                    f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)
            print(f"\n{workload} set {set_no}: {len(seeds(args.seeds))} runs")
            print(f"{'metric':<16} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}"
                  f" {'vs set 1':>9}")
            set_medians = {}
            for name, vals in values.items():
                bound = metrics[name]["bound"]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                set_medians[name] = med
                spread = (q3 - q1) / med
                notes = []
                if spread >= bound / 3:
                    notes.append("TOO WIDE")
                shift = worsening(metrics[name], medians[0][name], med) if medians else 0.0
                if shift > bound:
                    notes.append("WORSE THAN SET 1")
                steady &= not notes
                print(f"{name:<16} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} {bound:>6}"
                      f" {shift:>+9.4f}  {' '.join(notes)}")
            medians.append(set_medians)
            print()
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
