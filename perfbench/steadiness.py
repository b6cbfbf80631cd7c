#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

Runs --sets sets of --seeds runs of each workload (seeds --seed-base ..
--seed-base + seeds - 1, the same in every set), one after another, and
prints per workload and end-to-end metric each set's median and its
spread (inter-quartile range as a share of the median, from
statistics.quantiles(n=4)), plus the drift between the first and the last
set's medians. The bound column is BENCHMARK.json's; a spread above a
third of it or a drift above it is flagged. Set bounds from the drift,
not from the spread within one set. Last, it checks that sim_cycles and
launch_attempts are identical for each seed across the sets.

    python3 perfbench/steadiness.py --seeds 10 --sets 2
    python3 perfbench/steadiness.py --workloads bfs-powerlaw --seeds 5 --sets 1
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT = ("sim_cycles", "launch_attempts")


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("steadiness: %s seed %d exited %d" % (workload, seed,
                                                       out.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("steadiness: %s seed %d reported failures" % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=0)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args()
    if args.seeds < 2:
        sys.exit("steadiness: need at least 2 seeds for quartiles")

    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    # values[set][workload][metric] -> one value per seed
    values = []
    for s in range(args.sets):
        per_set = {w: {} for w in workloads}
        for seed in range(args.seed_base, args.seed_base + args.seeds):
            for w in workloads:
                print("set %d %s seed %d" % (s + 1, w, seed), file=sys.stderr,
                      flush=True)
                for k, v in run_once(w, seed, args.seconds).items():
                    per_set[w].setdefault(k, []).append(v)
        values.append(per_set)

    head = ["workload", "metric"]
    for s in range(args.sets):
        head += ["set%d median" % (s + 1), "set%d IQR%%" % (s + 1)]
    head += ["drift%", "bound%", "verdict"]
    print("\t".join(head))
    for w in workloads:
        for metric, bound in bounds.items():
            row = [w, metric]
            flags = []
            for per_set in values:
                vs = per_set[w][metric]
                sp = spread(vs)
                row += ["%.6g" % statistics.median(vs), "%.2f" % (100 * sp)]
                if metric != "setup_s" and sp > bound / 3:
                    flags.append("spread")
            first = statistics.median(values[0][w][metric])
            last = statistics.median(values[-1][w][metric])
            drift = (last - first) / first if first else 0.0
            if abs(drift) > bound:
                flags.append("drift")
            row += ["%+.2f" % (100 * drift), "%.0f" % (100 * bound),
                    ",".join(flags) or "ok"]
            print("\t".join(row))
    # The model's metrics must repeat exactly for the same seed.
    for w in workloads:
        for metric in EXACT:
            per_seed = [tuple(v[w][metric]) for v in values]
            same = all(p == per_seed[0] for p in per_seed)
            print("exact %s %s: %s" % (w, metric,
                                        "identical" if same else "DIFFERS"))


if __name__ == "__main__":
    main()
