#!/usr/bin/env python3
"""Parent-vs-change comparison for the repo benchmark.

Runs perfbench/run.py in two checkouts on seeds 1..PAIRS, both sides at
the change's BENCHMARK.json run_seconds, alternating which side runs
first, and prints for every end-to-end metric each side's median and
quartiles, the change's median relative to the parent's, how many pairs the
change won (ties count for neither), and the metric's bound.

  python3 perfbench/compare.py PARENT_DIR CHANGE_DIR --workload table1 \\
      [--pairs 10]
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def run(checkout, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit("run failed in %s (seed %d, exit %d)"
                 % (checkout, seed, p.returncode))
    return json.loads(lines[-1])["metrics"]


def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    a = ap.parse_args()
    with open(os.path.join(a.change, "BENCHMARK.json")) as f:
        spec = json.load(f)

    runs = {"parent": [], "change": []}
    for i in range(a.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run(getattr(a, side), a.workload, i + 1,
                                  spec["run_seconds"]))

    print("%s, %d pairs at %d s: median [q1, q3] per side"
          % (a.workload, a.pairs, spec["run_seconds"]))
    for m in spec["end_to_end"]:
        name = m["name"]
        lower = m["better"] == "lower"
        p = [r[name]["value"] for r in runs["parent"]]
        c = [r[name]["value"] for r in runs["change"]]
        wins = sum(1 for x, y in zip(p, c) if (y < x if lower else y > x))
        pq, cq = spread(p), spread(c)
        rel = cq[1] / pq[1] - 1.0 if pq[1] else float("nan")
        print("  %-12s parent %.4g [%.4g, %.4g]  change %.4g [%.4g, %.4g]  "
              "%+.1f%%  change won %d/%d  bound %.0f%% (%s is better)"
              % (name, pq[1], pq[0], pq[2], cq[1], cq[0], cq[2], 100 * rel,
                 wins, a.pairs, 100 * m["bound"], m["better"]))


if __name__ == "__main__":
    main()
