#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload hit_mix --seeds 1-10 [--trace 0]

For every metric it prints the median of the runs, the distance between
the first and third quartile (statistics.quantiles(values, n=4)) as a
share of the median, and the metric's bound from BENCHMARK.json. A
spread at or above a third of its bound is flagged: the benchmark is
steady only when every end-to-end spread except setup_s sits below it.
Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in
              bench["end_to_end"] + bench["per_layer"]}
    values, failures = {}, 0
    for seed in seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds",
               str(bench["run_seconds"]), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print("seed %d: exit %d\n%s" % (seed, out.returncode,
                                            out.stderr[-2000:]))
            failures += 1
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            failures += 1
        print("seed %d: correct=%s attempted=%d failed=%d" % (
            seed, result["correct"], result["attempted"], result["failed"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    unsteady = 0
    print("%-32s %14s %9s %7s %s" % ("metric", "median", "spread", "bound",
                                      ""))
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med] * 3
        spread = (q[2] - q[0]) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread >= bound / 3:
            flag = "UNSTEADY"
            unsteady += 1
        print("%-32s %14.6g %8.1f%% %7s %-8s %s" % (
            name, med, 100 * spread,
            "" if bound is None else "%.0f%%" % (100 * bound), flag,
            " ".join("%.4g" % v for v in vs)))
    return 1 if failures or unsteady else 0


if __name__ == "__main__":
    sys.exit(main())
