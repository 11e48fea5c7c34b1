#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload serve_mixed --seeds 1-10

For every metric it prints the median of the runs and the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of that median, next to the metric's bound in BENCHMARK.json.  A
benchmark is steady when every spread except setup_s stays below a third
of its bound.  Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0 or not result.get("correct"):
            sys.stderr.write(proc.stderr)
            sys.exit(f"seed {seed}: run failed (exit {proc.returncode})")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in sorted(result["metrics"].items())),
            flush=True)

    print(f"\n{'metric':32} {'median':>12} {'iqr/median':>11} {'bound':>6}")
    for name, vals in sorted(values.items()):
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  > bound/3"
        print(f"{name:32} {med:12.5g} {spread:11.4f} {bound if bound else '':>6}{flag}")


if __name__ == "__main__":
    main()
