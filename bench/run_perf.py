#!/usr/bin/env python3
"""Run perf_microbench and emit/append a compact perf-trajectory JSON.

Every PR that touches a hot path should append a labelled run to
BENCH_phase1.json (committed at the repo root) so the perf history is
reviewable alongside the code:

    bench/run_perf.py --bin build/release/bench/perf_microbench \
        --label "PR N: what changed" --append --out BENCH_phase1.json

The emitted schema (gtl-bench-v1):

    {
      "schema": "gtl-bench-v1",
      "runs": [
        {
          "label": "...",            # human description of the tree state
          "git_rev": "abc1234",      # HEAD; "-dirty" if tree uncommitted
          "date": "2026-07-29T...",  # from google-benchmark's context
          "num_cpus": 8,
          "mhz_per_cpu": 3000,
          "benchmarks": {
            "BM_OrderingGrow/32000": {
              "real_time_ns": 5116275.0,
              "cpu_time_ns": 5017241.0,
              "items_per_second": 1594500.0,   # when the bench reports it
              "iterations": 3
            }, ...
          }
        }, ...
      ]
    }

Aggregate entries (when --repetitions is used) keep only the median, the
robust center for regression comparison.  --compare prints a ratio
table against the last recorded run; on its own it is read-only (no
file is written) — combine with --append to also record the run.
"""

import argparse
import json
import os
import subprocess
import sys

DEFAULT_FILTER = (
    "BM_OrderingGrow|BM_GroupConnectivity|BM_GroupAssignSmall|"
    "BM_RefineCandidate|BM_LargeNetThreshold|"
    "BM_ScoreCurve|BM_RefinePhase|BM_FinderRun|"
    "BM_FinderColdStart|BM_FinderReuse|"
    "BM_BookshelfParse|BM_SnapshotLoad|"
    "BM_PlacerSolve|BM_SpMV"
)

# --compare flags any tracked benchmark slower than the last recorded run
# by more than this factor.  Advisory: the exit code stays 0 (CI smoke
# runners are noisy, shared, and differently sized — a flag is a prompt
# to re-measure on quiet hardware, not a verdict).
REGRESSION_FACTOR = 1.15

SCHEMA = "gtl-bench-v1"


def run_benchmarks(binary, bench_filter, min_time, repetitions):
    cmd = [
        binary,
        f"--benchmark_filter={bench_filter}",
        "--benchmark_format=json",
    ]
    if min_time is not None:
        # Bare seconds: google-benchmark <= 1.7 rejects the "Ns" suffix
        # that newer releases accept.
        cmd.append(f"--benchmark_min_time={min_time}")
    if repetitions > 1:
        cmd.append(f"--benchmark_repetitions={repetitions}")
        cmd.append("--benchmark_report_aggregates_only=true")
    try:
        out = subprocess.run(cmd, check=True, capture_output=True, text=True)
    except subprocess.CalledProcessError as e:
        # Surface the binary's own error text; the bare CalledProcessError
        # shows only the command and exit code.
        sys.exit(f"benchmark run failed (exit {e.returncode}):\n{e.stderr}")
    return json.loads(out.stdout)


def git_rev():
    try:
        # --dirty marks measurements taken on an uncommitted tree, so a
        # recorded rev always identifies real code state.
        return subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            check=True, capture_output=True, text=True,
        ).stdout.strip()
    except (subprocess.CalledProcessError, FileNotFoundError):
        return "unknown"


def to_ns(value, unit):
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    return value * scale.get(unit, 1.0)


def extract_run(raw, label, repetitions):
    ctx = raw.get("context", {})
    benchmarks = {}
    for b in raw.get("benchmarks", []):
        name = b["name"]
        if repetitions > 1:
            # Keep only the median aggregate; strip the suffix so run
            # keys line up across single-shot and repeated runs.
            if b.get("aggregate_name") != "median":
                continue
            name = name.rsplit("_median", 1)[0]
        # UseRealTime benchmarks report as "<name>/real_time"; strip the
        # marker so their keys line up with the pre-UseRealTime history.
        if name.endswith("/real_time"):
            name = name[: -len("/real_time")]
        entry = {
            "real_time_ns": to_ns(b["real_time"], b.get("time_unit", "ns")),
            "cpu_time_ns": to_ns(b["cpu_time"], b.get("time_unit", "ns")),
            "iterations": b.get("iterations", 0),
        }
        if "items_per_second" in b:
            entry["items_per_second"] = b["items_per_second"]
        benchmarks[name] = entry
    return {
        "label": label,
        "git_rev": git_rev(),
        "date": ctx.get("date", ""),
        "num_cpus": ctx.get("num_cpus", 0),
        "mhz_per_cpu": ctx.get("mhz_per_cpu", 0),
        "benchmarks": benchmarks,
    }


def load_doc(path):
    if os.path.exists(path):
        with open(path) as f:
            doc = json.load(f)
        if doc.get("schema") != SCHEMA:
            sys.exit(f"{path}: unknown schema {doc.get('schema')!r}")
        return doc
    return {"schema": SCHEMA, "runs": []}


def print_comparison(prev, cur):
    """Real-time ratio table vs `prev` (wall clock is the only meaningful
    axis for the pool-threaded Finder benchmarks, whose work happens off
    the benchmark thread).  Rows slower than REGRESSION_FACTOR x the
    recorded time are flagged; returns the flagged names (advisory — the
    caller/CI must not fail on them)."""
    flagged = []
    missing = []
    print(f"{'benchmark':<42} {'prev ns':>12} {'cur ns':>12} {'speedup':>8}")
    names = sorted(set(prev["benchmarks"]) | set(cur["benchmarks"]))
    for name in names:
        old = prev["benchmarks"].get(name)
        entry = cur["benchmarks"].get(name)
        if entry is None:
            # A tracked benchmark that vanished is worse than a slow one:
            # surface it instead of silently shrinking the table.
            print(f"{name:<42} {old['real_time_ns']:>12.0f} {'-':>12} "
                  f"{'MISSING':>8}")
            missing.append(name)
            continue
        if old is None:
            print(f"{name:<42} {'-':>12} {entry['real_time_ns']:>12.0f} "
                  f"{'new':>8}")
            continue
        ratio = old["real_time_ns"] / entry["real_time_ns"]
        flag = ""
        if entry["real_time_ns"] > old["real_time_ns"] * REGRESSION_FACTOR:
            flag = "  !! regressed"
            flagged.append(name)
        print(f"{name:<42} {old['real_time_ns']:>12.0f} "
              f"{entry['real_time_ns']:>12.0f} {ratio:>7.2f}x{flag}")
    if missing:
        print(f"ADVISORY: {len(missing)} recorded benchmark(s) missing "
              "from this run: " + ", ".join(missing))
    if flagged:
        print(f"ADVISORY: {len(flagged)} benchmark(s) regressed "
              f"> {REGRESSION_FACTOR:.2f}x vs the last recorded run: "
              + ", ".join(flagged))
    elif not missing:
        print(f"no benchmark regressed > {REGRESSION_FACTOR:.2f}x vs the "
              "last recorded run")
    return flagged


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bin", default="build/release/bench/perf_microbench",
                    help="perf_microbench binary (Release build!)")
    ap.add_argument("--out", default="BENCH_phase1.json")
    ap.add_argument("--label", required=True,
                    help="what tree state this run measures")
    ap.add_argument("--filter", default=DEFAULT_FILTER)
    ap.add_argument("--min-time", default=None,
                    help="--benchmark_min_time seconds (e.g. 0.05 for CI)")
    ap.add_argument("--repetitions", type=int, default=3,
                    help="repetitions; medians are recorded (1 = single shot)")
    ap.add_argument("--append", action="store_true",
                    help="extend --out's recorded trajectory with this run")
    ap.add_argument("--replace", action="store_true",
                    help="discard --out's recorded runs and start over")
    ap.add_argument("--compare", action="store_true",
                    help="print a ratio table vs the last recorded run; "
                         "read-only unless combined with --append")
    args = ap.parse_args()

    # Resolve the write mode BEFORE burning minutes on measurement:
    # never silently truncate a committed trajectory, and fail the
    # flag conflict while the mistake is still free.
    doc = load_doc(args.out)
    if args.compare and not doc["runs"] and not (args.append or args.replace):
        sys.exit(f"{args.out} has no recorded runs to compare against")
    writing = args.append or args.replace or not doc["runs"]
    if not writing and not args.compare:
        sys.exit(f"{args.out} already records {len(doc['runs'])} run(s); "
                 "pass --append to extend it, --replace to start over, "
                 "or --compare for a read-only ratio table")

    raw = run_benchmarks(args.bin, args.filter, args.min_time,
                         args.repetitions)
    run = extract_run(raw, args.label, args.repetitions)

    if args.compare and doc["runs"]:
        print_comparison(doc["runs"][-1], run)
    if not writing:
        print("(read-only comparison; re-run with --append to record)")
        return
    if args.replace:
        doc = {"schema": SCHEMA, "runs": []}
    doc["runs"].append(run)
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=False)
        f.write("\n")
    print(f"recorded {len(run['benchmarks'])} benchmarks -> {args.out}")


if __name__ == "__main__":
    main()
