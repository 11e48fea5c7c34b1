#!/usr/bin/env python3
"""The benchmark's own tests: smoke-size runs of every workload.

    python3 perfbench/test_perfbench.py      (from the repository root)

Each workload runs at --scale smoke for a second, untraced and traced.
The tests assert that every metric of BENCHMARK.json appears with its
unit and a finite value, that the trace file is Chrome trace-event JSON,
that a tampered result fails the output check, and that the benchmark
refuses to run without the library's sources.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

WORKLOADS = ["paper_batch", "serve_mixed"]


def run(*args, cwd="."):
    cmd = [sys.executable, "perfbench/run.py", "--scale", "smoke",
           "--seconds", "1", *args]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


class PerfbenchSmoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open("BENCHMARK.json") as f:
            cls.spec = json.load(f)

    def check_metrics(self, result, section):
        metrics = result["metrics"]
        expected = {m["name"]: m["unit"] for m in self.spec[section]}
        self.assertEqual(set(metrics), set(expected))
        for name, unit in expected.items():
            self.assertEqual(metrics[name]["unit"], unit, name)
            self.assertTrue(math.isfinite(metrics[name]["value"]), name)

    def test_untraced_runs_print_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                rc, lines = run("--workload", workload, "--trace", "0")
                self.assertEqual(rc, 0, lines)
                result = json.loads(lines[-1])
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.check_metrics(result, "end_to_end")
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_traced_runs_print_every_per_layer_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                rc, lines = run("--workload", workload, "--trace", "1")
                self.assertEqual(rc, 0, lines)
                result = json.loads(lines[-1])
                self.assertTrue(result["correct"])
                self.check_metrics(result, "per_layer")
                trace_path = next(l.split(" ", 1)[1] for l in lines
                                  if l.startswith("trace "))
                with open(trace_path) as f:
                    events = json.load(f)["traceEvents"]
                self.assertTrue(events)
                for ev in events:
                    self.assertEqual(ev["ph"], "X")
                    for key in ("name", "ts", "dur", "pid", "tid", "args"):
                        self.assertIn(key, ev)

    def test_tampered_result_fails_the_check(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                rc, lines = run("--workload", workload, "--tamper")
                self.assertNotEqual(rc, 0)
                result = json.loads(lines[-1])
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_refuses_to_run_without_the_library(self):
        bare = os.path.join(".bench_build", f"bare-{os.getpid()}")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy("BENCHMARK.json", bare)
            shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
            rc, lines = run("--workload", "paper_batch", cwd=bare)
            self.assertNotEqual(rc, 0)
            self.assertFalse(any(l.startswith("{") for l in lines))
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
