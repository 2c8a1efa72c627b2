#!/usr/bin/env python3
"""The benchmark's own test, at tiny sizes.

    python3 perfbench/test_perfbench.py

Runs every workload of BENCHMARK.json, and traffic-sparse, through
perfbench/run.py with and without tracing and checks that each result line carries exactly the
declared metrics with their units and passes its checks. Then feeds in one
corrupted route (traffic) and one corrupted reply (query-serve) and checks
that each is counted as failed and makes the run exit non-zero, and checks
that a directory holding only BENCHMARK.json and perfbench/ fails without
printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace=0, corrupt="none", cwd=ROOT):
    """Runs one tiny workload; returns (exit code, stdout lines)."""
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny",
         "--corrupt", corrupt],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return done.returncode, done.stdout.strip().splitlines()


def report(lines, name):
    for line in lines:
        parts = line.split()
        if parts[:2] == ["report", name]:
            return float(parts[2])
    raise AssertionError("no report line for " + name)


class PerfbenchTest(unittest.TestCase):
    def check_result(self, lines, section):
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(printed, declared)
        for metric in result["metrics"].values():
            self.assertIsInstance(metric["value"], (int, float))
        return result

    def test_every_workload_prints_every_metric(self):
        # traffic-sparse runs too, though BENCHMARK.json does not declare it.
        names = [w["name"] for w in SPEC["workloads"]] + ["traffic-sparse"]
        for workload in names:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, lines = run(workload, trace)
                    self.assertEqual(code, 0, "\n".join(lines))
                    result = self.check_result(lines, section)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(report(lines, "failed_share"), 0.0)
                    self.assertTrue(any(l.startswith("provenance {")
                                        for l in lines))
                    if trace == 0:
                        for metric in result["metrics"].values():
                            self.assertGreater(metric["value"], 0)

    def test_corrupted_route_fails_its_messages(self):
        code, lines = run("traffic-dense", corrupt="route")
        self.assertNotEqual(code, 0)
        result = self.check_result(lines, "end_to_end")
        self.assertFalse(result["correct"])
        # Every message sharing the damaged label's route fails.
        self.assertGreaterEqual(result["failed"], 1)
        self.assertLess(result["failed"], result["attempted"])
        self.assertGreater(report(lines, "failed_share"), 0.0)

    def test_corrupted_reply_is_one_failure(self):
        code, lines = run("query-serve", corrupt="reply")
        self.assertNotEqual(code, 0)
        result = self.check_result(lines, "end_to_end")
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertAlmostEqual(report(lines, "failed_share"),
                               1.0 / result["attempted"])

    def test_bare_directory_fails_without_a_result(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            code, lines = run("analysis", cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(code, 0)
        self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main()
