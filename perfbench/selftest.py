#!/usr/bin/env python3
"""Self-tests for the benchmark; not part of the package's test suite.

    python3 perfbench/selftest.py

A tiny run of each workload, untraced and traced, must print every metric
BENCHMARK.json names, with its unit, and fail no call. A copy of the benchmark
without the package beside it must exit nonzero without printing a result.
Takes about two minutes.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + list(args)
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


class TinyRuns(unittest.TestCase):
    def check_run(self, workload: str, trace: int) -> dict:
        proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr)
        self.assertEqual(result["failed"], 0, proc.stderr)
        self.assertGreaterEqual(result["attempted"], 2)
        named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in named})
        for m in named:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        self.assertIn(f"{workload} failed_frac = 0 ", proc.stdout)
        return result

    def test_every_workload_untraced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check_run(workload, 0)["metrics"]
                for m in SPEC["end_to_end"]:
                    self.assertGreater(metrics[m["name"]]["value"], 0.0, m["name"])

    def test_every_workload_traced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check_run(workload, 1)["metrics"]
                self.assertEqual(metrics["detectors.graph_spectrum_misses"]["value"], 0)
                self.assertGreater(metrics["graphs.gen_s"]["value"], 0.0)


class BareCopy(unittest.TestCase):
    def test_fails_without_the_package(self):
        bare = HERE / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(unittest.main())
