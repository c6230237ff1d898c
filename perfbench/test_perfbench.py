#!/usr/bin/env python3
"""Tests of the repository benchmark. Run from the repository root:

    python3 perfbench/test_perfbench.py

They build perfbench if needed, check that every correctness gate rejects a
deliberately corrupted document or count, run every workload end to end in a
short mode (traced and untraced) against the metric lists of BENCHMARK.json,
and check that the benchmark refuses to run without the program's sources.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

RUN = [sys.executable, os.path.join("perfbench", "run.py")]
SHORT_SECONDS = "2"


def run_bench(*args, cwd=None):
    return subprocess.run(RUN + list(args), capture_output=True, text=True,
                          timeout=900, cwd=cwd)


def result_line(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open("BENCHMARK.json") as f:
            cls.spec = json.load(f)

    def test_gates_reject_corrupted_outputs(self):
        out = run_bench("--self-test")
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)
        self.assertNotIn("FAIL", out.stdout)
        self.assertGreaterEqual(out.stdout.count("rejects"), 10)

    def test_benchmark_json_is_regenerated_by_describe(self):
        out = run_bench("--describe")
        self.assertEqual(out.returncode, 0, out.stderr)
        self.assertEqual(json.loads(out.stdout), self.spec)

    def check_run(self, workload, trace):
        out = run_bench("--workload", workload, "--seed", "3",
                        "--seconds", SHORT_SECONDS, "--trace", trace)
        self.assertEqual(out.returncode, 0, out.stderr[-2000:])
        result = result_line(out.stdout)
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"], out.stderr[-2000:])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        expected = self.spec["per_layer" if trace == "1" else "end_to_end"]
        self.assertEqual(sorted(result["metrics"]), sorted(m["name"] for m in expected))
        for m in expected:
            metric = result["metrics"][m["name"]]
            self.assertEqual(metric["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(metric["value"]), m["name"])
        host = json.loads(out.stdout.strip().splitlines()[-3])["host"]
        for key in ("nproc", "cpu_model", "simd_mode", "build_type", "git_sha", "stream_gbps"):
            self.assertIn(key, host)

    def test_every_workload_end_to_end(self):
        for workload in (w["name"] for w in self.spec["workloads"]):
            for trace in ("0", "1"):
                with self.subTest(workload=workload, trace=trace):
                    self.check_run(workload, trace)

    def test_unknown_workload_is_refused(self):
        out = run_bench("--workload", "no_such_workload", "--seed", "1",
                        "--seconds", "1", "--trace", "0")
        self.assertNotEqual(out.returncode, 0)

    def test_fails_without_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy("BENCHMARK.json", tmp)
            shutil.copytree("perfbench", os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = run_bench("--workload", "table1_batch", "--seed", "1",
                            "--seconds", "1", "--trace", "0", cwd=tmp)
            self.assertNotEqual(out.returncode, 0)
            self.assertEqual(out.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
