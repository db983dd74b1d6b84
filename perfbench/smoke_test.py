#!/usr/bin/env python3
"""Smoke test of the receipt-pipeline benchmark at a tiny shape.

Run from the repository root:

    python3 perfbench/smoke_test.py

Builds the benchmark, then checks on every workload that each metric
`BENCHMARK.json` names is emitted, finite and in its unit (end-to-end
metrics also nonzero), that a deliberately altered verdict trips the
reference check, and that `run.py` fails without printing a result in a
directory holding only the benchmark's own files.
"""

import json
import math
import os
import shutil
import subprocess
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=dict(os.environ, CARGO_TARGET_DIR=target), check=True, timeout=900)
    return os.path.join(target, "release", "vpm-perfbench")


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)
        cls.binary = build()

    def run_bench(self, workload, trace, *extra):
        proc = subprocess.run(
            [self.binary, "--workload", workload, "--seed", "3", "--seconds", "1",
             "--trace", str(trace), "--shape", "tiny", *extra],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        lines = proc.stdout.strip().splitlines()
        self.assertTrue(lines, f"{workload}: no output; stderr: {proc.stderr}")
        return proc, json.loads(lines[-1])

    def test_every_named_metric_is_emitted_finite_and_in_its_unit(self):
        for w in self.bench["workloads"]:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], kind=kind):
                    proc, result = self.run_bench(w["name"], trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    self.assertEqual(set(result), RESULT_KEYS)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    names = {m["name"]: m["unit"] for m in self.bench[kind]}
                    self.assertEqual(set(result["metrics"]), set(names))
                    for name, unit in names.items():
                        got = result["metrics"][name]
                        self.assertEqual(got["unit"], unit, name)
                        self.assertTrue(math.isfinite(got["value"]), name)
                        if kind == "end_to_end":
                            self.assertGreater(got["value"], 0, name)

    def test_an_altered_verdict_trips_the_reference_check(self):
        for w in self.bench["workloads"]:
            with self.subTest(workload=w["name"]):
                proc, result = self.run_bench(w["name"], 0, "--tamper")
                self.assertNotEqual(proc.returncode, 0)
                self.assertFalse(result["correct"])

    def test_run_fails_without_the_repository(self):
        stripped = os.path.join(OUT, "stripped")
        shutil.rmtree(stripped, ignore_errors=True)
        os.makedirs(stripped)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), stripped)
        shutil.copytree(HERE, os.path.join(stripped, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            ["python3", "perfbench/run.py", "--workload", "fleet_mem", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=stripped, capture_output=True, text=True, timeout=180,
            env=dict(os.environ, CARGO_TARGET_DIR=".bench_build"))
        shutil.rmtree(stripped, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
