#!/usr/bin/env python3
"""Tests of the end-to-end benchmark.

    python3 e2ebench/test_e2ebench.py

Drives e2ebench/run.py on tiny inputs (--scale tiny), which builds
e2e_bench into .bench_build/ on first use. Checks that every workload
finishes green in both trace modes and reports exactly the metrics
BENCHMARK.json names, each with its unit; that a wrong expected digest
fails the command; that the span trace is well formed; and that the command
fails without printing a result when the library sources are absent.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
SEED = "3"


def run_bench(*args, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=script.parent.parent,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)


def tiny(workload, trace, *extra):
    return run_bench("--workload", workload, "--seed", SEED, "--seconds", "1",
                     "--trace", str(trace), "--scale", "tiny", *extra)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class TinyWorkloadTest(unittest.TestCase):
    def check_report(self, workload, trace):
        result = tiny(workload, trace)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        report = last_json(result.stdout)
        self.assertEqual(set(report),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(report["correct"], True)
        self.assertGreaterEqual(report["attempted"], 1)
        self.assertEqual(report["failed"], 0)
        section = "per_layer" if trace else "end_to_end"
        expected = {metric["name"]: metric["unit"] for metric in SPEC[section]}
        reported = {name: metric["unit"]
                    for name, metric in report["metrics"].items()}
        self.assertEqual(reported, expected)
        for name, metric in report["metrics"].items():
            self.assertTrue(math.isfinite(metric["value"]), name)
            if not trace:
                self.assertGreater(metric["value"], 0, name)

    def test_every_workload_untraced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_report(workload, 0)

    def test_every_workload_traced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_report(workload, 1)

    def test_trace_file_is_well_formed(self):
        self.assertEqual(tiny("long_tag", 1).returncode, 0)
        path = ROOT / ".bench_work" / f"long-s{SEED}-tiny" / "trace_long_tag.json"
        events = json.loads(path.read_text())["traceEvents"]
        self.assertTrue(events)
        layers = {event["cat"] for event in events}
        self.assertLessEqual({"io", "model", "analysis", "core", "store",
                              "query", "bench"}, layers)
        by_id = {event["args"]["id"]: event for event in events}
        for event in events:
            args = event["args"]
            self.assertLessEqual(args["self_us"], event["dur"] + 1e-3)
            self.assertGreaterEqual(args["self_us"], -1e-3)
            if args["parent"] >= 0:
                parent = by_id[args["parent"]]
                self.assertLess(args["parent"], args["id"])
                self.assertGreaterEqual(event["ts"], parent["ts"])
                self.assertLessEqual(event["ts"] + event["dur"],
                                     parent["ts"] + parent["dur"] + 1e-3)


class FailureTest(unittest.TestCase):
    def test_wrong_expected_digest_fails(self):
        result = tiny("fleet_ingest", 0, "--expect-digest", "123456789abcdef")
        self.assertNotEqual(result.returncode, 0)
        self.assertIn("CHECK FAILED", result.stdout)
        self.assertIs(last_json(result.stdout)["correct"], False)

    def test_fails_without_library_sources(self):
        (ROOT / ".bench_work").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, Path(bare) / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            result = run_bench("--workload", "long_tag", "--seed", SEED,
                               "--seconds", "1", "--trace", "0",
                               script=Path(bare) / HERE.name / "run.py")
        self.assertNotEqual(result.returncode, 0)
        self.assertNotIn('"metrics"', result.stdout)


if __name__ == "__main__":
    unittest.main()
