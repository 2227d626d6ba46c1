#!/usr/bin/env python3
"""Unit tests for check_bench_regression.py, focused on the failure-path
diagnostics: a perf gate that dies with an unactionable message costs a CI
round-trip per mystery, so the messages themselves are part of the
contract (bench name, both file paths, and the fields that ARE present)."""

import importlib.util
import json
import sys
import tempfile
import unittest
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "check_bench_regression.py"
spec = importlib.util.spec_from_file_location("check_bench_regression",
                                              SCRIPT)
checker = importlib.util.module_from_spec(spec)
spec.loader.exec_module(checker)


def payload(bench="core_build", schema=checker.EXPECTED_SCHEMA, results=None):
    return {
        "schema": schema,
        "bench": bench,
        "results": results if results is not None else
        [{"ticks": 100, "ns_per_timestamp": 50.0},
         {"ticks": 1000, "ns_per_timestamp": 40.0}],
    }


class CheckBenchRegressionTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, data):
        path = Path(self.tmp.name) / name
        path.write_text(json.dumps(data), encoding="utf-8")
        return path

    def run_main(self, *argv):
        """Runs main() with argv, returning (exit_code, message)."""
        old_argv = sys.argv
        sys.argv = [str(SCRIPT)] + [str(a) for a in argv]
        try:
            try:
                return checker.main(), ""
            except SystemExit as err:
                # argparse exits with int codes; the checker raises message
                # strings, which CPython turns into exit status 1.
                if isinstance(err.code, str):
                    return 1, err.code
                return err.code, ""
        finally:
            sys.argv = old_argv

    def test_identical_files_pass(self):
        current = self.write("current.json", payload())
        baseline = self.write("baseline.json", payload())
        code, _ = self.run_main(current, baseline)
        self.assertEqual(code, 0)

    def test_regression_fails(self):
        current = self.write("current.json", payload(results=[
            {"ticks": 100, "ns_per_timestamp": 90.0}]))
        baseline = self.write("baseline.json", payload(results=[
            {"ticks": 100, "ns_per_timestamp": 50.0}]))
        code, _ = self.run_main(current, baseline, "--threshold-pct", "25")
        self.assertEqual(code, 1)

    def test_improvement_passes(self):
        current = self.write("current.json", payload(results=[
            {"ticks": 100, "ns_per_timestamp": 10.0}]))
        baseline = self.write("baseline.json", payload(results=[
            {"ticks": 100, "ns_per_timestamp": 50.0}]))
        code, _ = self.run_main(current, baseline, "--threshold-pct", "25")
        self.assertEqual(code, 0)

    def test_missing_metric_names_bench_counterpart_and_fields(self):
        """The satellite fix: a baseline recorded before a metric existed
        must name the bench, the file being compared against, and the
        fields the entry actually has."""
        current = self.write("current.json", payload())
        baseline = self.write("baseline.json", payload(results=[
            {"ticks": 100, "millis": 5.0, "peak_nodes": 7}]))
        code, message = self.run_main(current, baseline)
        self.assertEqual(code, 1)
        self.assertIn("baseline.json", message)
        self.assertIn("bench 'core_build'", message)
        self.assertIn("lacks metric 'ns_per_timestamp'", message)
        # The counterpart path points at the other side of the comparison.
        self.assertIn("current.json", message)
        # Available fields are listed sorted, so the reader can see what
        # metric the baseline era did record.
        self.assertIn("available fields: millis, peak_nodes, ticks", message)

    def test_missing_key_names_available_fields(self):
        current = self.write("current.json", payload())
        baseline = self.write("baseline.json", payload(results=[
            {"duration": 100, "ns_per_timestamp": 5.0}]))
        code, message = self.run_main(current, baseline)
        self.assertEqual(code, 1)
        self.assertIn("lacks key field 'ticks'", message)
        self.assertIn("available fields: duration, ns_per_timestamp",
                      message)

    def test_schema_mismatch_rejected(self):
        current = self.write("current.json", payload(schema=1))
        baseline = self.write("baseline.json", payload())
        code, message = self.run_main(current, baseline)
        self.assertEqual(code, 1)
        self.assertIn("schema version", message)

    def test_bench_name_mismatch_rejected(self):
        current = self.write("current.json", payload(bench="core_build"))
        baseline = self.write("baseline.json", payload(bench="batch_clean"))
        code, message = self.run_main(current, baseline)
        self.assertEqual(code, 1)
        self.assertIn("bench name mismatch", message)

    def test_direction_higher_flags_collapsed_counter(self):
        """--direction higher inverts the gate: a counter that shrank past
        the threshold (pruning machinery silently dead) is the regression."""
        current = self.write("current.json", payload(results=[
            {"ticks": 100, "nodes_pruned": 0.0}]))
        baseline = self.write("baseline.json", payload(results=[
            {"ticks": 100, "nodes_pruned": 100.0}]))
        code, _ = self.run_main(current, baseline, "--metric", "nodes_pruned",
                                "--direction", "higher",
                                "--threshold-pct", "50")
        self.assertEqual(code, 1)

    def test_direction_higher_passes_growth(self):
        current = self.write("current.json", payload(results=[
            {"ticks": 100, "nodes_pruned": 400.0}]))
        baseline = self.write("baseline.json", payload(results=[
            {"ticks": 100, "nodes_pruned": 100.0}]))
        code, _ = self.run_main(current, baseline, "--metric", "nodes_pruned",
                                "--direction", "higher",
                                "--threshold-pct", "50")
        self.assertEqual(code, 0)

    def test_direction_lower_is_default_and_ignores_shrinkage(self):
        current = self.write("current.json", payload(results=[
            {"ticks": 100, "ns_per_timestamp": 5.0}]))
        baseline = self.write("baseline.json", payload(results=[
            {"ticks": 100, "ns_per_timestamp": 50.0}]))
        code, _ = self.run_main(current, baseline, "--threshold-pct", "25")
        self.assertEqual(code, 0)

    def gate_both(self, now, base, threshold="0"):
        current = self.write("current.json", payload(results=[
            {"ticks": 100, "graph_bytes": now}]))
        baseline = self.write("baseline.json", payload(results=[
            {"ticks": 100, "graph_bytes": base}]))
        code, _ = self.run_main(current, baseline, "--metric", "graph_bytes",
                                "--direction", "both",
                                "--threshold-pct", threshold)
        return code

    def test_direction_both_at_zero_passes_only_equal_values(self):
        """--direction both at threshold 0 gates an exact value: a size
        that shrank is flagged as surely as one that grew, so a layout
        change cannot land without a refreshed baseline."""
        self.assertEqual(self.gate_both(5446760.0, 5446760.0), 0)
        self.assertEqual(self.gate_both(5446761.0, 5446760.0), 1)
        self.assertEqual(self.gate_both(3830000.0, 5446760.0), 1)

    def test_direction_both_tolerates_moves_within_threshold(self):
        self.assertEqual(self.gate_both(101.0, 100.0, threshold="1"), 0)
        self.assertEqual(self.gate_both(99.0, 100.0, threshold="1"), 0)
        self.assertEqual(self.gate_both(102.0, 100.0, threshold="1"), 1)
        self.assertEqual(self.gate_both(98.0, 100.0, threshold="1"), 1)

    def test_direction_both_zero_baseline_admits_only_zero(self):
        self.assertEqual(self.gate_both(0.0, 0.0), 0)
        self.assertEqual(self.gate_both(1.0, 0.0, threshold="50"), 1)

    def test_point_set_mismatch_fails(self):
        current = self.write("current.json", payload(results=[
            {"ticks": 100, "ns_per_timestamp": 5.0}]))
        baseline = self.write("baseline.json", payload())
        code, _ = self.run_main(current, baseline)
        self.assertEqual(code, 1)


if __name__ == "__main__":
    unittest.main()
