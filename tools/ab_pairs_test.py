#!/usr/bin/env python3
"""Unit tests for ab_pairs.py with a stub runner: the alternation, the stop
conditions and the statistics a claim quotes."""

import importlib.util
import io
import json
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "ab_pairs.py"
spec = importlib.util.spec_from_file_location("ab_pairs", SCRIPT)
ab_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_pairs)


def stdout_of(rss, pipeline=1.0, digest="3631d9a91b8b3274", correct=True):
    metrics = {"pipeline_s": {"value": pipeline, "unit": "s"},
               "peak_rss_mib": {"value": rss, "unit": "MiB"}}
    result = {"correct": correct, "attempted": 10, "failed": 0,
              "metrics": metrics}
    return f"pipeline reps (ms): 1 2\ndigest {digest}\n{json.dumps(result)}\n"


class StubRunner:
    """Plays back per-checkout outputs in order and records every call."""

    def __init__(self, outputs):
        self.outputs = {side: list(runs) for side, runs in outputs.items()}
        self.calls = []

    def build(self, checkout):
        self.calls.append(("build", checkout))
        return 0

    def run(self, checkout):
        self.calls.append(("run", checkout))
        return self.outputs[checkout].pop(0)


def quiet(fn, *args, **kwargs):
    with redirect_stderr(io.StringIO()):
        return fn(*args, **kwargs)


class AbPairsTest(unittest.TestCase):
    def test_builds_each_side_once_then_alternates_who_runs_first(self):
        stub = StubRunner({"A": [(0, stdout_of(250))] * 4,
                           "B": [(0, stdout_of(190))] * 4})
        records = quiet(ab_pairs.run_pairs, {"base": "A", "change": "B"}, 4,
                        stub.run, stub.build)
        self.assertEqual(stub.calls, [
            ("build", "A"), ("build", "B"),
            ("run", "A"), ("run", "B"),
            ("run", "B"), ("run", "A"),
            ("run", "A"), ("run", "B"),
            ("run", "B"), ("run", "A")])
        self.assertEqual([r["order"] for r in records],
                         [["base", "change"], ["change", "base"]] * 2)

    def test_statistics(self):
        base = [250.0, 252.0, 254.0, 256.0, 260.0]
        change = [190.0, 186.0, 188.0, 192.0, 300.0]
        records = [{"base": {"peak_rss_mib": b}, "change": {"peak_rss_mib": c}}
                   for b, c in zip(base, change)]
        entry = ab_pairs.summarize(records)["peak_rss_mib"]
        self.assertEqual(entry["base"],
                         {"median": 254.0, "q1": 252.0, "q3": 256.0})
        self.assertEqual(entry["change"],
                         {"median": 190.0, "q1": 188.0, "q3": 192.0})
        ratios = sorted(c / b for b, c in zip(base, change))
        self.assertAlmostEqual(entry["median_ratio"], ratios[2])
        self.assertEqual((entry["change_wins"], entry["base_wins"],
                          entry["ties"]), (4, 1, 0))

    def test_equal_values_are_ties(self):
        records = [{"base": {"x": 1.0}, "change": {"x": 2.0}},
                   {"base": {"x": 3.0}, "change": {"x": 3.0}}]
        entry = ab_pairs.summarize(records)["x"]
        self.assertEqual((entry["change_wins"], entry["base_wins"],
                          entry["ties"]), (0, 1, 1))

    def test_stops_on_a_failed_run(self):
        stub = StubRunner({"A": [(0, stdout_of(250))], "B": [(3, "")]})
        with self.assertRaisesRegex(ab_pairs.PairError,
                                    "pair 1, change: exit code 3"):
            quiet(ab_pairs.run_pairs, {"base": "A", "change": "B"}, 2,
                  stub.run, stub.build)

    def test_stops_on_an_incorrect_run(self):
        stub = StubRunner({"A": [(0, stdout_of(250, correct=False))],
                           "B": [(0, stdout_of(190))]})
        with self.assertRaisesRegex(ab_pairs.PairError, "correct: false"):
            quiet(ab_pairs.run_pairs, {"base": "A", "change": "B"}, 1,
                  stub.run, stub.build)

    def test_stops_when_the_digests_differ(self):
        stub = StubRunner({"A": [(0, stdout_of(250, digest="aa"))],
                           "B": [(0, stdout_of(190, digest="bb"))]})
        with self.assertRaisesRegex(ab_pairs.PairError, "digests differ"):
            quiet(ab_pairs.run_pairs, {"base": "A", "change": "B"}, 3,
                  stub.run, stub.build)
        self.assertEqual(len([c for c in stub.calls if c[0] == "run"]), 2)

    def test_main_writes_the_json_and_the_table(self):
        with tempfile.TemporaryDirectory() as tmp:
            base = Path(tmp) / "aa"
            change = Path(tmp) / "bb"
            base.mkdir()
            change.mkdir()
            stub = StubRunner({
                str(base): [(0, stdout_of(250.0 + i)) for i in range(3)],
                str(change): [(0, stdout_of(190.0 + i)) for i in range(3)]})
            out = Path(tmp) / "ab.json"
            printed = io.StringIO()
            with redirect_stdout(printed):
                code = quiet(ab_pairs.main,
                             ["--base", str(base), "--change", str(change),
                              "--workload", "long_tag", "--seed", "1",
                              "--pairs", "3", "--out", str(out)],
                             run_one=stub.run, build_one=stub.build)
            self.assertEqual(code, 0)
            report = json.loads(out.read_text())
            self.assertEqual(report["digest"], "3631d9a91b8b3274")
            self.assertEqual(len(report["runs"]), 3)
            rss = report["metrics"]["peak_rss_mib"]
            self.assertEqual(rss["base"]["median"], 251.0)
            self.assertEqual(rss["change"]["median"], 191.0)
            self.assertEqual(rss["change_wins"], 3)
            table = printed.getvalue()
            self.assertIn("peak_rss_mib", table)
            self.assertIn("251 [250.5, 251.5]", table)

    def test_every_run_is_the_benchmarks_ten_second_untraced_run(self):
        self.assertEqual(ab_pairs.benchmark_command("long_tag", 17)[1:], [
            "e2ebench/run.py", "--workload", "long_tag", "--seed", "17",
            "--seconds", "10", "--trace", "0"])

    def test_the_run_length_is_not_an_option(self):
        with self.assertRaises(SystemExit):
            quiet(ab_pairs.main,
                  ["--base", "A", "--change", "B", "--workload", "long_tag",
                   "--seed", "1", "--pairs", "1", "--seconds", "3"],
                  run_one=lambda checkout: (0, ""),
                  build_one=lambda checkout: 0)

    def test_main_exits_1_when_a_run_fails(self):
        stub = StubRunner({"A": [(1, "")], "B": []})
        code = quiet(ab_pairs.main,
                     ["--base", "A", "--change", "B", "--workload",
                      "long_tag", "--seed", "1", "--pairs", "1"],
                     run_one=stub.run, build_one=stub.build)
        self.assertEqual(code, 1)


if __name__ == "__main__":
    unittest.main()
