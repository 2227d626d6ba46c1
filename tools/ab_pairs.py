#!/usr/bin/env python3
"""Paired A/B runs of the end-to-end benchmark between two checkouts.

    python3 tools/ab_pairs.py --base /work/a --change /work/b \\
        --workload long_tag --seed 1 --pairs 10 --out ab_long_tag.json

Runs N alternating pairs of

    python3 e2ebench/run.py --workload W --seed S --seconds 10 --trace 0

inside each checkout, one run at a time. The side that runs first
alternates from pair to pair (pair 1 runs base first, pair 2 change first,
and so on). Each checkout's benchmark is built once, before the first pair,
with its own e2ebench/run.py recipe, so no build falls inside a pair.

The runs stop at the first non-zero exit, at the first result with
"correct": false, and at the first pair whose two sides print different
`digest` lines: a comparison of different answers measures nothing.

For each end-to-end metric the report gives both sides' median and
quartiles, the median of the per-pair ratios change / base, and how many
pairs each side won, lower being better (as BENCHMARK.json declares for
every end-to-end metric). It is written as one JSON file (--out) and
printed as one table.

Use checkout paths of equal length. The benchmark's peak RSS follows the
length of the path it runs from (the inputs and the build tree live under
the checkout): the same sources read 332.1 or 336.2 MiB on long_tag from
paths one or three characters apart (CHANGES.md, the FOUND entry on
long_tag's peak_rss_mib), so unequal paths bias the comparison before
either side runs.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

# The benchmark's run length (BENCHMARK.json's run_seconds), the same on
# both sides of every pair.
RUN_SECONDS = 10


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_checkout(checkout):
    """Builds the checkout's e2e_bench with its own run.py; returns the
    exit code."""
    code = ("import sys; sys.path.insert(0, 'e2ebench'); import run; "
            "run.build()")
    return subprocess.run([sys.executable, "-c", code], cwd=checkout,
                          stdout=sys.stderr).returncode


def benchmark_command(workload, seed):
    """The one benchmark run a pair side makes, relative to a checkout."""
    return [sys.executable, "e2ebench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace",
            "0"]


def run_checkout(checkout, workload, seed):
    """One benchmark run inside `checkout`; returns (exit code, stdout)."""
    result = subprocess.run(benchmark_command(workload, seed), cwd=checkout,
                            stdout=subprocess.PIPE, text=True)
    return result.returncode, result.stdout


class PairError(Exception):
    """A run that stops the comparison."""


def parse_run(stdout):
    """Returns (digest, result) from one run's stdout: the last `digest`
    line and the JSON object on the last line."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise PairError("the run printed nothing")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as error:
        raise PairError(f"the last line is not JSON: {error}") from error
    digest = None
    for line in lines:
        if line.startswith("digest "):
            digest = line.split()[1]
    return digest, result


def run_pairs(sides, pairs, run_one, build_one=build_checkout):
    """Runs `pairs` alternating pairs. `sides` maps "base" and "change" to
    checkouts; run_one(checkout) returns (exit code, stdout). Returns one
    record per pair: its order, its digest and each side's metric values."""
    for name in ("base", "change"):
        log(f"building {name}: {sides[name]}")
        if build_one(sides[name]) != 0:
            raise PairError(f"building {name} ({sides[name]}) failed")
    records = []
    for index in range(pairs):
        order = ("base", "change") if index % 2 == 0 else ("change", "base")
        digests = {}
        values = {}
        for name in order:
            code, stdout = run_one(sides[name])
            where = f"pair {index + 1}, {name}"
            if code != 0:
                raise PairError(f"{where}: exit code {code}")
            digest, result = parse_run(stdout)
            if result.get("correct") is not True:
                raise PairError(f"{where}: the run reports correct: false")
            digests[name] = digest
            values[name] = {metric: entry["value"] for metric, entry
                            in result.get("metrics", {}).items()}
            log(f"{where}: " + ", ".join(
                f"{metric} {value:.6g}" for metric, value
                in values[name].items()))
        if digests["base"] != digests["change"]:
            raise PairError(
                f"pair {index + 1}: digests differ (base {digests['base']}, "
                f"change {digests['change']})")
        records.append({"pair": index + 1, "order": list(order),
                        "digest": digests["base"], "base": values["base"],
                        "change": values["change"]})
    return records


def quartiles(values):
    """(first quartile, median, third quartile), linearly interpolated."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(records):
    """Per-metric medians, quartiles, median ratio and wins (lower wins)."""
    names = [name for name in records[0]["base"]
             if all(name in r["base"] and name in r["change"]
                    for r in records)]
    summary = {}
    for name in names:
        base = [r["base"][name] for r in records]
        change = [r["change"][name] for r in records]
        ratios = [c / b for b, c in zip(base, change) if b != 0]
        change_wins = sum(1 for b, c in zip(base, change) if c < b)
        base_wins = sum(1 for b, c in zip(base, change) if b < c)
        b_q1, b_med, b_q3 = quartiles(base)
        c_q1, c_med, c_q3 = quartiles(change)
        summary[name] = {
            "base": {"median": b_med, "q1": b_q1, "q3": b_q3},
            "change": {"median": c_med, "q1": c_q1, "q3": c_q3},
            "median_ratio": statistics.median(ratios) if ratios else None,
            "change_wins": change_wins,
            "base_wins": base_wins,
            "ties": len(records) - change_wins - base_wins,
        }
    return summary


def format_table(summary, pairs):
    rows = [("metric", "base median [q1, q3]", "change median [q1, q3]",
             "ratio", f"change wins /{pairs}", "base wins")]
    for name, entry in summary.items():
        b, c = entry["base"], entry["change"]
        ratio = entry["median_ratio"]
        rows.append((
            name,
            f"{b['median']:.4g} [{b['q1']:.4g}, {b['q3']:.4g}]",
            f"{c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]",
            "-" if ratio is None else f"{ratio:.3f}",
            str(entry["change_wins"]), str(entry["base_wins"])))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(cell.ljust(width) for cell, width
                               in zip(row, widths)).rstrip()
                     for row in rows)


def main(argv=None, run_one=None, build_one=build_checkout):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="Use checkout paths of equal length: long_tag's peak RSS "
               "moves by about 4 MiB with the path length alone.")
    parser.add_argument("--base", required=True,
                        help="checkout measured as the reference")
    parser.add_argument("--change", required=True,
                        help="checkout measured against it")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--out", help="JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seed < 0:
        parser.error("--pairs must be >= 1 and --seed >= 0")
    if len(str(Path(args.base).resolve())) != len(
            str(Path(args.change).resolve())):
        log("warning: the checkout paths differ in length; peak RSS will "
            "be biased")
    if run_one is None:
        def run_one(checkout):
            return run_checkout(checkout, args.workload, args.seed)
    sides = {"base": args.base, "change": args.change}
    try:
        records = run_pairs(sides, args.pairs, run_one, build_one)
    except PairError as error:
        log(f"ab_pairs: stopped: {error}")
        return 1
    summary = summarize(records)
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": RUN_SECONDS, "pairs": args.pairs,
              "base": args.base, "change": args.change,
              "digest": records[0]["digest"], "metrics": summary,
              "runs": records}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n",
                                  encoding="utf-8")
    print(format_table(summary, args.pairs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
