#!/usr/bin/env python3
"""Perf-regression gate over the shared bench JSON schema (bench_util.h).

Compares a freshly produced BENCH_*.json against a checked-in baseline with
the same schema and fails when the chosen metric regressed by more than the
threshold at any measured point. Points are matched by a key field ("ticks"
by default), so a baseline recorded on one machine still gates relative
drift on another as long as both runs cover the same points.

    check_bench_regression.py CURRENT BASELINE \
        [--metric ns_per_timestamp] [--key ticks] [--threshold-pct 25]
        [--direction lower|higher|both] [--update]

--direction states which way the metric is supposed to move: "lower"
(default; a regression is the metric GROWING past the threshold, the right
sense for times) or "higher" (a regression is the metric SHRINKING past the
threshold — for counters like nodes_pruned, where a collapse to zero means
the machinery silently stopped working) or "both" (a regression is any move
past the threshold either way — for seeded-deterministic sizes such as
graph_bytes and blob_bytes, where any change at threshold 0 is a layout or
format change that must come with a refreshed baseline).

Exit status 0 when every point is within the threshold (improvements always
pass), 1 on a regression, a point-set mismatch, or a malformed file. Every
structural problem (unreadable JSON, missing "schema"/"bench", schema
version mismatch, a result entry lacking the key or metric) fails loudly
with the offending file and field named — a stale or truncated baseline
must never read as "perf gate passed". --update rewrites BASELINE with
CURRENT's bytes instead of comparing (for refreshing the checked-in file
after an accepted perf change); the current file is still validated first
so a broken file cannot become the new baseline.

The digest fields are deliberately NOT compared here: bit-identity of the
graphs is the differential suite's job; this gate only watches speed.
"""

import argparse
import json
import shutil
import sys
from pathlib import Path

# Must match BenchJson::kSchemaVersion in bench/bench_util.h.
EXPECTED_SCHEMA = 2


def load_payload(path):
    """Parses one bench JSON file, failing loudly on structural problems."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as err:
        raise SystemExit(f"{path}: cannot read: {err}")
    except json.JSONDecodeError as err:
        raise SystemExit(f"{path}: not valid JSON: {err}")
    if not isinstance(payload, dict):
        raise SystemExit(f"{path}: top-level JSON value is not an object")
    if "schema" not in payload:
        raise SystemExit(
            f"{path}: missing 'schema' version field (file predates schema "
            f"v{EXPECTED_SCHEMA}; regenerate it with the current bench)")
    if payload["schema"] != EXPECTED_SCHEMA:
        raise SystemExit(
            f"{path}: schema version {payload['schema']!r}, expected "
            f"{EXPECTED_SCHEMA}; refusing to compare files from different "
            f"schema eras")
    if "bench" not in payload:
        raise SystemExit(f"{path}: missing 'bench' name field")
    return payload


def load_results(path, payload, key, metric, counterpart=None):
    """Returns {key_value: metric_value} for one parsed bench payload.

    `counterpart` is the path of the file on the other side of the
    comparison; naming it (plus the bench and the fields the entry does
    have) turns "result entry lacks metric" from a puzzle into a
    diagnosis — typically a baseline recorded before the metric existed.
    """
    bench = payload.get("bench", "?")
    results = payload.get("results", [])
    points = {}
    for entry in results:
        available = ", ".join(sorted(entry)) or "<none>"
        counterpart_hint = (
            f" (compared against {counterpart})" if counterpart else "")
        if key not in entry:
            raise SystemExit(
                f"{path}: bench '{bench}' result entry lacks key field "
                f"'{key}'{counterpart_hint}; available fields: {available}")
        if metric not in entry:
            raise SystemExit(
                f"{path}: bench '{bench}' result entry lacks metric "
                f"'{metric}'{counterpart_hint}; available fields: "
                f"{available}")
        try:
            points[entry[key]] = float(entry[metric])
        except (TypeError, ValueError):
            raise SystemExit(
                f"{path}: metric '{metric}' is not numeric: "
                f"{entry[metric]!r}")
    if not points:
        raise SystemExit(f"{path}: no results")
    return points


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", type=Path,
                        help="freshly produced bench JSON")
    parser.add_argument("baseline", type=Path,
                        help="checked-in baseline bench JSON")
    parser.add_argument("--metric", default="ns_per_timestamp",
                        help="lower-is-better metric to gate on")
    parser.add_argument("--key", default="ticks",
                        help="field matching result points across files")
    parser.add_argument("--threshold-pct", type=float, default=25.0,
                        help="maximum tolerated regression, in percent")
    parser.add_argument("--direction", choices=("lower", "higher", "both"),
                        default="lower",
                        help="which way the metric should move: 'lower' "
                             "gates growth (times), 'higher' gates shrinkage "
                             "(counters), 'both' gates any change "
                             "(deterministic sizes)")
    parser.add_argument("--update", action="store_true",
                        help="overwrite the baseline with the current file")
    args = parser.parse_args()

    current_payload = load_payload(args.current)

    if args.update:
        shutil.copyfile(args.current, args.baseline)
        print(f"baseline {args.baseline} updated from {args.current}")
        return 0

    baseline_payload = load_payload(args.baseline)
    if current_payload["bench"] != baseline_payload["bench"]:
        raise SystemExit(
            f"bench name mismatch: {args.current} is "
            f"'{current_payload['bench']}' but {args.baseline} is "
            f"'{baseline_payload['bench']}'")

    current = load_results(args.current, current_payload, args.key,
                           args.metric, counterpart=args.baseline)
    baseline = load_results(args.baseline, baseline_payload, args.key,
                            args.metric, counterpart=args.current)

    if set(current) != set(baseline):
        print(f"point sets differ: current {sorted(current)} vs "
              f"baseline {sorted(baseline)}", file=sys.stderr)
        return 1

    failures = 0
    for point in sorted(baseline):
        base = baseline[point]
        now = current[point]
        change_pct = 100.0 * (now - base) / base if base > 0 else 0.0
        verdict = "ok"
        if args.direction == "lower":
            regressed = change_pct > args.threshold_pct
        elif args.direction == "higher":
            regressed = change_pct < -args.threshold_pct
        else:
            # Relative to |base|, so a zero baseline admits only zero.
            regressed = abs(now - base) > args.threshold_pct / 100.0 * abs(base)
        if regressed:
            verdict = f"REGRESSION (> {args.threshold_pct:g}%)"
            failures += 1
        print(f"{args.key}={point}: {args.metric} {base:.1f} -> {now:.1f} "
              f"({change_pct:+.1f}%) {verdict}")
    if failures:
        print(f"{failures} point(s) regressed beyond "
              f"{args.threshold_pct:g}%", file=sys.stderr)
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
