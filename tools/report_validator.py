#!/usr/bin/env python3
"""Validator for the JSON reports the CLI and benches write (schemas in
docs/FORMATS.md). Each subcommand loads one report, accumulates every
structural problem without stopping at the first, and exits 0 when the
report passes or 1 with each problem on stderr.

    report_validator.py trace TRACE.json [--require SPAN]...
        [--require-counter NAME]... [--min-events N]

Chrome trace-event JSON from `clean --trace` and `core_build --trace`
(obs/trace_export.cc): a "traceEvents" array where every event carries the
fields its phase requires, timestamps are non-negative numbers, and every
thread's begin/end events nest properly (every "E" matches the innermost
open "B" with the same name), i.e. loadable by Perfetto/chrome://tracing in
practice. A trace whose ring buffers overflowed (otherData.dropped_events
> 0) may legitimately start mid-span, so balance problems are downgraded to
warnings in that case — drop-oldest loses prefixes, never scrambles order.
--require fails unless a span (B/E pair) with that name appears;
--require-counter does the same for a counter track.

    report_validator.py explain REPORT.json [--min-tags N]
        [--require-status TAG=STATUS]...

Explain report JSON from `clean --explain` and `rfidclean explain --json`
(obs/explain_export.cc), format version 3. Beyond schema shape it enforces
the attribution arithmetic the report promises: per tag, the phase-kill
rollup and the constraint rollup count the same decisions; constraint
masses sum to the attributed mass; an "ok" tag's attributed plus surviving
mass covers the whole a-priori space, and no tick of it lost every
candidate (a ct-graph has a node in every layer); and the session totals
are the per-tag sums. A report that passes is safe to aggregate downstream
without re-deriving anything.
"""

import argparse
import json
import sys


class ReportValidator:
    """Problem accumulator with the common exit protocol."""

    def __init__(self, tool, path):
        self.tool = tool
        self.path = path
        self.problems = []

    def problem(self, message):
        self.problems.append(message)

    def load(self):
        """Parses the report file; returns the payload or None after
        recording the problem."""
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except OSError as err:
            self.problem(f"{self.path}: cannot read: {err}")
        except json.JSONDecodeError as err:
            self.problem(f"{self.path}: not valid JSON: {err}")
        return None

    def expect_keys(self, obj, where, keys):
        """Records a problem per missing key; returns True when all
        present."""
        if not isinstance(obj, dict):
            self.problem(f"{where}: not an object")
            return False
        missing = [key for key in keys if key not in obj]
        if missing:
            self.problem(f"{where}: lacks {', '.join(missing)}")
        return not missing

    def expect_number(self, value, where, minimum=None):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            self.problem(f"{where}: {value!r} is not a number")
            return False
        if minimum is not None and value < minimum:
            self.problem(f"{where}: {value!r} is below {minimum}")
            return False
        return True

    def finish(self, success_line):
        """Prints accumulated problems (exit 1) or the success line
        (exit 0)."""
        if self.problems:
            for problem in self.problems:
                print(f"{self.tool}: {problem}", file=sys.stderr)
            return 1
        print(success_line)
        return 0


# --- trace ---------------------------------------------------------------

REQUIRED_BY_PHASE = {
    "B": ("name", "cat", "ts", "pid", "tid"),
    "E": ("name", "cat", "ts", "pid", "tid"),
    "i": ("name", "cat", "ts", "pid", "tid", "s"),
    "C": ("name", "ts", "pid", "tid", "args"),
    "M": ("name", "pid", "tid", "args"),
}


def validate_trace(args):
    v = ReportValidator("report_validator trace", args.report)
    payload = v.load()
    if payload is None:
        return v.finish("")

    if not isinstance(payload, dict) or "traceEvents" not in payload:
        v.problem(f"{args.report}: missing top-level 'traceEvents' array")
        return v.finish("")
    events = payload["traceEvents"]
    if not isinstance(events, list):
        v.problem(f"{args.report}: 'traceEvents' is not an array")
        return v.finish("")

    dropped = 0
    other = payload.get("otherData", {})
    if isinstance(other, dict):
        dropped = int(other.get("dropped_events", 0))

    problems = []
    span_names = set()
    counter_names = set()
    stacks = {}  # tid -> [open span names]; file order is per-thread
                 # chronological in our exporter
    payload_events = 0
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in REQUIRED_BY_PHASE:
            problems.append(f"{where}: unknown or missing ph {phase!r}")
            continue
        missing = [f for f in REQUIRED_BY_PHASE[phase] if f not in event]
        if missing:
            problems.append(
                f"{where}: ph {phase!r} lacks {', '.join(missing)}")
            continue
        if phase != "M":
            ts = event["ts"]
            if not isinstance(ts, (int, float)) or ts < 0:
                problems.append(f"{where}: bad ts {ts!r}")
            payload_events += 1
        name = event["name"]
        tid = event.get("tid")
        if phase == "B":
            stacks.setdefault(tid, []).append((name, where))
            span_names.add(name)
        elif phase == "E":
            span_names.add(name)
            stack = stacks.setdefault(tid, [])
            if not stack:
                problems.append(
                    f"{where}: 'E' for {name!r} on tid {tid} with no open "
                    f"span")
            elif stack[-1][0] != name:
                problems.append(
                    f"{where}: 'E' for {name!r} on tid {tid} but innermost "
                    f"open span is {stack[-1][0]!r} (from {stack[-1][1]})")
                stack.pop()
            else:
                stack.pop()
        elif phase == "C":
            counter_names.add(name)
            arguments = event["args"]
            if not isinstance(arguments, dict) or not any(
                    isinstance(v, (int, float)) for v in arguments.values()):
                problems.append(
                    f"{where}: counter {name!r} has no numeric args")
        elif phase == "i":
            if event.get("s") not in ("t", "p", "g"):
                problems.append(
                    f"{where}: instant {name!r} has bad scope "
                    f"{event.get('s')!r}")

    for tid, stack in sorted(stacks.items()):
        for name, where in stack:
            problems.append(f"{where}: 'B' for {name!r} on tid {tid} never "
                            f"closed")

    balance_problems = [p for p in problems
                        if "open span" in p or "never closed" in p]
    if dropped > 0 and balance_problems:
        # Ring overflow legitimately truncates span prefixes.
        for problem in balance_problems:
            print(f"warning (dropped_events={dropped}): {problem}",
                  file=sys.stderr)
        problems = [p for p in problems if p not in balance_problems]

    for required in args.require:
        if required not in span_names:
            problems.append(
                f"required span {required!r} absent (have: "
                f"{', '.join(sorted(span_names)) or '<none>'})")
    for required in args.require_counter:
        if required not in counter_names:
            problems.append(
                f"required counter track {required!r} absent (have: "
                f"{', '.join(sorted(counter_names)) or '<none>'})")
    if payload_events < args.min_events:
        problems.append(
            f"only {payload_events} non-metadata events, expected at least "
            f"{args.min_events}")

    for problem in problems:
        v.problem(problem)
    return v.finish(
        f"{args.report}: {payload_events} events on "
        f"{len(set(e.get('tid') for e in events if isinstance(e, dict)))} "
        f"tracks, {len(span_names)} span names, "
        f"{len(counter_names)} counter tracks, {dropped} dropped: OK")


# --- explain -------------------------------------------------------------

EXPLAIN_FORMAT_VERSION = 3
PHASES = ("preflight", "forward", "backward", "compaction")
CONSTRAINTS = ("unreachable", "travel_time", "latency", "infeasible",
               "propagated", "stranded", "renormalized")
MASS_TOLERANCE = 1e-6
PPB = 1_000_000_000


def check_rollups(v, tag, where):
    """Per-tag arithmetic: rollups agree with each other and with the
    declared kill count."""
    by_phase = tag.get("by_phase", {})
    by_constraint = tag.get("by_constraint", {})
    if not v.expect_keys(by_phase, f"{where}.by_phase", PHASES):
        return
    if not v.expect_keys(by_constraint, f"{where}.by_constraint",
                         CONSTRAINTS):
        return
    phase_kills = sum(by_phase[p] for p in PHASES)
    constraint_kills = sum(by_constraint[c].get("kills", 0)
                           for c in CONSTRAINTS)
    if phase_kills != constraint_kills:
        v.problem(f"{where}: phase kills {phase_kills} != constraint kills "
                  f"{constraint_kills}")
    if tag.get("kills") != phase_kills:
        v.problem(f"{where}: declared kills {tag.get('kills')} != phase "
                  f"rollup {phase_kills}")

    constraint_mass = sum(by_constraint[c].get("mass", 0.0)
                          for c in CONSTRAINTS)
    attributed = tag.get("attributed_mass", 0.0)
    if abs(constraint_mass - attributed) > MASS_TOLERANCE:
        v.problem(f"{where}: constraint masses sum to {constraint_mass}, "
                  f"attributed_mass is {attributed}")
    if tag.get("status") == "ok":
        total = attributed + tag.get("surviving_mass", 0.0)
        if abs(total - 1.0) > MASS_TOLERANCE:
            v.problem(f"{where}: attributed + surviving mass is {total}, "
                      f"expected 1 (conservation)")

    for leg in ("mass_lost_backward_ppb", "mass_lost_compaction_ppb"):
        value = tag.get(leg)
        if not isinstance(value, int) or not 0 <= value <= PPB:
            v.problem(f"{where}.{leg}: {value!r} is not a ppb integer")


def check_records(v, tag, where):
    """Timeline, killed-candidate and top-edge record shapes."""
    cleaned = tag.get("status") == "ok"
    for index, tick in enumerate(tag.get("timeline", [])):
        at = f"{where}.timeline[{index}]"
        if v.expect_keys(tick, at, ("time", "candidates", "killed",
                                    "mass_lost", "alpha_delta")):
            if tick["killed"] > tick["candidates"]:
                v.problem(f"{at}: killed {tick['killed']} exceeds "
                          f"candidates {tick['candidates']}")
            elif cleaned and tick["killed"] == tick["candidates"]:
                # killed is counted before the kill list is truncated.
                v.problem(f"{at}: all {tick['candidates']} candidates "
                          f"killed in an \"ok\" tag, whose ct-graph has a "
                          f"node at every tick")
    for index, killed in enumerate(tag.get("killed_candidates", [])):
        at = f"{where}.killed_candidates[{index}]"
        if v.expect_keys(killed, at, ("time", "location", "phase",
                                      "constraint", "mass")):
            if killed["phase"] not in PHASES:
                v.problem(f"{at}: unknown phase {killed['phase']!r}")
            if killed["constraint"] not in CONSTRAINTS:
                v.problem(f"{at}: unknown constraint "
                          f"{killed['constraint']!r}")
            v.expect_number(killed["mass"], f"{at}.mass", minimum=0)
    edges = tag.get("top_killed_edges", [])
    for index, edge in enumerate(edges):
        at = f"{where}.top_killed_edges[{index}]"
        if v.expect_keys(edge, at, ("time", "from", "to", "phase",
                                    "constraint", "mass")):
            if index > 0 and edge["mass"] > edges[index - 1]["mass"]:
                v.problem(f"{at}: masses not descending "
                          f"({edge['mass']} after "
                          f"{edges[index - 1]['mass']})")


def check_totals(v, payload):
    """Session totals must be the per-tag sums — no independent counting."""
    totals = payload["totals"]
    tags = payload["tags"]
    if not v.expect_keys(totals, "totals",
                         ("kills", "surviving_mass", "attributed_mass",
                          "mass_lost_backward_ppb",
                          "mass_lost_compaction_ppb", "by_constraint",
                          "by_phase")):
        return
    for field in ("kills", "mass_lost_backward_ppb",
                  "mass_lost_compaction_ppb"):
        summed = sum(tag.get(field, 0) for tag in tags)
        if totals[field] != summed:
            v.problem(f"totals.{field}: {totals[field]} != per-tag sum "
                      f"{summed}")
    for constraint in CONSTRAINTS:
        summed = sum(tag.get("by_constraint", {})
                     .get(constraint, {}).get("kills", 0) for tag in tags)
        declared = totals["by_constraint"].get(constraint, {}).get("kills")
        if declared != summed:
            v.problem(f"totals.by_constraint.{constraint}: {declared} != "
                      f"per-tag sum {summed}")


def validate_explain(args):
    v = ReportValidator("report_validator explain", args.report)
    payload = v.load()
    if payload is None:
        return v.finish("")

    if not v.expect_keys(payload, args.report,
                         ("explain_format_version", "status",
                          "explain_enabled", "num_tags", "totals",
                          "timeline", "tags")):
        return v.finish("")
    if payload["explain_format_version"] != EXPLAIN_FORMAT_VERSION:
        v.problem(f"unsupported explain_format_version "
                  f"{payload['explain_format_version']!r}")
    tags = payload["tags"]
    if not isinstance(tags, list):
        v.problem("'tags' is not an array")
        return v.finish("")
    if payload["num_tags"] != len(tags):
        v.problem(f"num_tags {payload['num_tags']} != len(tags) "
                  f"{len(tags)}")
    if len(tags) < args.min_tags:
        v.problem(f"only {len(tags)} tags, expected at least "
                  f"{args.min_tags}")

    by_tag = {}
    for index, tag in enumerate(tags):
        where = f"tags[{index}]"
        if not v.expect_keys(tag, where,
                             ("tag", "status", "kills", "surviving_mass",
                              "attributed_mass", "mass_lost_backward_ppb",
                              "mass_lost_compaction_ppb", "by_constraint",
                              "by_phase", "timeline", "killed_candidates",
                              "killed_candidates_truncated",
                              "top_killed_edges")):
            continue
        by_tag[str(tag["tag"])] = tag
        check_rollups(v, tag, where)
        check_records(v, tag, where)
    check_totals(v, payload)

    for requirement in args.require_status:
        tag_id, _, status = requirement.partition("=")
        tag = by_tag.get(tag_id)
        if tag is None:
            v.problem(f"required tag {tag_id} absent")
        elif tag["status"] != status:
            v.problem(f"tag {tag_id}: status {tag['status']!r}, required "
                      f"{status!r}")

    kills = sum(tag.get("kills", 0) for tag in tags
                if isinstance(tag, dict))
    return v.finish(f"{args.report}: {len(tags)} tags, {kills} kills: OK")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)

    trace = commands.add_parser("trace", help="Chrome trace-event JSON")
    trace.add_argument("report", help="Chrome trace-event JSON file")
    trace.add_argument("--require", action="append", default=[],
                       metavar="SPAN",
                       help="fail unless a span with this name appears")
    trace.add_argument("--require-counter", action="append", default=[],
                       metavar="NAME",
                       help="fail unless this counter track appears")
    trace.add_argument("--min-events", type=int, default=1,
                       help="minimum number of trace events")
    trace.set_defaults(validate=validate_trace)

    explain = commands.add_parser("explain", help="explain report JSON")
    explain.add_argument("report", help="explain report JSON file")
    explain.add_argument("--min-tags", type=int, default=1,
                         help="minimum number of per-tag summaries")
    explain.add_argument("--require-status", action="append", default=[],
                         metavar="TAG=STATUS",
                         help="fail unless tag TAG has this status")
    explain.set_defaults(validate=validate_explain)

    args = parser.parse_args()
    return args.validate(args)


if __name__ == "__main__":
    sys.exit(main())
