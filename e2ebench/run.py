#!/usr/bin/env python3
"""End-to-end benchmark of rfidclean: readings CSV -> ct-graph -> .cts -> query.

Run from the root of a source checkout:

    python3 e2ebench/run.py --workload fleet_ingest --seed 1 --seconds 15 --trace 0

Builds e2e_bench from the checkout's sources into .bench_build/e2ebench,
generates the workload's inputs once per (workload, seed) into .bench_work/,
runs one measurement and prints its result as the last line of stdout: one
JSON object with the keys correct, attempted, failed and metrics. --trace 0
reports the end-to-end metrics, --trace 1 the per-layer split (and writes
the span trace beside the metrics file). --expect-digest pins the combined
graph digest the run must produce. The exit code is non-zero on any failed
check, on a build failure, or when the library sources are missing.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "e2ebench"
WORK_DIR = ROOT / ".bench_work"
WORKLOADS = ("fleet_ingest", "long_tag", "query_mix")
# fleet_ingest and query_mix clean the same kind of input.
INPUT_KIND = {"fleet_ingest": "fleet", "long_tag": "long", "query_mix": "fleet"}
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds e2e_bench; returns the binary's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"library sources not found under {ROOT / 'src'}")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "--target", "e2e_bench",
         "-j", str(min(4, os.cpu_count() or 1))],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return BUILD_DIR / "e2e_bench"


def inputs(binary, workload, seed, scale):
    """Generates the workload's inputs unless this (input, seed) has them."""
    suffix = "" if scale == "full" else f"-{scale}"
    directory = WORK_DIR / f"{INPUT_KIND[workload]}-s{seed}{suffix}"
    if (directory / "readings.csv").is_file():
        return directory
    staging = directory.with_name(directory.name + ".tmp")
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    subprocess.run(
        [str(binary), "generate", "--workload", workload, "--seed", str(seed),
         "--scale", scale, "--out", str(staging)],
        check=True, stdout=sys.stderr, stderr=sys.stderr,
        timeout=RUN_TIMEOUT_S)
    staging.rename(directory)
    return directory


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--scale", default="full", choices=("full", "tiny"),
                        help="tiny: small inputs for the benchmark's tests")
    parser.add_argument("--expect-digest",
                        help="hex combined graph digest the run must produce")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        binary = build()
        directory = inputs(binary, args.workload, args.seed, args.scale)
    except (RuntimeError, OSError, subprocess.SubprocessError) as error:
        log(f"e2ebench: {error}")
        return 2

    command = [str(binary), "run", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--scale", args.scale,
               "--dir", str(directory)]
    if args.expect_digest:
        command += ["--expect-digest", args.expect_digest]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"e2ebench: run exceeded {RUN_TIMEOUT_S} s")
        return 2
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
