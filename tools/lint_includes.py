#!/usr/bin/env python3
"""Project-specific lint checks that clang-tidy cannot express.

Checks, over library and tool sources (src/, tools/, tests/, bench/,
examples/):

 1. `assert(` is banned in library code (src/ and tools/): contract checks
    must use RFID_CHECK and friends (common/check.h), which stay armed in
    release builds -- the builds that produce published numbers.
    `static_assert` is fine anywhere.

 2. Include guards must match the canonical name derived from the file
    path: RFIDCLEAN_<PATH>_H_ with the leading `src/` dropped, uppercased,
    and every `/` or `.` turned into `_`  (e.g. src/core/ct_graph.h ->
    RFIDCLEAN_CORE_CT_GRAPH_H_, tests/test_util.h ->
    RFIDCLEAN_TESTS_TEST_UTIL_H_). The trailing #endif must carry the
    guard name as a comment.

 3. `std::thread` may appear only in src/common/parallel.{h,cc} (over src/
    and tools/): every other parallel loop runs on its ThreadPool, so the
    program keeps one scheduler.

Exit status 0 when clean, 1 with one "file:line: message" per finding
otherwise. Run from anywhere: paths are resolved against the repo root
(the parent of this script's directory), or pass --root.
"""

import argparse
import re
import sys
from pathlib import Path

# Directories scanned for headers (guard check) and sources (assert check).
SCANNED_DIRS = ("src", "tools", "tests", "bench", "examples")
# assert() and std::thread are banned only in library/tool code; tests and
# benches may use them if they want to.
LIBRARY_DIRS = ("src", "tools")
# The one scheduler: the only sources that may start a std::thread.
THREAD_ALLOWED = ("src/common/parallel.h", "src/common/parallel.cc")

ASSERT_RE = re.compile(r"(?<![\w_])assert\s*\(")
THREAD_RE = re.compile(r"\bstd::thread\b")
LINE_COMMENT_RE = re.compile(r"//.*$")


def canonical_guard(relpath: Path) -> str:
    parts = relpath.parts
    if parts[0] == "src":
        parts = parts[1:]
    mangled = "_".join(parts).replace(".", "_").replace("-", "_").upper()
    return f"RFIDCLEAN_{mangled}_"


def strip_noncode(line: str) -> str:
    """Removes line comments and string literal contents (approximate but
    sufficient: the codebase has no multi-line raw strings with asserts)."""
    line = LINE_COMMENT_RE.sub("", line)
    return re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)


def check_asserts(path: Path, relpath: Path, lines) -> list:
    findings = []
    for lineno, line in enumerate(lines, start=1):
        code = strip_noncode(line)
        if "static_assert" in code:
            code = code.replace("static_assert", "")
        if ASSERT_RE.search(code):
            findings.append(
                f"{relpath}:{lineno}: assert() is banned in library code; "
                "use RFID_CHECK (common/check.h), which stays armed in "
                "release builds")
    return findings


def check_threads(relpath: Path, lines) -> list:
    if relpath.as_posix() in THREAD_ALLOWED:
        return []
    return [
        f"{relpath}:{lineno}: std::thread is allowed only in "
        "src/common/parallel.{h,cc}; run parallel work on its ThreadPool"
        for lineno, line in enumerate(lines, start=1)
        if THREAD_RE.search(strip_noncode(line))]


def check_include_guard(path: Path, relpath: Path, lines) -> list:
    guard = canonical_guard(relpath)
    ifndef_re = re.compile(r"^#ifndef\s+(\S+)\s*$")
    ifndef_line = None
    ifndef_name = None
    for lineno, line in enumerate(lines, start=1):
        match = ifndef_re.match(line)
        if match:
            ifndef_line, ifndef_name = lineno, match.group(1)
            break
        if line.strip() and not line.lstrip().startswith(("//", "/*", "*")):
            break  # First code line reached without a guard.
    if ifndef_name is None:
        return [f"{relpath}:1: missing include guard (expected {guard})"]

    findings = []
    if ifndef_name != guard:
        findings.append(
            f"{relpath}:{ifndef_line}: include guard {ifndef_name} does not "
            f"match the canonical name {guard}")
        guard = ifndef_name  # Check internal consistency against the actual.
    if ifndef_line < len(lines):
        define = lines[ifndef_line].strip()
        if define != f"#define {guard}":
            findings.append(
                f"{relpath}:{ifndef_line + 1}: expected '#define {guard}' "
                "directly after the #ifndef")
    for line in reversed(lines):
        if not line.strip():
            continue
        if line.strip() != f"#endif  // {guard}":
            findings.append(
                f"{relpath}:{len(lines)}: header must end with "
                f"'#endif  // {guard}'")
        break
    return findings


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root", type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="repository root (default: parent of this script's directory)")
    args = parser.parse_args()

    findings = []
    scanned = 0
    for top in SCANNED_DIRS:
        top_dir = args.root / top
        if not top_dir.is_dir():
            continue
        for path in sorted(top_dir.rglob("*")):
            if path.suffix not in (".h", ".cc", ".cpp", ".hpp"):
                continue
            relpath = path.relative_to(args.root)
            lines = path.read_text(encoding="utf-8").splitlines()
            scanned += 1
            if top in LIBRARY_DIRS:
                findings += check_asserts(path, relpath, lines)
                findings += check_threads(relpath, lines)
            if path.suffix in (".h", ".hpp"):
                findings += check_include_guard(path, relpath, lines)

    for finding in findings:
        print(finding)
    print(f"lint_includes: {scanned} files scanned, "
          f"{len(findings)} finding(s)", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
