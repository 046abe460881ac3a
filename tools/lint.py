#!/usr/bin/env python3
"""Repo-convention linter for the GDDR codebase.

Checks conventions clang-tidy cannot express:

  * include hygiene — every in-repo include uses quotes with a path rooted
    at src/ ("graph/digraph.hpp", not "digraph.hpp" or <graph/digraph.hpp>);
  * determinism — no naked rand()/srand()/time(NULL); randomness goes
    through util::Rng so runs stay reproducible and seed-splittable;
  * no std::cout/std::cerr/printf in library code (src/) — output belongs
    to tools/ and bench/; libraries report through return values,
    exceptions and obs:: metrics;
  * no `using namespace std;` anywhere;
  * headers start with `#pragma once`;
  * no std::this_thread::sleep_for/sleep_until in tests/ — sleeping to
    synchronise with another thread breeds flaky tests; inject time
    points (CircuitBreaker, DeadlineBudget, serve::Engine all take `now`
    as a parameter) or busy-wait on the condition itself (spin_until /
    spin_at_least helpers);
  * no raw std sync primitives (std::mutex, std::shared_mutex,
    std::condition_variable, std::lock_guard, std::unique_lock,
    std::shared_lock, std::scoped_lock) outside src/util/sync.{hpp,cpp} —
    every lock goes through util::Mutex / util::SharedMutex so it carries
    thread-safety capability annotations and a lock rank (DESIGN.md §13).

It ends by printing the line count of src/**/*.{hpp,cpp} per module and
in total (newlines, as `wc -l` counts them), so every CI lint log shows
the library's size and a change's net effect on it.

Exit status: 0 clean, 1 findings, 2 usage error.  Run from the repo root:

    python3 tools/lint.py
"""
from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

# Directories whose sources are linted; library-only rules apply to src/.
LINT_DIRS = ["src", "tests", "tools", "bench"]

# In-repo top-level include roots, derived from src/ layout.
def in_repo_roots() -> set[str]:
    return {p.name for p in SRC.iterdir() if p.is_dir()}


STRIP_RE = re.compile(
    r'//[^\n]*|/\*.*?\*/|"(?:[^"\\\n]|\\.)*"', re.DOTALL
)


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string literals, preserving line numbers."""

    def repl(m: re.Match[str]) -> str:
        return re.sub(r"[^\n]", " ", m.group(0))

    return STRIP_RE.sub(repl, text)


NAKED_RAND_RE = re.compile(r"(?<![\w:])(?:s?rand|rand_r)\s*\(")
NAKED_TIME_RE = re.compile(r"(?<![\w:])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)")
STDOUT_RE = re.compile(r"std\s*::\s*(cout|cerr)\b|(?<![\w:])f?printf\s*\(")
USING_STD_RE = re.compile(r"using\s+namespace\s+std\s*;")
TEST_SLEEP_RE = re.compile(r"sleep_(?:for|until)\s*\(")
RAW_SYNC_RE = re.compile(
    r"std\s*::\s*(mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"condition_variable(?:_any)?|lock_guard|unique_lock|shared_lock|"
    r"scoped_lock)\b"
)
# The one place allowed to touch the std primitives: the wrapper itself.
RAW_SYNC_EXEMPT = {
    Path("src/util/sync.hpp"),
    Path("src/util/sync.cpp"),
}
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+([<"])([^">]+)[">]', re.MULTILINE)


def lint_file(path: Path, roots: set[str]) -> list[str]:
    rel = path.relative_to(REPO)
    raw = path.read_text(encoding="utf-8")
    text = strip_comments_and_strings(raw)
    findings: list[str] = []

    def emit(pos: int, msg: str) -> None:
        line = text.count("\n", 0, pos) + 1
        findings.append(f"{rel}:{line}: {msg}")

    in_src = rel.parts[0] == "src"

    if path.suffix in (".hpp", ".h"):
        first = next(
            (l for l in raw.splitlines() if l.strip() and
             not l.lstrip().startswith("//")), "")
        if first.strip() != "#pragma once":
            findings.append(f"{rel}:1: header must start with #pragma once")

    for m in INCLUDE_RE.finditer(text):
        bracket, target = m.groups()
        top = target.split("/")[0]
        if top in roots:
            if bracket == "<":
                emit(m.start(),
                     f'in-repo include <{target}> must use quotes')
        elif bracket == '"' and "/" not in target:
            emit(m.start(),
                 f'include "{target}" must be rooted at src/ '
                 f'(e.g. "graph/{target}")')

    for m in NAKED_RAND_RE.finditer(text):
        emit(m.start(), "naked rand()/srand(): use util::Rng")
    for m in NAKED_TIME_RE.finditer(text):
        emit(m.start(), "time(NULL) seeding breaks reproducibility: "
                        "use util::Rng with an explicit seed")
    for m in USING_STD_RE.finditer(text):
        emit(m.start(), "`using namespace std;` is banned")

    if in_src:
        for m in STDOUT_RE.finditer(text):
            emit(m.start(), "stdout/stderr output in library code: "
                            "report via exceptions or obs:: metrics")

    if rel not in RAW_SYNC_EXEMPT:
        for m in RAW_SYNC_RE.finditer(text):
            emit(m.start(),
                 f"raw std::{m.group(1)}: use util::Mutex/SharedMutex/"
                 "CondVar and the MutexLock/SharedLock guards "
                 "(util/sync.hpp) so the lock carries capability "
                 "annotations and a rank")

    if rel.parts[0] == "tests":
        for m in TEST_SLEEP_RE.finditer(text):
            emit(m.start(), "sleep in a test: inject time points or "
                            "spin on the condition instead "
                            "(sleep-based schedules are flaky)")

    return findings


def src_line_counts() -> dict[str, int]:
    """Lines of src/**/*.{hpp,cpp} per module (first directory under src/)."""
    counts: dict[str, int] = {}
    for path in sorted(SRC.rglob("*")):
        if path.suffix not in (".hpp", ".cpp") or not path.is_file():
            continue
        module = path.relative_to(SRC).parts[0]
        lines = path.read_bytes().count(b"\n")
        counts[module] = counts.get(module, 0) + lines
    return counts


def print_src_line_counts() -> None:
    counts = src_line_counts()
    print("src/ line count (*.hpp, *.cpp):", file=sys.stderr)
    for module, lines in counts.items():
        print(f"  {module:<12}{lines:>7}", file=sys.stderr)
    print(f"  {'total':<12}{sum(counts.values()):>7}", file=sys.stderr)


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__, file=sys.stderr)
        return 2
    roots = in_repo_roots()
    files: list[Path] = []
    for d in LINT_DIRS:
        base = REPO / d
        if base.is_dir():
            files.extend(sorted(base.rglob("*.cpp")))
            files.extend(sorted(base.rglob("*.hpp")))
            files.extend(sorted(base.rglob("*.h")))
    findings: list[str] = []
    for f in files:
        findings.extend(lint_file(f, roots))
    for line in findings:
        print(line)
    print(f"lint.py: {len(files)} files checked, {len(findings)} finding(s)",
          file=sys.stderr)
    print_src_line_counts()
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
