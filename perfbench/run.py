#!/usr/bin/env python3
"""Builds and runs the GDDR repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The first call configures and builds
perfbench/ (the GDDR libraries from src/ plus the benchmark program) in
Release mode under $CARGO_TARGET_DIR/perfbench (default .bench_build), and
later calls rebuild incrementally.  Build output goes to stderr; stdout
carries the report of gddr_perfbench, whose last line is the JSON result.  The exit
code is gddr_perfbench's: 0 when every output check passed.
"""
import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("abilene", "ba100-nsfnet")


def run_child(argv, **kwargs):
    """Runs argv to completion and returns its exit code.  If this script
    is interrupted or terminated, the child is stopped and waited for."""
    child = subprocess.Popen(argv, **kwargs)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.terminate()
            child.wait()


def run_quietly(argv):
    """Runs a build step with its output on stderr; True on success."""
    return run_child(argv, stdout=sys.stderr, stderr=sys.stderr) == 0


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in (0, 600]")

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
        "perfbench")
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        if not run_quietly(["cmake", "-S", here, "-B", build,
                            "-DCMAKE_BUILD_TYPE=Release"]):
            return 1
    if not run_quietly(["cmake", "--build", build, "-j",
                        str(os.cpu_count() or 1), "--target",
                        "gddr_perfbench"]):
        return 1

    sys.stdout.flush()
    return run_child([
        os.path.join(build, "gddr_perfbench"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace",
        args.trace, "--git-sha", git_sha(root)
    ])


def on_terminate(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, on_terminate)
    sys.exit(main())
