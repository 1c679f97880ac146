#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: spread, spread_sharded_lossy, protocol, cluster; see
perfbench/README.md.  `--workload all` runs each of them in turn.

The first call configures and builds the library and the benchmark runner in
Release under $CARGO_TARGET_DIR (default .bench_build) in the repository;
later calls rebuild incrementally.  Build output goes to standard error, so
the last line of standard output is the runner's JSON result.  Exits non-zero,
without a result, when the sources are missing or the build fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("spread", "spread_sharded_lossy", "protocol", "cluster")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench_runner",
         "-j", jobs],
        check=True, stdout=sys.stderr)
    return build_dir / "perfbench_runner"


def git_revision(root):
    if not (root / ".git").exists():
        return "none (not a git checkout)"
    try:
        return subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              check=True, capture_output=True,
                              text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        fail(f"no repository sources under {root}")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    build_dir = build_dir / "perfbench"

    try:
        runner = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        fail(f"build failed: {error}")

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        command = [str(runner), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", args.trace, "--git-rev", git_revision(root)]
        with subprocess.Popen(command) as proc:
            try:
                code = proc.wait(timeout=RUN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                fail(f"runner exceeded {RUN_TIMEOUT_S} s and was stopped")
        if code != 0:
            fail(f"runner exited with code {code} on {workload}")


if __name__ == "__main__":
    main()
