#!/usr/bin/env python3
"""Build and run the X-Search end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload search|saturate|batch|churn \
        --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (the repository's library sources plus the
benchmark program) with CMake into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs one measurement. Build output goes to
stderr; the benchmark's own output goes to stdout, ending with one JSON line.
The exit code is the benchmark's: 0 when every output check passed.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("search", "saturate", "batch", "churn")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(root: Path) -> Path:
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = root / build_root
    build_dir = build_root / "perfbench"
    source_dir = root / "perfbench"
    if not (build_dir / "build.ninja").exists():
        subprocess.run(
            ["cmake", "-S", str(source_dir), "-B", str(build_dir), "-G", "Ninja",
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return build_dir / "xsbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--corrupt-every", type=int, default=0,
                        help="damage every Nth reply record (self-check only)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = Path(__file__).resolve().parent.parent
    try:
        binary = build(root)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.corrupt_every:
        command += ["--corrupt-every", str(args.corrupt_every)]
    sys.stdout.flush()
    try:
        # The child writes straight to this process's stdout and stderr;
        # run() waits for it and kills it on timeout.
        return subprocess.run(command, cwd=root, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
