#!/usr/bin/env python3
"""Build collom_bench from source and run one workload.

Usage (from the root of a checkout):

    python3 collom_bench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

The binary is configured and built under .bench_build/collom_bench (build
output goes to stderr), then run once; the whole run takes about --seconds
(BENCHMARK.json's run_seconds is the reference length).  Its stdout is
passed through: the last line is one JSON object with the keys correct,
attempted, failed and metrics -- the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1 (which also writes a Chrome trace under
.bench_build/traces).  The exit code is the binary's, or 2 when the library
sources are missing.
"""

import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "collom_bench"


def build():
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "collom_bench",
         "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr)
    return BUILD / "collom_bench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"run.py: library sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [str(binary), f"--workload={args.workload}",
           f"--seed={args.seed}", f"--seconds={args.seconds}"]
    if args.trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd.append(f"--trace={traces / f'{args.workload}_{args.seed}.json'}")
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
