#!/usr/bin/env python3
"""Compare two directories of google-benchmark JSON outputs by *series*.

Usage: compare_bench_series.py <dir_a> <dir_b> [glob]

For every file matching `glob` (default BENCH_QUICK_*.json) in <dir_a>,
the file of the same name must exist in <dir_b> and carry the identical
measured series: same benchmark names in the same order, and exactly
equal values for every user counter (sim_seconds, procs, level, ...).

Host-dependent fields — real_time, cpu_time, the run context, iteration
counts — are ignored: they measure the machine, not the simulation.  The
simulator's determinism contract (docs/ARCHITECTURE.md) promises the
*counters* are bit-identical across engine widths and hierarchy
construction widths, and CI uses this script to hold benches to it.

Exits 0 when every series matches, 1 with a per-mismatch report else.
"""

import json
import sys
from pathlib import Path

IGNORED_FIELDS = {
    "real_time",
    "cpu_time",
    "iterations",
    "time_unit",
    "run_name",
    "run_type",
    "repetitions",
    "repetition_index",
    "threads",
    "family_index",
    "per_family_instance_index",
}


def series_of(path):
    """[(benchmark name, {measured field: value})] of one JSON file."""
    with open(path) as f:
        data = json.load(f)
    out = []
    for bench in data.get("benchmarks", []):
        fields = {
            k: v
            for k, v in bench.items()
            if k != "name" and k not in IGNORED_FIELDS
        }
        out.append((bench["name"], fields))
    return out


def main(argv):
    if len(argv) not in (3, 4):
        print(__doc__, file=sys.stderr)
        return 2
    dir_a, dir_b = Path(argv[1]), Path(argv[2])
    pattern = argv[3] if len(argv) == 4 else "BENCH_QUICK_*.json"
    files = sorted(dir_a.glob(pattern))
    if not files:
        print(f"error: no {pattern} files under {dir_a}", file=sys.stderr)
        return 1
    failures = 0
    for file_a in files:
        file_b = dir_b / file_a.name
        if not file_b.exists():
            print(f"MISSING  {file_b}")
            failures += 1
            continue
        a, b = series_of(file_a), series_of(file_b)
        names_a = [n for n, _ in a]
        names_b = [n for n, _ in b]
        if names_a != names_b:
            print(f"DIFFER   {file_a.name}: benchmark set/order mismatch")
            print(f"  only in a: {sorted(set(names_a) - set(names_b))}")
            print(f"  only in b: {sorted(set(names_b) - set(names_a))}")
            failures += 1
            continue
        mismatches = []
        for (name, fa), (_, fb) in zip(a, b):
            if fa != fb:
                keys = sorted(
                    k
                    for k in set(fa) | set(fb)
                    if fa.get(k) != fb.get(k)
                )
                mismatches.append((name, keys, fa, fb))
        if mismatches:
            print(f"DIFFER   {file_a.name}: {len(mismatches)} benchmark(s)")
            for name, keys, fa, fb in mismatches[:8]:
                for k in keys:
                    print(f"  {name}.{k}: {fa.get(k)!r} != {fb.get(k)!r}")
            failures += 1
        else:
            print(f"match    {file_a.name} ({len(a)} benchmarks)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
