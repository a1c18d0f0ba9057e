#!/usr/bin/env python3
"""Write the golden series into bench/results/.

Usage: write_golden_series.py <build_dir>

Every BENCH_*.json of <build_dir> (the quick series left by the
run_benches_quick target, the full ones by run_benches) is reduced to what
compare_bench_series.py compares — benchmark names, labels and counters,
through its `series_of` — and written to bench/results/ under the same
name.  The bench-smoke CI job compares its fresh quick and full series
with these files, so a change that means to move a series regenerates
them in the same diff.
"""

import json
import sys
from pathlib import Path

from compare_bench_series import series_of

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "bench" / "results"


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    files = sorted(Path(argv[1]).glob("BENCH_*.json"))
    if not files:
        print(f"error: no BENCH_*.json under {argv[1]}", file=sys.stderr)
        return 1
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for path in files:
        rows = [{"name": name, **fields} for name, fields in series_of(path)]
        text = json.dumps({"benchmarks": rows}, indent=1) + "\n"
        (GOLDEN_DIR / path.name).write_text(text)
        print(f"wrote    {GOLDEN_DIR / path.name} ({len(rows)} benchmarks)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
