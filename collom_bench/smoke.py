#!/usr/bin/env python3
"""Quick self-check of collom_bench: every workload at toy scale.

Usage (from the root of a checkout):  python3 collom_bench/smoke.py

Builds the binary like run.py, then runs every workload with
COLLOM_BENCH_QUICK=1 (64 ranks, 4 host rounds) at engine widths 1 and 4,
untraced and traced.  It checks that every run exits 0 with correct=true
and failed=0; that the untraced runs print every end-to-end metric of
BENCHMARK.json and the traced runs every per-layer metric, each with its
unit; that the simulated metrics and counts are identical at both widths;
and that each trace parses with at least one span per layer.  Exits 1 on
the first failed check.  Takes well under a minute.
"""

import json
import os
import pathlib
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True
import run as bench_run  # noqa: E402  (this directory's run.py)

HERE = pathlib.Path(__file__).resolve().parent
LAYERS = {"sparse", "amg", "patterns", "simmpi", "mpix", "bench"}
# Metrics that depend on host time or on allocator / arena interleaving,
# which the engine width may change; everything else must be identical.
WIDTH_DEPENDENT_UNITS = {"s", "ms", "ns", "MB"}


def fail(msg):
    print(f"smoke: FAIL: {msg}")
    sys.exit(1)


def run(binary, workload, threads, trace=None):
    cmd = [str(binary), f"--workload={workload}", "--seed=3", "--seconds=1",
           f"--sim-threads={threads}"]
    if trace:
        cmd.append(f"--trace={trace}")
    env = dict(os.environ, COLLOM_BENCH_QUICK="1")
    p = subprocess.run(cmd, capture_output=True, text=True, env=env,
                       timeout=120)
    if p.returncode != 0:
        fail(f"{' '.join(cmd)} exited {p.returncode}: {p.stderr.strip()}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{workload} width {threads}: {result}")
    return result["metrics"]


def expect_metrics(got, wanted, what):
    for m in wanted:
        if m["name"] not in got:
            fail(f"{what}: missing {m['name']}")
        if got[m["name"]]["unit"] != m["unit"]:
            fail(f"{what}: {m['name']} unit {got[m['name']]['unit']} "
                 f"!= {m['unit']}")


def deterministic(metrics):
    return {k: v["value"] for k, v in metrics.items()
            if v["unit"] not in WIDTH_DEPENDENT_UNITS
            and not k.startswith(("util.", "trace."))}


def main():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    binary = bench_run.build()
    with tempfile.TemporaryDirectory(dir=bench_run.BUILD) as tmp:
        for w in (x["name"] for x in bench["workloads"]):
            by_width = {}
            for threads in (1, 4):
                e2e = run(binary, w, threads)
                expect_metrics(e2e, bench["end_to_end"], f"{w} untraced")
                trace = pathlib.Path(tmp) / f"{w}_{threads}.json"
                layer = run(binary, w, threads, trace)
                expect_metrics(layer, bench["per_layer"], f"{w} traced")
                events = json.loads(trace.read_text())["traceEvents"]
                seen = {e["cat"] for e in events}
                need = LAYERS - ({"patterns"} if w == "amg_spmv"
                                 else {"sparse", "amg"})
                if not need <= seen:
                    fail(f"{w}: trace lacks spans of {sorted(need - seen)}")
                by_width[threads] = {**deterministic(e2e),
                                     **deterministic(layer)}
            if by_width[1] != by_width[4]:
                diff = {k: (by_width[1][k], by_width[4].get(k))
                        for k in by_width[1]
                        if by_width[1][k] != by_width[4].get(k)}
                fail(f"{w}: widths 1 and 4 differ: {diff}")
            print(f"smoke: {w} ok ({len(by_width[1])} metrics identical at "
                  f"widths 1 and 4)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
