#!/usr/bin/env python3
"""Compare two sets of collom_bench runs against the BENCHMARK.json bounds.

Usage:

    python3 collom_bench/e2e_compare.py <base_dir> <new_dir>

Each directory holds one file per run: the run's stdout (the last line is
the result object), named after its workload with any prefix or suffix,
e.g. `amg_spmv.seed3.json` or `E2E_amg_spmv.json`.  Runs whose metrics are
the per-layer set are traced runs.  The bounds are those of the
BENCHMARK.json next to this directory.

For every workload x end-to-end metric it prints each side's median and
quartiles, the change of the medians as a share of the base median (positive
= worse), and a verdict:

  ok          the change is not worse than the metric's bound;
  regressed   the change is worse than the bound;
  unresolved  a side's spread (interquartile range over median) is wider
              than the bound, unless every new run beats every base run.

A metric with the same values on both sides is marked "(identical)".  The
virtual times of every run (its `virtual` line) must be identical between
all runs of one seed, on both sides: any difference means the cost model or
a protocol changed, and is reported.  With traced runs present it also
prints the per-layer medians of both sides, and the tracing overhead on
host_ms_per_round.p10 per side.  Exits 1 when any metric regressed, any
virtual time changed, or any run reported correct=false.
"""

import argparse
import json
import pathlib
import statistics
import sys

HERE = pathlib.Path(__file__).resolve().parent


def load_runs(directory, workloads):
    """{workload: {"e2e": [metrics...], "traced": [metrics...],
    "virtual": {seed: [virtual times...]}}}, bad runs."""
    runs, bad = {}, []
    names = sorted(workloads, key=len, reverse=True)
    for path in sorted(pathlib.Path(directory).iterdir()):
        if not path.is_file():
            continue
        w = next((n for n in names if n in path.name), None)
        lines = path.read_text().strip().splitlines()
        if w is None or not lines:
            continue
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            continue
        if not isinstance(result, dict) or "metrics" not in result:
            continue
        if not result.get("correct") or result.get("failed", 0) != 0:
            bad.append(path.name)
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        kind = "traced" if "trace.span_coverage" in metrics else "e2e"
        entry = runs.setdefault(w, {"e2e": [], "traced": [], "virtual": {}})
        entry[kind].append(metrics)
        for line in lines:
            if line.startswith("virtual "):
                virtual = json.loads(line[len("virtual "):])
                entry["virtual"].setdefault(virtual.pop("seed"), []).append(
                    virtual)
    return runs, bad


def virtual_changes(base, new):
    """(seeds compared, [(seed, name, base value, new value)]): the virtual
    times of every run of a seed on either side must be identical."""
    compared, changes = 0, []
    for seed in sorted(base.keys() & new.keys()):
        runs = base[seed] + new[seed]
        compared += 1
        for name, value in runs[0].items():
            for other in runs[1:]:
                if other.get(name) != value:
                    changes.append((seed, name, value, other.get(name)))
                    break
    return compared, changes


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else 0.0
    return med, q1, q3, spread


def verdict(base, new, better, bound):
    mb, _, _, sb = summary(base)
    mn, _, _, sn = summary(new)
    worse = (mn - mb) / abs(mb) if mb else 0.0
    if better == "higher":
        worse = -worse
    beats = (min(new) > max(base)) if better == "higher" else \
        (max(new) < min(base))
    if max(sb, sn) > bound and not beats:
        return worse, "unresolved"
    return worse, "regressed" if worse > bound else "ok"


def fmt(v):
    return f"{v:.6g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args()

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    base, bad_base = load_runs(args.base, workloads)
    new, bad_new = load_runs(args.new, workloads)
    failed = bool(bad_base or bad_new)
    for name in bad_base + bad_new:
        print(f"incorrect run: {name}")

    print(f"{'workload':16s} {'metric':22s} {'runs':>5s} "
          f"{'base median [q1, q3]':>32s} {'new median [q1, q3]':>32s} "
          f"{'worse':>8s} {'bound':>5s}  verdict")
    regressed = False
    for w in workloads:
        b = base.get(w, {}).get("e2e", [])
        n = new.get(w, {}).get("e2e", [])
        if not b or not n:
            print(f"{w:16s} (untraced runs missing on a side)")
            continue
        for m in bench["end_to_end"]:
            bv = [r[m["name"]] for r in b if m["name"] in r]
            nv = [r[m["name"]] for r in n if m["name"] in r]
            if not bv or not nv:
                print(f"{w:16s} {m['name']:22s} missing")
                regressed = True
                continue
            worse, v = verdict(bv, nv, m["better"], m["bound"])
            regressed |= v == "regressed"
            if sorted(bv) == sorted(nv):
                v += " (identical)"
            sides = []
            for values in (bv, nv):
                med, q1, q3, _ = summary(values)
                sides.append(f"{fmt(med)} [{fmt(q1)}, {fmt(q3)}]")
            print(f"{w:16s} {m['name']:22s} {len(bv):>2d}/{len(nv):<2d} "
                  f"{sides[0]:>32s} {sides[1]:>32s} {worse:+8.2%} "
                  f"{m['bound']:5.0%}  {v}")

    # Virtual times are deterministic: any difference between runs of one
    # seed means the cost model or a protocol changed.
    changed = False
    for w in workloads:
        compared, changes = virtual_changes(
            base.get(w, {}).get("virtual", {}),
            new.get(w, {}).get("virtual", {}))
        if not compared:
            print(f"{w:16s} virtual times not compared (no seed on both "
                  f"sides)")
        elif not changes:
            print(f"{w:16s} virtual times identical on {compared} seed(s)")
        for seed, name, bv, nv in changes:
            print(f"{w:16s} virtual time changed: seed {seed} {name} "
                  f"{bv!r} -> {nv!r}")
            changed = True

    for w in workloads:
        bt = base.get(w, {}).get("traced", [])
        nt = new.get(w, {}).get("traced", [])
        if not bt and not nt:
            continue
        print(f"\nper-layer medians, {w} (traced runs: {len(bt)} base, "
              f"{len(nt)} new)")
        for side, traced, untraced in (("base", bt, base.get(w, {}).get("e2e", [])),
                                       ("new", nt, new.get(w, {}).get("e2e", []))):
            if traced and untraced:
                t = statistics.median(r["trace.host_ms_per_round_p10"] for r in traced)
                u = statistics.median(r["host_ms_per_round.p10"] for r in untraced)
                print(f"  tracing overhead ({side}): {t / u - 1:+.2%} on "
                      f"host_ms_per_round.p10 ({fmt(t)} traced vs {fmt(u)} ms)")
        for m in bench["per_layer"]:
            bv = [r[m["name"]] for r in bt if m["name"] in r]
            nv = [r[m["name"]] for r in nt if m["name"] in r]
            mb = fmt(statistics.median(bv)) if bv else "-"
            mn = fmt(statistics.median(nv)) if nv else "-"
            ratio = ""
            if bv and nv and statistics.median(bv):
                ratio = f"{statistics.median(nv) / statistics.median(bv):8.3f}x"
            print(f"  {m['name']:40s} {mb:>14s} {mn:>14s} {ratio} {m['unit']}")

    return 1 if regressed or failed or changed else 0


if __name__ == "__main__":
    sys.exit(main())
