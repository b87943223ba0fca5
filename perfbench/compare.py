#!/usr/bin/env python3
"""Summarise and compare recorded benchmark results.

Every run of perfbench/run.py records its result, with provenance, in
.perfbench/results/. This script reads such files (or directories of
them):

    # Run-to-run spread of each end-to-end metric: the distance between
    # the first and third quartile as a share of the median, against the
    # metric's bound in BENCHMARK.json.
    python3 perfbench/compare.py spread .perfbench/results

    # Parent against change, paired by workload and seed.
    python3 perfbench/compare.py compare BASE_DIR CHANGE_DIR

`compare` refuses to compare results whose provenance differs in
anything but the commit and source digest: core count,
RAYON_NUM_THREADS, the LP vector kernel, run length, the benchmark's
own code, or the set of seeds.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MUST_MATCH = ["nproc", "rayon_num_threads", "kernel", "seconds", "bench_digest"]


def load(paths):
    results = []
    for p in paths:
        files = [os.path.join(p, f) for f in sorted(os.listdir(p))] if os.path.isdir(p) else [p]
        for f in files:
            if f.endswith(".json"):
                with open(f) as fh:
                    results.append(json.load(fh))
    return [r for r in results if not r["provenance"]["trace"]]


def bounds():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["end_to_end"]}


def by_workload(results):
    out = {}
    for r in results:
        out.setdefault(r["provenance"]["workload"], []).append(r)
    return out


def values(runs, metric):
    return [r["result"]["metrics"][metric]["value"] for r in runs if metric in r["result"]["metrics"]]


def spread(vals):
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def cmd_spread(paths):
    spec = bounds()
    for workload, runs in sorted(by_workload(load(paths)).items()):
        seeds = sorted(r["provenance"]["seed"] for r in runs)
        correct = sum(r["result"]["correct"] for r in runs)
        print(f"{workload}: {len(runs)} runs (seeds {seeds}), {correct} correct")
        for name, m in spec.items():
            vals = values(runs, name)
            if len(vals) < 2:
                continue
            med, s = spread(vals)
            flag = "ok" if s <= m["bound"] / 3 else ("within bound" if s <= m["bound"] else "TOO WIDE")
            print(f"  {name:<22} median {med:>12.5g} {m['unit']:<6} spread {s:7.2%}  "
                  f"bound {m['bound']:.0%}  {flag}")


def cmd_compare(base_path, change_path):
    spec = bounds()
    base, change = by_workload(load([base_path])), by_workload(load([change_path]))
    every = [r for runs in list(base.values()) + list(change.values()) for r in runs]
    for key in MUST_MATCH:
        seen = {json.dumps(r["provenance"].get(key)) for r in every}
        if len(seen) > 1:
            sys.exit(f"refusing to compare: provenance `{key}` differs ({', '.join(sorted(seen))})")
    for workload in sorted(set(base) | set(change)):
        b, c = base.get(workload, []), change.get(workload, [])
        sb = sorted(r["provenance"]["seed"] for r in b)
        sc = sorted(r["provenance"]["seed"] for r in c)
        if sb != sc:
            sys.exit(f"refusing to compare {workload}: seeds differ ({sb} vs {sc})")
        print(f"{workload}: {len(b)} paired runs")
        for name, m in spec.items():
            vb, vc = values(b, name), values(c, name)
            if len(vb) < 2 or len(vc) < 2:
                continue
            mb, sb_ = spread(vb)
            mc, _ = spread(vc)
            change_frac = (mc - mb) / mb if mb else 0.0
            worse = change_frac if m["better"] == "lower" else -change_frac
            if worse > m["bound"]:
                verdict = "REGRESSED"
            elif sb_ > m["bound"]:
                verdict = "unresolved (parent spread wider than bound)"
            else:
                verdict = "within bound"
            print(f"  {name:<22} {mb:>12.5g} -> {mc:>12.5g} {m['unit']:<6} {change_frac:+7.2%}  {verdict}")


def main():
    if len(sys.argv) >= 3 and sys.argv[1] == "spread":
        cmd_spread(sys.argv[2:])
    elif len(sys.argv) == 4 and sys.argv[1] == "compare":
        cmd_compare(sys.argv[2], sys.argv[3])
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main()
