#!/usr/bin/env python3
"""Before/after table for two sets of fleetbench results.

    python3 perfbench/compare.py BEFORE AFTER

BEFORE and AFTER are each a result file written by run.py (under
.bench_build/results/) or a directory of them. Results are grouped by
workload; where a side holds several runs of one workload, each metric
is the median over them. For every workload the table lists every
end-to-end metric, then the per-layer self times (ms per scan period)
from traced runs, then any work count that differs, with the change in
percent; a worse direction is marked with '!'.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def directions():
    """metric name -> 'higher' | 'lower', from BENCHMARK.json."""
    path = os.path.join(HERE, "..", "BENCHMARK.json")
    try:
        with open(path) as f:
            bench = json.load(f)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m["better"]
            for m in bench["end_to_end"] + bench["per_layer"]}


def load(path):
    """workload -> list of result dicts."""
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path))
              if f.endswith(".json")] if os.path.isdir(path) else [path])
    runs = {}
    for name in files:
        with open(name) as f:
            result = json.load(f)
        runs.setdefault(result["workload"], []).append(result)
    return runs


def medians(runs, section):
    """metric -> (median value, unit) over the runs that report it."""
    values = {}
    for r in runs:
        for name, m in r.get(section, {}).items():
            values.setdefault(name, ([], m["unit"]))[0].append(m["value"])
    return {k: (statistics.median(v), u) for k, (v, u) in values.items()}


def count_medians(runs):
    values = {}
    for r in runs:
        for name, v in r.get("counts", {}).items():
            values.setdefault(name, []).append(v)
    return {k: statistics.median(v) for k, v in values.items()}


def row(name, unit, before, after, better):
    if before is None or after is None:
        change, mark = "n/a", ""
    elif before == 0:
        change, mark = ("0" if after == 0 else "new"), ""
    else:
        pct = 100.0 * (after - before) / abs(before)
        worse = (pct > 0) if better == "lower" else (pct < 0)
        change = f"{pct:+.1f}%"
        mark = "!" if better and worse and abs(pct) >= 0.05 else ""
    fmt = lambda v: "-" if v is None else f"{v:.6g}"
    print(f"  {name:28s} {unit:16s} {fmt(before):>14s} {fmt(after):>14s}"
          f" {change:>9s} {mark}")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    before, after = load(sys.argv[1]), load(sys.argv[2])
    better = directions()
    for workload in sorted(set(before) | set(after)):
        b_runs, a_runs = before.get(workload, []), after.get(workload, [])
        print(f"\n{workload}: {len(b_runs)} run(s) before, "
              f"{len(a_runs)} after")
        print(f"  {'metric':28s} {'unit':16s} {'before':>14s} "
              f"{'after':>14s} {'change':>9s}")
        b_e2e, a_e2e = medians(b_runs, "end_to_end"), medians(a_runs,
                                                              "end_to_end")
        for name in list(dict.fromkeys(list(b_e2e) + list(a_e2e))):
            unit = (b_e2e.get(name) or a_e2e.get(name))[1]
            row(name, unit, b_e2e.get(name, (None,))[0],
                a_e2e.get(name, (None,))[0], better.get(name))
        b_pl, a_pl = medians(b_runs, "per_layer"), medians(a_runs,
                                                           "per_layer")
        layers = [n for n in dict.fromkeys(list(b_pl) + list(a_pl))
                  if (b_pl.get(n) or a_pl.get(n))[1] == "ms"]
        if layers:
            print("  per-layer self time per scan period (traced runs):")
            for name in layers:
                row(name, "ms", b_pl.get(name, (None,))[0],
                    a_pl.get(name, (None,))[0], better.get(name))
        b_c, a_c = count_medians(b_runs), count_medians(a_runs)
        moved = [n for n in b_c if n in a_c and b_c[n] != a_c[n]]
        print("  work counts: " + ("identical" if not moved else
                                   "changed: " + ", ".join(moved)))
        for name in moved:
            row(name, "count", b_c[name], a_c[name], None)


if __name__ == "__main__":
    main()
