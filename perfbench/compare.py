"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the records ``run.py --out`` appends, one per workload run;
for example ten runs of the parent commit and ten of a change, made in
alternation with the same seeds in the same order. The i-th run of a
workload in BASE is paired with the i-th run of that workload in CHANGE.

For each workload and metric the tool prints both medians with their
quartiles and one verdict:

* ``improved``: the change wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the base's interquartile range;
* ``worse``: the change's median is worse than the base's by more than the
  metric's bound in BENCHMARK.json; for a metric with no bound, the base wins
  at least 9 of 10 pairs and the medians differ by more than that range;
* ``unresolved``: the base's interquartile range, as a share of its median,
  exceeds the bound, and not every run of the change beats every base run;
* ``unchanged``: none of the above.

The exit code is 1 if any end-to-end metric of BENCHMARK.json is worse.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
from collections import defaultdict

from run import quartiles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WIN_SHARE = 0.9


def load_runs(path: str) -> dict[str, list[dict]]:
    """Records grouped by workload; traced runs form groups of their own."""
    runs = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                key = record["workload"] + (" traced" if record["trace"] else "")
                runs[key].append(record)
    return runs


def verdict(base: list[float], change: list[float], better: str, bound: float | None) -> tuple[str, int]:
    """Verdict on paired runs, and the number of pairs the change wins."""
    sign = 1.0 if better == "lower" else -1.0
    b_q1, b_med, b_q3 = quartiles(base)
    c_med = statistics.median(change)
    iqr = b_q3 - b_q1
    gains = [sign * (b - c) for b, c in zip(base, change)]
    wins = sum(g > 0 for g in gains)
    losses = sum(g < 0 for g in gains)
    apart = abs(c_med - b_med) > iqr
    if wins >= WIN_SHARE * len(gains) and apart and sign * (b_med - c_med) > 0:
        return "improved", wins
    if bound is None:
        return ("worse" if losses >= WIN_SHARE * len(gains) and apart else "unchanged"), wins
    scale = abs(b_med) or math.inf
    if sign * (c_med - b_med) / scale > bound:
        return "worse", wins
    all_better = all(sign * (b - c) > 0 for b in base for c in change)
    if iqr / scale > bound and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def spread(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two sets of benchmark runs.")
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    base_runs, change_runs = load_runs(args.base), load_runs(args.change)

    any_worse = False
    row = "{:<24} {:<44} {:<32} {:<32} {:>7}  {}"
    print(row.format("workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "wins", "verdict"))
    for workload in sorted(set(base_runs) & set(change_runs)):
        base, change = base_runs[workload], change_runs[workload]
        pairs = min(len(base), len(change))
        for side, runs in (("base", base), ("change", change)):
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            print(f"{workload:<24} {side}: {len(runs)} runs, {failed} of {attempted} operations failed")
        if sum(r["failed"] for r in change) > sum(r["failed"] for r in base):
            print(f"{workload:<24} more operations fail in the change, so no gain counts")
        names = [n for n in base[0]["metrics"] if all(n in r["metrics"] for r in base + change)]
        for name in names:
            b = [r["metrics"][name]["value"] for r in base]
            c = [r["metrics"][name]["value"] for r in change]
            v, wins = verdict(b[:pairs], c[:pairs], base[0]["metrics"][name]["better"], bounds.get(name))
            any_worse = any_worse or (v == "worse" and name in bounds)
            print(row.format(workload, name, spread(b), spread(c), f"{wins}/{pairs}", v))
    only = sorted(set(base_runs) ^ set(change_runs))
    if only:
        print(f"workloads in one set only: {', '.join(only)}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
