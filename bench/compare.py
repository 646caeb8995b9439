"""Compare two sets of benchmark runs: a parent commit and a change.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the untraced result records ``run.py --out`` wrote
(one per workload and seed).  Runs pair up by workload and seed.  For
each (workload, end-to-end metric) the report gives both sides' median
and quartiles, the share of pairs the change won, and a verdict under
the rule of the choosing-metrics guide (section 8):

- ``gain``: the change wins at least 9/10 of the pairs (ties count for
  neither), its median is better by more than the parent's quartile
  spread, and it fails no more requests than the parent;
- ``regression``: the change's median is worse than the parent's by
  more than the metric's bound in ``BENCHMARK.json``;
- ``unresolved``: the parent's own quartile spread is wider than the
  bound, unless every change run beats every parent run;
- ``same`` otherwise.

Exit code 1 if any row is a regression.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

Runs = Dict[str, Dict[int, dict]]    # workload -> seed -> record


def load_runs(directory: str) -> Runs:
    runs: Runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            record = json.load(fh)
        if not isinstance(record, dict) or record.get("trace", True) \
                or "workload" not in record:
            continue
        runs.setdefault(record["workload"], {})[record["seed"]] = record
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: List[float], change: List[float], pairs, *,
            lower_is_better: bool, bound: float,
            more_failures: bool) -> Tuple[str, float]:
    """(verdict, share of pairs won) for one (workload, metric)."""
    sign = -1.0 if lower_is_better else 1.0
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    won = wins / len(pairs) if pairs else 0.0
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    spread = p_q3 - p_q1
    worse_by = sign * (p_med - c_med) / abs(p_med) if p_med else 0.0
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if worse_by > bound:
        return "regression", won
    if p_med and spread / abs(p_med) > bound and not all_better:
        return "unresolved", won
    if (won >= 0.9 and sign * (c_med - p_med) > spread
            and not more_failures):
        return "gain", won
    return "same", won


def compare(parent_dir: str, change_dir: str,
            benchmark: dict) -> List[dict]:
    parent_runs, change_runs = load_runs(parent_dir), load_runs(change_dir)
    rows = []
    for workload in sorted(set(parent_runs) & set(change_runs)):
        p_runs, c_runs = parent_runs[workload], change_runs[workload]
        seeds = sorted(set(p_runs) & set(c_runs))
        more_failures = (sum(r["failed"] for r in c_runs.values())
                         > sum(r["failed"] for r in p_runs.values()))
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            parent = [r["metrics"][name] for r in p_runs.values()]
            change = [r["metrics"][name] for r in c_runs.values()]
            pairs = [(p_runs[s]["metrics"][name], c_runs[s]["metrics"][name])
                     for s in seeds]
            result, won = verdict(
                parent, change, pairs,
                lower_is_better=metric["better"] == "lower",
                bound=metric["bound"], more_failures=more_failures)
            rows.append({"workload": workload, "metric": name,
                         "unit": metric["unit"], "bound": metric["bound"],
                         "parent": quartiles(parent),
                         "change": quartiles(change),
                         "pairs": len(pairs), "won": won,
                         "verdict": result})
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    rows = compare(argv[0], argv[1], benchmark)
    if not rows:
        print("no workload has runs on both sides", file=sys.stderr)
        return 2
    print(f"{'workload':<19} {'metric':<22} {'parent med [q1, q3]':>30} "
          f"{'change med [q1, q3]':>30} {'won':>9} verdict")
    for row in rows:
        sides = []
        for side in ("parent", "change"):
            q1, med, q3 = row[side]
            sides.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
        print(f"{row['workload']:<19} {row['metric']:<22} {sides[0]:>30} "
              f"{sides[1]:>30} {row['won']:>5.0%}/{row['pairs']:<3} "
              f"{row['verdict']}")
    return 1 if any(row["verdict"] == "regression" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
