#!/usr/bin/env python3
"""Compare a parent commit and a change from ``run.py --out`` reports.

    python3 benchmarks/compare.py PARENT.json CHANGE.json [PARENT.json CHANGE.json ...]

Arguments alternate parent, change, parent, change...; each report may
hold several runs (``run.py --runs N``).  Parent runs and change runs are
paired in order, and at least 10 pairs are required; collect them by
alternating which side runs first.  For every workload and end-to-end
metric this prints each side's median and quartiles, the change's pair
wins, and a verdict:

- ``gain``: the change wins at least 9/10 of the pairs (ties count for
  neither side) and the medians differ by more than the parent's
  interquartile range; void when more requests fail than on the parent.
- ``regression``: the change's median is worse than the parent's by more
  than the metric's bound.
- ``unresolved``: the run-to-run spread (interquartile range over
  median, either side, with the same inclusive quartiles as
  ``run.py --runs``) exceeds the bound, unless every change run beats
  every parent run.
- ``no change``: none of the above.

The failed share of requests is printed per workload.  Exits 1 on any
regression or on more failures than the parent, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

import harness

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(paths: list[str]) -> list[dict[str, Any]]:
    runs: list[dict[str, Any]] = []
    for path in paths:
        runs.extend(json.loads(Path(path).read_text())["runs"])
    return runs


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> dict[str, Any]:
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = harness.quartiles(parent)
    c1, cm, c3 = harness.quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    gain = sign * (cm - pm)
    spread = max(harness.spread(parent), harness.spread(change))
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound and not all_better:
        outcome = "unresolved"
    elif gain > 0 and wins >= WIN_SHARE * len(parent) and gain > p3 - p1:
        outcome = "gain"
    elif -gain / pm > bound:
        outcome = "regression"
    else:
        outcome = "no change"
    return {"parent": (pm, p1, p3), "change": (cm, c1, c3), "wins": wins,
            "spread": spread, "verdict": outcome}


def failed_share(runs: list[dict[str, Any]], workload: str) -> float:
    attempted = sum(r["workloads"][workload]["attempted"] for r in runs)
    failed = sum(r["workloads"][workload]["failed"] for r in runs)
    return failed / attempted if attempted else 1.0


def compare(parent_runs: list[dict[str, Any]], change_runs: list[dict[str, Any]],
            spec: dict[str, Any]) -> tuple[list[str], bool]:
    """Report lines, and whether the change passes (no regression and no
    more failures than the parent)."""
    pairs = min(len(parent_runs), len(change_runs))
    lines = [f"{pairs} pairs; columns: median [q1, q3]"]
    ok = True
    for workload in parent_runs[0]["workloads"]:
        p_fail = failed_share(parent_runs, workload)
        c_fail = failed_share(change_runs, workload)
        more_failures = c_fail > p_fail
        ok = ok and not more_failures
        lines.append(f"{workload}: failed share parent {p_fail:.4f} change "
                     f"{c_fail:.4f}{' MORE FAILURES' if more_failures else ''}")
        for m in spec["end_to_end"]:
            parent = [harness.metric_value(r["workloads"][workload]["metrics"][m["name"]])
                      for r in parent_runs[:pairs]]
            change = [harness.metric_value(r["workloads"][workload]["metrics"][m["name"]])
                      for r in change_runs[:pairs]]
            row = verdict(parent, change, m["better"], m["bound"])
            if row["verdict"] == "gain" and more_failures:
                row["verdict"] = "gain void: more failures"
            ok = ok and row["verdict"] != "regression"
            lines.append(
                f"  {m['name']:<16} parent {fmt(row['parent'])}  change "
                f"{fmt(row['change'])}  wins {row['wins']}/{pairs}  spread "
                f"{100 * row['spread']:.1f}% (bound {100 * m['bound']:.0f}%)  "
                f"{row['verdict']}")
    return lines, ok


def fmt(quartiles: tuple[float, float, float]) -> str:
    median, q1, q3 = quartiles
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("reports", nargs="+",
                        help="alternating parent and change report files")
    args = parser.parse_args(argv)
    if len(args.reports) % 2:
        parser.error("reports must alternate parent, change (an even count)")
    parent_runs = load_runs(args.reports[0::2])
    change_runs = load_runs(args.reports[1::2])
    if min(len(parent_runs), len(change_runs)) < MIN_PAIRS:
        parser.error(f"need at least {MIN_PAIRS} parent/change pairs, got "
                     f"{len(parent_runs)} parent and {len(change_runs)} "
                     f"change runs")
    lines, ok = compare(parent_runs, change_runs, harness.load_spec())
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
