#!/usr/bin/env python3
"""Compare benchmark results of a parent commit and a change.

    python3 benchmarks/e2e/compare.py PARENT.json CHANGE.json [CHANGE.json ...]

Each file is a results file written by ``run.py --out`` (or
``--calibrate``).  Runs of the same workload and seed on both sides form a
pair.  For every (end-to-end metric, workload) the tool prints one verdict:

* ``GAIN`` — at least 10 pairs, run alternately (the side that ran first
  alternates from pair to pair), the change wins at least 9 in 10 of them
  (ties count for neither), and the medians differ by more than the
  parent's own spread (Q3 - Q1);
* ``REGRESSION`` — the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``;
* ``unresolved`` — the run-to-run spread of either side exceeds the bound,
  so "unchanged" cannot be claimed, unless every change run reads better
  than every parent run;
* ``ok`` — none of the above.

It also compares failed operations per attempted.  One row per workload;
exit status 1 when any row has a REGRESSION or more failures than the
parent.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from stats import median, quartiles, rel_iqr

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
MIN_PAIRS = 10
MIN_WIN_SHARE = 0.9


def load_runs(path: Path) -> dict[str, dict[int, dict]]:
    """workload -> seed -> run (the last run of a seed wins)."""
    runs: dict[str, dict[int, dict]] = {}
    for run in json.loads(path.read_text())["runs"]:
        if not run.get("trace"):
            runs.setdefault(run["workload"], {})[run["seed"]] = run
    return runs


def alternating(pairs: list[tuple[dict, dict]]) -> bool:
    """True when the side that ran first alternates from pair to pair."""
    firsts = [p["started"] < c["started"]
              for p, c in sorted(pairs, key=lambda pc: min(pc[0]["started"],
                                                           pc[1]["started"]))]
    return all(a != b for a, b in zip(firsts, firsts[1:]))


def verdict(parent: list[float], change: list[float], better: str,
            bound: float, alternate: bool) -> str:
    """The verdict for one metric; ``parent``/``change`` are paired."""
    sign = 1.0 if better == "higher" else -1.0
    mp, mc = median(parent), median(change)
    q1, _, q3 = quartiles(parent)
    n = len(parent)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    if (n >= MIN_PAIRS and alternate and wins >= MIN_WIN_SHARE * n
            and sign * (mc - mp) > q3 - q1):
        return "GAIN"
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if max(rel_iqr(parent), rel_iqr(change)) > bound and not all_better:
        return "unresolved"
    worse = -sign * (mc - mp) / abs(mp) if mp else 0.0
    return "REGRESSION" if worse > bound else "ok"


def compare(parent_runs: dict, change_runs: dict, metrics: list[dict]
            ) -> tuple[list[str], bool]:
    """Rows of text, and whether the change regressed anywhere."""
    rows, regressed = [], False
    for workload in sorted(set(parent_runs) | set(change_runs)):
        seeds = sorted(set(parent_runs.get(workload, {}))
                       & set(change_runs.get(workload, {})))
        if not seeds:
            rows.append(f"{workload}: no paired runs")
            continue
        pairs = [(parent_runs[workload][s], change_runs[workload][s])
                 for s in seeds]
        alternate = alternating(pairs)
        cells = []
        for m in metrics:
            pv = [p["metrics"][m["name"]] for p, _ in pairs]
            cv = [c["metrics"][m["name"]] for _, c in pairs]
            v = verdict(pv, cv, m["better"], m["bound"], alternate)
            regressed |= v == "REGRESSION"
            delta = (median(cv) / median(pv) - 1) * 100 if median(pv) else 0
            cells.append(f"{m['name']} {v} ({delta:+.1f}%)")
        p_fail = sum(p["failed"] for p, _ in pairs)
        p_att = sum(p["attempted"] for p, _ in pairs)
        c_fail = sum(c["failed"] for _, c in pairs)
        c_att = sum(c["attempted"] for _, c in pairs)
        errors_ok = c_fail / max(c_att, 1) <= p_fail / max(p_att, 1)
        regressed |= not errors_ok
        cells.append(f"failed {p_fail}/{p_att} -> {c_fail}/{c_att}"
                     + ("" if errors_ok else " MORE FAILURES"))
        rows.append(f"{workload} [{len(pairs)} pairs"
                    f"{', alternating' if alternate else ''}]: "
                    + "; ".join(cells))
    return rows, regressed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare benchmark results of a parent and a change.")
    parser.add_argument("parent", type=Path)
    parser.add_argument("changes", type=Path, nargs="+")
    args = parser.parse_args(argv)

    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    parent = load_runs(args.parent)
    regressed = False
    for path in args.changes:
        print(f"{path} vs {args.parent}")
        rows, bad = compare(parent, load_runs(path), metrics)
        for row in rows:
            print(f"  {row}")
        regressed |= bad
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
