#!/usr/bin/env python3
"""Compare two result files: one row per (metric, workload).

``python bench/compare.py A.json B.json`` — A is the baseline, B the
candidate; each holds several runs (``run.py --repeat N --out NAME``).  The
verdict uses only the bounds in ``BENCHMARK.json``:

* ``unresolved`` — the run-to-run spread of either side (interquartile
  distance over the median) is wider than the metric's bound, so the runs
  cannot tell;
* ``worse`` / ``better`` — B's median is worse / better than A's by more
  than the bound (as a share of A's median);
* ``unchanged`` — otherwise.

Metrics without a bound (per-layer metrics, and the end-to-end metrics only
one workload has) are listed with their change and no verdict.  Exit status
is 1 if any row is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import json
import sys

import env
from stats import median, spread


def load(path: str) -> dict[tuple[str, str], list[float]]:
    series: dict[tuple[str, str], list[float]] = {}
    for run in json.loads(open(path).read())["runs"]:
        metrics = dict(run["metrics"], **run.get("extra", {}))
        for metric, entry in metrics.items():
            series.setdefault((run["workload"], metric), []).append(
                entry["value"])
    return series


def verdict(base: list[float], candidate: list[float], better: str,
            bound: float) -> str:
    if max(spread(base), spread(candidate)) > bound:
        return "unresolved"
    change = (median(candidate) - median(base)) / abs(median(base))
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "unchanged"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    spec = env.load_spec()
    bounds = {entry["name"]: entry for entry in spec["end_to_end"]}
    base, candidate = load(argv[0]), load(argv[1])
    print(f"{'workload':<20}{'metric':<44}{'A median':>12}{'B median':>12}"
          f"{'change':>9}{'spread A':>9}{'spread B':>9}  verdict")
    bad = 0
    for key in base:
        if key not in candidate:
            continue
        workload, metric = key
        a, b = base[key], candidate[key]
        change = ((median(b) - median(a)) / abs(median(a))
                  if median(a) else 0.0)
        entry = bounds.get(metric)
        word = (verdict(a, b, entry["better"], entry["bound"])
                if entry and median(a) else "-")
        bad += word in ("worse", "unresolved")
        print(f"{workload:<20}{metric:<44}{median(a):>12.5g}"
              f"{median(b):>12.5g}{change:>+9.1%}{spread(a):>9.1%}"
              f"{spread(b):>9.1%}  {word}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
