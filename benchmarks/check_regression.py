#!/usr/bin/env python3
"""Bench-regression gate: fresh BENCH_*.json vs. committed baselines.

Usage (CI runs this after the benchmark suite)::

    python benchmarks/check_regression.py \
        [--baselines benchmarks/baselines] [--results benchmarks/results]

For every committed baseline the gate checks, against the matching fresh
result file:

* the fresh file **exists** (a silently dropped benchmark fails the gate);
* the **smoke flags match** — smoke and full sweeps use different points,
  so mismatched modes are reported and skipped, never compared;
* **no series point is lost**: every baseline key row still exists, and a
  latency cell that was numeric has not turned into an error marker
  (``infeasible`` / ``EnumerationLimitError`` / ...);
* **median latency has not regressed more than 2x**: per latency column,
  ``fresh_median > 2 * baseline_median`` *and* more than ``--slack-ms``
  absolute (shared CI runners jitter sub-millisecond numbers; the ratchet
  is for real regressions, not scheduler noise);
* **size counters have not doubled** (storage-cell columns).

The baselines are a ratchet: when a change legitimately improves (or is
accepted to cost) performance, re-run the suite with ``REPRO_BENCH_SMOKE=1``
and copy ``benchmarks/results/*.json`` over ``benchmarks/baselines/`` in the
same commit.  Exit status 0 = green, 1 = regression.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

#: Per-benchmark comparison schema: identity columns (the series key),
#: latency columns (milliseconds, lower is better) and size-counter columns
#: (cells / tuples, lower is better).  Columns holding answers or derived
#: ratios (``conf``, ``speedup``, ``reads/s``) are deliberately absent.
BENCHES = {
    "BENCH_SCALE1_storage": {
        "key": ["point"],
        "latency": [],
        "counters": ["explicit tuples", "WSD cells"],
    },
    "BENCH_SCALE1_latency": {
        "key": ["point"],
        "latency": ["explicit conf", "WSD conf", "WSD possible"],
        "counters": [],
    },
    "BENCH_SCALE1_grounding": {
        "key": ["groups", "options"],
        "latency": ["columnar ms", "rowwise ms"],
        "counters": [],
    },
    "BENCH_SCALE2": {
        "key": ["point"],
        "latency": ["explicit", "d-tree"],
        "counters": [],
    },
    "BENCH_SCALE3": {
        "key": ["point"],
        "latency": ["explicit (last q)", "convolution worst",
                    "possible sum", "possible avg"],
        "counters": [],
    },
    "BENCH_SCALE4": {
        "key": ["point"],
        "latency": ["explicit (last q)", "native worst",
                    "group by local sum", "except"],
        "counters": [],
    },
    "BENCH_SCALE5": {
        "key": ["groups", "options"],
        "latency": ["cold ms", "prepared ms"],
        "counters": [],
    },
    "BENCH_SCALE5_threads": {
        "key": ["threads"],
        "latency": ["wall ms"],
        "counters": [],
    },
    "BENCH_SCALE6": {
        "key": ["workers"],
        "latency": ["wall ms"],
        "counters": [],
    },
    "BENCH_SCALE6_cache": {
        "key": ["leg"],
        "latency": ["median ms"],
        "counters": [],
    },
    "BENCH_APPROX1": {
        "key": ["point"],
        "latency": ["exact ms", "rare anytime ms", "dense anytime ms"],
        "counters": ["samples"],
    },
    "BENCH_ABL1": {
        "key": ["point"],
        "latency": [],
        "counters": ["unnormalised cells", "normalised cells", "components"],
    },
    "BENCH_DUR1": {
        "key": ["point"],
        "latency": ["commit_ms", "recovery_ms", "checkpoint_ms",
                    "recovery2_ms"],
        "counters": ["replayed"],
    },
}


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _series_by_key(payload: dict, key_columns: list[str]) -> dict[tuple, dict]:
    series = {}
    for row in payload.get("series", []):
        key = tuple(str(row.get(column)) for column in key_columns)
        series[key] = row
    return series


def check_bench(name: str, schema: dict, baseline_path: str,
                results_dir: str, slack_ms: float,
                failures: list[str], notes: list[str]) -> None:
    fresh_path = os.path.join(results_dir, f"{name}.json")
    if not os.path.exists(fresh_path):
        failures.append(
            f"{name}: no fresh result at {fresh_path} — the benchmark did "
            "not run (or stopped writing its JSON artifact)")
        return
    baseline = _load(baseline_path)
    fresh = _load(fresh_path)
    if bool(baseline.get("smoke")) != bool(fresh.get("smoke")):
        notes.append(
            f"{name}: smoke flags differ (baseline="
            f"{baseline.get('smoke')}, fresh={fresh.get('smoke')}); "
            "sweeps are not comparable — skipped")
        return
    base_rows = _series_by_key(baseline, schema["key"])
    fresh_rows = _series_by_key(fresh, schema["key"])
    # 1. Lost series points.
    for key, base_row in base_rows.items():
        fresh_row = fresh_rows.get(key)
        if fresh_row is None:
            failures.append(f"{name}: series point {key} disappeared")
            continue
        for column in schema["latency"] + schema["counters"]:
            base_value = base_row.get(column)
            fresh_value = fresh_row.get(column)
            if _is_number(base_value) and not _is_number(fresh_value):
                failures.append(
                    f"{name}: point {key} column {column!r} was "
                    f"{base_value!r}, now {fresh_value!r} — a previously "
                    "feasible measurement is gone")
    # 2. Median latency regression (>2x and beyond the absolute slack).
    for column in schema["latency"]:
        base_values = [row.get(column) for row in base_rows.values()]
        fresh_values = [row.get(column) for row in fresh_rows.values()]
        base_numeric = [v for v in base_values if _is_number(v)]
        fresh_numeric = [v for v in fresh_values if _is_number(v)]
        if not base_numeric or not fresh_numeric:
            continue
        base_median = statistics.median(base_numeric)
        fresh_median = statistics.median(fresh_numeric)
        if fresh_median > 2.0 * base_median and \
                fresh_median - base_median > slack_ms:
            failures.append(
                f"{name}: median {column!r} regressed "
                f"{base_median:.3f}ms -> {fresh_median:.3f}ms "
                f"(> 2x + {slack_ms:.0f}ms slack)")
        else:
            notes.append(
                f"{name}: {column!r} median {base_median:.3f}ms -> "
                f"{fresh_median:.3f}ms (ok)")
    # 3. Size counters must not double.
    for column in schema["counters"]:
        for key, base_row in base_rows.items():
            fresh_row = fresh_rows.get(key)
            if fresh_row is None:
                continue
            base_value = base_row.get(column)
            fresh_value = fresh_row.get(column)
            if _is_number(base_value) and _is_number(fresh_value) \
                    and base_value > 0 and fresh_value > 2.0 * base_value:
                failures.append(
                    f"{name}: point {key} counter {column!r} doubled "
                    f"({base_value} -> {fresh_value})")


def main(argv: list[str] | None = None) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baselines",
                        default=os.path.join(here, "baselines"))
    parser.add_argument("--results", default=os.path.join(here, "results"))
    parser.add_argument("--slack-ms", type=float, default=25.0,
                        help="absolute regression slack in milliseconds "
                             "(damps shared-runner jitter on tiny numbers)")
    options = parser.parse_args(argv)
    failures: list[str] = []
    notes: list[str] = []
    checked = 0
    for name, schema in sorted(BENCHES.items()):
        baseline_path = os.path.join(options.baselines, f"{name}.json")
        if not os.path.exists(baseline_path):
            notes.append(f"{name}: no committed baseline — skipped")
            continue
        checked += 1
        check_bench(name, schema, baseline_path, options.results,
                    options.slack_ms, failures, notes)
    for note in notes:
        print(f"  note: {note}")
    if not checked:
        print("bench-regression gate: no baselines found — nothing checked")
        return 0
    if failures:
        print(f"bench-regression gate: {len(failures)} failure(s)")
        for failure in failures:
            print(f"  FAIL: {failure}")
        return 1
    print(f"bench-regression gate: {checked} baseline(s) green")
    return 0


if __name__ == "__main__":
    sys.exit(main())
