#!/usr/bin/env python3
"""The benchmark's one command.

``python bench/run.py`` builds the data, drives all four workloads, checks
every answer and prints every end-to-end metric by name with its unit and
sample count; ``--trace`` adds the traced run and the per-layer metrics.

``--workload NAME --seed N --seconds S --trace 0|1`` is the form the
benchmark driver uses: one workload, one run, and as the last line of
standard output one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  Exit status is 0 only if every answer was
right.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time

import env
import checks
from stats import quartiles, spread
from checks import GOLDEN_PATH, GOLDEN_SEED
from timed import BenchmarkError, run_timed
from tracing import run_traced
from workloads import WORKLOADS

DEFAULT_SECONDS = 20.0
SMOKE_SECONDS = 2.0
#: End-to-end metrics only ``http_mixed_rw`` has, and the failure share
#: (0 on a correct program): printed and recorded by name, but not listed
#: in BENCHMARK.json, whose metrics every workload must report and none of
#: which may be 0.
EXTRA_UNITS = {"write_p50_ms": "ms", "write_p95_ms": "ms",
               "cold_read_p50_ms": "ms", "recovery_s": "s",
               "failed_share": "share"}


def _emit(metrics: dict[str, float], wanted: list[dict]) -> dict:
    """Exactly the metrics ``BENCHMARK.json`` lists, each with its unit."""
    return {entry["name"]: {"value": float(metrics[entry["name"]]),
                            "unit": entry["unit"]} for entry in wanted}


def run_once(name: str, seed: int, seconds: float, trace: bool,
             spec: dict) -> dict:
    """One run of one workload; prints its table, returns its record."""
    workload = WORKLOADS[name]
    print(f"== {name}  seed={seed}  trace={int(trace)}  "
          f"window={seconds:g}s  closed loop, {workload.clients} client(s), "
          f"{workload.transport}, dataset {workload.size.name} "
          f"({workload.size.groups}x{workload.size.options})", flush=True)
    if trace:
        metrics, table, problems, replayed = run_traced(workload, seed,
                                                        seconds)
        print("\n".join(table))
        units = {entry["name"]: entry["unit"] for entry in spec["per_layer"]}
        for metric, value in metrics.items():
            print(f"  {metric:<46}{value:>14.6g} {units[metric]}")
        # A failed operation aborts the traced run; what can be wrong here
        # is the layers not adding up, which fails the run as a whole.
        record = {"correct": not problems, "attempted": replayed,
                  "failed": 0, "metrics": _emit(metrics, spec["per_layer"])}
    else:
        outcome = run_timed(workload, seed, seconds)
        units = {entry["name"]: entry["unit"] for entry in spec["end_to_end"]}
        units.update(EXTRA_UNITS)
        for metric, value in outcome.metrics.items():
            samples = outcome.samples.get(metric)
            count = f"  (n={samples})" if samples is not None else ""
            print(f"  {metric:<20}{value:>14.6g} {units[metric]}{count}")
        problems = outcome.errors
        record = {"correct": outcome.correct, "attempted": outcome.attempted,
                  "failed": outcome.failed,
                  "metrics": _emit(outcome.metrics, spec["end_to_end"]),
                  "extra": {name: {"value": outcome.metrics[name],
                                   "unit": unit}
                            for name, unit in EXTRA_UNITS.items()
                            if name in outcome.metrics}}
    for problem in problems:
        print(f"  INCORRECT: {problem}")
    record.update(workload=name, seed=seed, trace=int(trace), seconds=seconds)
    return record


def summarise(records: list[dict]) -> None:
    """Median, quartiles and spread per (metric, workload) over repeats."""
    series: dict[tuple, list[float]] = {}
    for record in records:
        for metric, entry in record["metrics"].items():
            series.setdefault((record["workload"], record["trace"], metric),
                              []).append(entry["value"])
    print(f"\n{'workload':<20}{'metric':<44}{'n':>3}{'median':>13}"
          f"{'q1':>13}{'q3':>13}{'spread':>8}")
    for (workload, _, metric), values in series.items():
        q1, q2, q3 = quartiles(values)
        print(f"{workload:<20}{metric:<44}{len(values):>3}{q2:>13.5g}"
              f"{q1:>13.5g}{q3:>13.5g}{spread(values):>8.1%}")


def update_golden() -> None:
    digests = {name: checks.golden_digest(workload, GOLDEN_SEED)
               for name, workload in WORKLOADS.items()}
    GOLDEN_PATH.write_text(json.dumps(
        {"seed": GOLDEN_SEED, "digests": digests}, indent=2) + "\n")
    print(f"wrote {GOLDEN_PATH}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run only this workload and end with the "
                             "driver's one-line JSON result")
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"length of the timed window "
                             f"(default {DEFAULT_SECONDS:g})")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="traced run: per-layer metrics and span files")
    parser.add_argument("--smoke", action="store_true",
                        help=f"shrink every window to {SMOKE_SECONDS:g}s")
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="repeat N times on seeds SEED..SEED+N-1 and "
                             "print median, quartiles and spread")
    parser.add_argument("--out", default=None, metavar="NAME",
                        help="results file name under bench/out/")
    parser.add_argument("--update-golden", action="store_true",
                        help="rewrite golden.json from the reference "
                             "answers and exit")
    options = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if options.update_golden:
        update_golden()
        return 0
    spec = env.load_spec()
    seconds = options.seconds if options.seconds is not None else (
        SMOKE_SECONDS if options.smoke else DEFAULT_SECONDS)
    names = [options.workload] if options.workload else list(WORKLOADS)
    records = []
    try:
        for repeat in range(options.repeat):
            for name in names:
                seed = options.seed + repeat
                if not options.workload or not options.trace:
                    records.append(run_once(name, seed, seconds, False, spec))
                if options.trace:
                    records.append(run_once(name, seed, seconds, True, spec))
    except BenchmarkError as error:
        print(f"bench: aborted: {error}", file=sys.stderr)
        return 3
    if options.repeat > 1:
        summarise(records)
    env.OUT.mkdir(parents=True, exist_ok=True)
    out = env.OUT / (options.out
                     or time.strftime("results-%Y%m%d-%H%M%S.json"))
    out.write_text(json.dumps({"runs": records}, indent=1) + "\n")
    print(f"results written to {out}")
    correct = all(record["correct"] for record in records)
    if options.workload and options.repeat == 1:
        record = records[-1]
        print(json.dumps({key: record[key] for key in
                          ("correct", "attempted", "failed", "metrics")}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
