"""BENCH_SCALE1_grounding — columnar batches vs. row-at-a-time grounding.

SCALE-1 established that the wsd backend's latency scales with the
*representation*; this series measures the constant factor of that scaling:
the symbolic filter / projection loops that touch every ground tuple of
every query.  The same prepared, grounding-heavy symbolic query (selection
conjuncts + projection over the repaired relation, ground cache warm, so
per-execution work is exactly the hot loops) is timed twice per sweep
point — with the columnar batch engine (``db.backend.columnar``, the
default) and with the row-at-a-time interpreted loops it replaces.

Asserted:

* the columnar path is **active**: ``columnar_batches`` > 0 and
  ``rowwise_fallbacks`` == 0 over the whole sweep (every batch of this
  workload must compile — a silent fallback would time the old loop and
  call it columnar);
* answers are identical on both paths at every point.

The speed-up is printed, not asserted: wall-clock ratios on a shared host
are not a pass/fail signal, the work counters above are.
"""

from __future__ import annotations

import statistics
import time

from repro import MayBMS
from repro.workloads import DirtyRelationSpec
from repro.workloads.generators import dirty_key_relation

from conftest import print_table, scale1_grounding_parameters

PARAMS = scale1_grounding_parameters()

REPAIR_STATEMENT = ("create table I as "
                    "select K, P1, P2 from Dirty repair by key K weight W;")

#: Grounding-heavy and symbolic: two selection conjuncts plus a projection,
#: no aggregates — per-execution time is the filter/project loops over all
#: ``groups * options`` ground tuples (conf-free so condition probability
#: work cannot dilute what the series measures).
GROUNDING_QUERY = "select possible K, P1 from I where P1 > ? and K < ?;"


def _build_session(groups: int) -> MayBMS:
    spec = DirtyRelationSpec(groups=groups, options=PARAMS["options"], seed=7)
    relation = dirty_key_relation(spec)
    db = MayBMS({"Dirty": relation}, backend="wsd")
    db.execute(REPAIR_STATEMENT)
    return db


def _median_latency_ms(prepared, arguments: tuple) -> float:
    samples = []
    for _ in range(PARAMS["repetitions"]):
        start = time.perf_counter()
        prepared.execute(arguments)
        samples.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(samples)


class TestScale1GroundingColumnar:
    def test_columnar_batches_match_rowwise_loops(self):
        rows = []
        for groups in PARAMS["groups"]:
            db = _build_session(groups)
            prepared = db.prepare(GROUNDING_QUERY)
            arguments = (2, max(groups // 2, 1))
            # Warm the generation-keyed ground cache so both timed legs pay
            # the hot loops only, and pin the answers' parity first.
            columnar_answer = sorted(prepared.execute(arguments).rows(),
                                     key=repr)
            batches_before = db.backend.stats.columnar_batches
            fallbacks_before = db.backend.stats.rowwise_fallbacks
            columnar_ms = _median_latency_ms(prepared, arguments)
            batches = db.backend.stats.columnar_batches - batches_before
            assert batches > 0, "the columnar path must actually run"
            assert db.backend.stats.rowwise_fallbacks == fallbacks_before, (
                "every batch of this workload must compile columnar — a "
                "rowwise fallback would time the interpreted loop instead")

            db.backend.columnar = False
            try:
                rowwise_answer = sorted(prepared.execute(arguments).rows(),
                                        key=repr)
                assert rowwise_answer == columnar_answer, (
                    "columnar and row-at-a-time evaluation must agree")
                rowwise_ms = _median_latency_ms(prepared, arguments)
            finally:
                db.backend.columnar = True
            speedup = rowwise_ms / columnar_ms
            rows.append((groups, PARAMS["options"],
                         round(columnar_ms, 3), round(rowwise_ms, 3),
                         round(speedup, 1)))
        headers = ["groups", "options", "columnar ms", "rowwise ms",
                   "speedup"]
        print_table("SCALE-1: columnar vs row-at-a-time grounding loops",
                    headers, rows)

    def test_rowwise_mode_counts_no_columnar_batches(self):
        """The baseline leg is honest: with the engine off, nothing is
        counted columnar and nothing counts as a fallback either."""
        db = _build_session(PARAMS["groups"][0])
        db.backend.columnar = False
        batches_before = db.backend.stats.columnar_batches
        fallbacks_before = db.backend.stats.rowwise_fallbacks
        prepared = db.prepare(GROUNDING_QUERY)
        prepared.execute((2, max(PARAMS["groups"][0] // 2, 1)))
        assert db.backend.stats.columnar_batches == batches_before
        assert db.backend.stats.rowwise_fallbacks == fallbacks_before
