"""BENCH_SCALE4 — world grouping and set operations: native vs. explicit.

SCALE-1/2/3 made selection, confidence and aggregates scale with the
representation; this series closes the last query classes that used to
materialise worlds: **``group worlds by``** and **compound queries**
(UNION / INTERSECT / EXCEPT).  A repair-key decomposition with up to
``2^24`` worlds is swept through a grouping / set-operation series answered
by two engines:

* **explicit** — materialise every world (only at the smallest point);
* **native** — the world-grouping engine (:mod:`repro.wsd.grouping`:
  grouping expressions compiled to convolution contributions, group masses
  and conditioned per-group answers off the decomposed aggregator) and the
  set-operation combination (:mod:`repro.wsd.setops`: presence-condition
  algebra on the symbolic entries).

Both engines must agree exactly wherever the explicit backend can answer,
the native engines must never fall back (``stats.group_fallbacks == 0`` —
asserted here and relied on by the CI bench-smoke job), and at the largest
(2^24-world) point every query of the series must answer in ≤10ms.  The
series is also written as a machine-readable ``BENCH_SCALE4.json`` CI
artifact.
"""

from __future__ import annotations

import random
import time

import pytest

from repro import MayBMS
from repro.relational.relation import Relation
from repro.relational.schema import Column, Schema
from repro.relational.types import SqlType

from conftest import (
    BENCH_SMOKE,
    print_table,
    scale4_grouping_parameters,
    write_bench_json,
)

PARAMS = scale4_grouping_parameters()

REPAIR_STATEMENT = ("create table I as "
                    "select K, B from Dirty repair by key K weight W;")

#: The grouping / set-operation series.  Grouping expressions touch a small
#: component neighbourhood (the regime the native engine serves: group count
#: stays polynomial while the world count explodes); the compound queries
#: range over every component but combine purely symbolically.
GROUPING_QUERIES = [
    ("group by local answer",
     "select possible B from I where K < 3 "
     "group worlds by (select B from I where K = 0);"),
    ("group by local count",
     "select certain B from I where K < 3 "
     "group worlds by (select count(*) from I where K = 0 and B > 2);"),
    ("group by local sum",
     "select possible K from I where K < 2 "
     "group worlds by (select sum(B) from I where K < 3);"),
    ("union", "select K from I where B > 2 union "
     "select K from I where B < 3;"),
    ("except", "select K from I except select K from I where B > 2;"),
    ("intersect all",
     "select K from I intersect all select K from I where B < 4;"),
]


def _grouping_relation(groups: int) -> Relation:
    """A dirty relation with ``options`` repair alternatives per key and a
    small payload domain (grouping values collide, groups stay few)."""
    rng = random.Random(11)
    rows = []
    for key in range(groups):
        payloads = rng.sample(range(PARAMS["payload_domain"]),
                              PARAMS["options"])
        for payload in payloads:
            rows.append((key, payload, rng.randint(1, 5)))
    schema = Schema([Column("K", SqlType.INTEGER),
                     Column("B", SqlType.INTEGER),
                     Column("W", SqlType.INTEGER)])
    return Relation(schema, rows, name="Dirty")


def _wsd_session(relation: Relation) -> MayBMS:
    db = MayBMS({"Dirty": relation}, backend="wsd")
    db.execute(REPAIR_STATEMENT)
    return db


def _timed_best(callable_, repeats: int = 3):
    best = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = callable_()
        elapsed = (time.perf_counter() - start) * 1000.0
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def _canonical(result):
    """A comparable form of rows / distribution / compact answers."""
    if result.is_rows():
        return sorted(
            (tuple(round(value, 9) if isinstance(value, float) else value
                   for value in row)
             for row in result.rows()),
            key=repr)
    if result.is_wsd_rows():
        worlds = result.answer_decomposition().to_worldset()
        pairs = [(world.probability, world.relation(result.relation_name))
                 for world in worlds]
    else:
        pairs = [(answer.probability, answer.relation)
                 for answer in result.world_answers]
    weights = [probability for probability, _ in pairs]
    if any(weight is None for weight in weights):
        weights = [1.0 / len(pairs)] * len(pairs)
    total = sum(weights)
    distribution: dict[tuple, float] = {}
    for weight, (_, relation) in zip(weights, pairs):
        distribution[relation.fingerprint()] = distribution.get(
            relation.fingerprint(), 0.0) + weight / total
    return sorted((fingerprint, round(mass, 9))
                  for fingerprint, mass in distribution.items())


def test_scale4_grouping_native_vs_explicit(benchmark):
    rows = []
    native_ms = {}
    for groups in PARAMS["groups"]:
        relation = _grouping_relation(groups)
        world_count = PARAMS["options"] ** groups

        native_db = _wsd_session(relation)
        answers = {}
        native_ms = {}
        for label, query in GROUPING_QUERIES:
            result, elapsed = _timed_best(
                lambda query=query: native_db.execute(query))
            answers[label] = _canonical(result)
            native_ms[label] = elapsed
        stats = native_db.backend.stats
        # The headline guarantee: the whole series is answered by the
        # native grouping / set-operation engines — no component-joint
        # enumeration, no counted fallback, no world materialisation.
        assert stats.grouping + stats.setops >= len(GROUPING_QUERIES)
        assert stats.component_joint == 0
        assert stats.group_fallbacks == 0
        assert stats.fallback == 0

        if world_count <= PARAMS["explicit_limit"]:
            explicit_db = MayBMS({"Dirty": relation})
            explicit_db.execute(REPAIR_STATEMENT)
            for label, query in GROUPING_QUERIES:
                explicit_result, explicit_ms = _timed_best(
                    lambda query=query: explicit_db.execute(query), repeats=1)
                assert _canonical(explicit_result) == answers[label], \
                    f"{label} diverged from explicit at {groups} groups"
            explicit_cell = round(explicit_ms, 2)
        else:
            explicit_cell = "infeasible"

        slowest = max(native_ms.values())
        rows.append((f"G{groups}", world_count, explicit_cell,
                     round(slowest, 2),
                     round(native_ms["group by local sum"], 2),
                     round(native_ms["except"], 2)))
    if not BENCH_SMOKE:
        # Acceptance bar: at the largest (2^24 worlds) point — infeasible
        # for the explicit backend — every grouping / compound query of the
        # series answers exactly in ≤10ms.
        assert rows[-1][1] == 2 ** 24
        assert rows[-1][2] == "infeasible"
        assert rows[-1][3] < 10.0, (
            f"slowest grouping query took {rows[-1][3]}ms at the 2^24 point")
    headers = ["point", "worlds", "explicit (last q)", "native worst",
               "group by local sum", "except"]
    print_table("BENCH_SCALE4: world-grouping / set-operation latency (ms)",
                headers, rows)
    write_bench_json(
        "BENCH_SCALE4", headers, rows,
        queries=[query for _, query in GROUPING_QUERIES],
        native_ms_largest_point={
            label: round(value, 4) for label, value in native_ms.items()})

    # One stable timing for the benchmark harness: the full series at the
    # largest (explicit-infeasible) point.
    relation = _grouping_relation(PARAMS["groups"][-1])
    db = _wsd_session(relation)

    def run_series():
        return [db.execute(query) for _, query in GROUPING_QUERIES]

    results = benchmark(run_series)
    assert all(result.kind in ("rows", "world_rows", "wsd_rows")
               for result in results)
    assert db.backend.stats.group_fallbacks == 0


def test_scale4_group_masses_are_probabilities(benchmark):
    """Per-group masses of a native grouping answer are a probability
    distribution at every scale (and match the explicit backend small)."""
    small = _grouping_relation(PARAMS["groups"][0])
    query = ("select possible B from I where K < 2 "
             "group worlds by (select B from I where K = 0);")

    explicit_db = MayBMS({"Dirty": small})
    explicit_db.execute(REPAIR_STATEMENT)
    expected = _canonical(explicit_db.execute(query))

    small_db = _wsd_session(small)
    assert _canonical(small_db.execute(query)) == expected

    large = _grouping_relation(PARAMS["groups"][-1])
    large_db = _wsd_session(large)
    result = benchmark(lambda: large_db.execute(query))
    masses = [answer.probability for answer in result.world_answers]
    assert sum(masses) == pytest.approx(1.0)
    assert all(mass >= 0.0 for mass in masses)
    assert large_db.backend.stats.group_fallbacks == 0
