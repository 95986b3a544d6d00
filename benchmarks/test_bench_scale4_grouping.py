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
the native engines must never fall back (``stats.group_fallbacks == 0``),
and the grouping work must not grow with the sweep up to the largest
(2^24-world) point: the grouping expressions read only the first
``LOCAL_GROUPS`` key groups, so the convolutions and distribution states
are bounded by that neighbourhood, whatever the number of groups.
"""

from __future__ import annotations

import random

import pytest

from repro import MayBMS
from repro.relational.relation import Relation
from repro.relational.schema import Column, Schema
from repro.relational.types import SqlType

from conftest import BENCH_SMOKE, print_table, scale4_grouping_parameters

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

#: The grouping expressions above read key groups ``K < LOCAL_GROUPS`` only.
LOCAL_GROUPS = 3


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


def test_scale4_grouping_native_vs_explicit():
    rows = []
    for groups in PARAMS["groups"]:
        relation = _grouping_relation(groups)
        world_count = PARAMS["options"] ** groups

        native_db = _wsd_session(relation)
        results = {label: native_db.execute(query)
                   for label, query in GROUPING_QUERIES}
        stats = native_db.backend.stats
        work = native_db.backend.aggregate_stats
        # The headline guarantee: the whole series is answered by the
        # native grouping / set-operation engines — no component-joint
        # enumeration, no counted fallback, no world materialisation — with
        # grouping work bounded by the local neighbourhood, not by the
        # options ** groups worlds.
        assert stats.grouping + stats.setops >= len(GROUPING_QUERIES)
        assert stats.component_joint == 0
        assert stats.group_fallbacks == 0
        assert stats.fallback == 0
        convolutions, peak_states = work.convolutions, work.peak_states
        assert convolutions <= len(GROUPING_QUERIES) * LOCAL_GROUPS, \
            f"{convolutions} convolutions at G{groups}"
        assert peak_states <= PARAMS["options"] ** LOCAL_GROUPS, \
            f"{peak_states} distribution states at G{groups}"

        if world_count <= PARAMS["explicit_limit"]:
            explicit_db = MayBMS({"Dirty": relation})
            explicit_db.execute(REPAIR_STATEMENT)
            for label, query in GROUPING_QUERIES:
                expected = _canonical(explicit_db.execute(query))
                assert _canonical(results[label]) == expected, \
                    f"{label} diverged from explicit at {groups} groups"
                # A warm repeat (plan and ground caches hit) answers the same.
                assert _canonical(native_db.execute(query)) == expected
            explicit_cell = "agrees"
        else:
            explicit_cell = "infeasible"

        rows.append((f"G{groups}", world_count, explicit_cell, convolutions,
                     peak_states))
    if not BENCH_SMOKE:
        # The largest point has 2^24 worlds, infeasible for the explicit
        # backend.
        assert rows[-1][1] == 2 ** 24
        assert rows[-1][2] == "infeasible"
    headers = ["point", "worlds", "explicit", "convolutions", "peak states"]
    print_table("BENCH_SCALE4: world-grouping / set-operation work",
                headers, rows)


def test_scale4_group_masses_are_probabilities():
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
    result = large_db.execute(query)
    assert _canonical(large_db.execute(query)) == _canonical(result)
    masses = [answer.probability for answer in result.world_answers]
    assert sum(masses) == pytest.approx(1.0)
    assert all(mass >= 0.0 for mass in masses)
    assert large_db.backend.stats.group_fallbacks == 0
