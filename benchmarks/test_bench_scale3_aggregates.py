"""BENCH_SCALE3 — decomposed aggregates: convolution vs. explicit.

SCALE-1/2 made selection and confidence scale with the representation; this
series does the same for the last exponential query class: **aggregates**.
A repair-key decomposition with ``2^24`` worlds is swept through a
SUM / COUNT / AVG / MIN / MAX series (``possible`` / ``conf`` / subquery
decorated), answered by two engines:

* **explicit** — materialise every world (only at the smallest point);
* **convolution** — the decomposed aggregate engine
  (:mod:`repro.wsd.aggregate`): per-cluster local distributions combined by
  sparse convolution, pseudo-polynomial in the distinct partial sums.

Both engines must agree exactly wherever the explicit backend can answer,
the convolution engine must never fall back to joint enumeration
(``stats.aggregate_fallbacks == 0``), and its work must stay polynomial in
the sweep parameters up to the largest (2^24-world) point: at most one
convolution per key group per query, and no distribution larger than the
number of distinct partial sums ``(payload_domain - 1) * groups + 1``.
"""

from __future__ import annotations

import random

from repro import MayBMS
from repro.relational.relation import Relation
from repro.relational.schema import Column, Schema
from repro.relational.types import SqlType

from conftest import BENCH_SMOKE, print_table, scale3_aggregate_parameters

PARAMS = scale3_aggregate_parameters()

REPAIR_STATEMENT = ("create table I as "
                    "select K, B from Dirty repair by key K weight W;")

#: The aggregate series: every query class the acceptance bar names.
AGGREGATE_QUERIES = [
    ("possible sum", "select possible sum(B) from I;"),
    ("conf count", "select conf, count(*) from I where B > 4;"),
    ("possible avg", "select possible avg(B) from I;"),
    ("conf min", "select conf, min(B) from I;"),
    ("possible max", "select possible max(B) from I;"),
    ("conf subquery sum",
     "select conf from I where 80 > (select sum(B) from I);"),
]


def _aggregate_relation(groups: int) -> Relation:
    """A dirty relation whose payload lives in a small domain, so the number
    of distinct partial sums — the convolution's state count — stays
    pseudo-polynomial while the world count explodes."""
    rng = random.Random(7)
    rows = []
    for key in range(groups):
        for _ in range(PARAMS["options"]):
            rows.append((key, rng.randrange(PARAMS["payload_domain"]),
                         rng.randint(1, 5)))
    schema = Schema([Column("K", SqlType.INTEGER),
                     Column("B", SqlType.INTEGER),
                     Column("W", SqlType.INTEGER)])
    return Relation(schema, rows, name="Dirty")


def _wsd_session(relation: Relation) -> MayBMS:
    db = MayBMS({"Dirty": relation}, backend="wsd")
    db.execute(REPAIR_STATEMENT)
    return db


def _canonical(result):
    return sorted(
        (tuple(round(value, 9) if isinstance(value, float) else value
               for value in row)
         for row in result.rows()),
        key=repr)


def test_scale3_aggregates_convolution_vs_explicit():
    rows = []
    for groups in PARAMS["groups"]:
        relation = _aggregate_relation(groups)
        world_count = PARAMS["options"] ** groups

        convolution_db = _wsd_session(relation)
        answers = {label: _canonical(convolution_db.execute(query))
                   for label, query in AGGREGATE_QUERIES}
        assert all(answer for answer in answers.values())
        stats = convolution_db.backend.stats
        work = convolution_db.backend.aggregate_stats
        # The headline guarantee: the whole series is answered by the
        # convolution engine — no component-joint enumeration, no counted
        # fallback, no world materialisation — with work polynomial in the
        # sweep parameters while the world count is options ** groups.
        assert stats.aggregate >= len(AGGREGATE_QUERIES)
        assert stats.component_joint == 0
        assert stats.aggregate_fallbacks == 0
        assert stats.fallback == 0
        convolutions, peak_states = work.convolutions, work.peak_states
        assert convolutions <= len(AGGREGATE_QUERIES) * groups, \
            f"{convolutions} convolutions at G{groups}"
        assert peak_states <= (PARAMS["payload_domain"] - 1) * groups + 1, \
            f"{peak_states} distribution states at G{groups}"
        # A warm repeat of the series answers the same.
        assert {label: _canonical(convolution_db.execute(query))
                for label, query in AGGREGATE_QUERIES} == answers

        if world_count <= PARAMS["explicit_limit"]:
            explicit_db = MayBMS({"Dirty": relation})
            explicit_db.execute(REPAIR_STATEMENT)
            for label, query in AGGREGATE_QUERIES:
                assert _canonical(explicit_db.execute(query)) == \
                    answers[label], \
                    f"{label} diverged from explicit at {groups} groups"
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
    print_table("BENCH_SCALE3: decomposed aggregate work", headers, rows)


def test_scale3_group_by_aggregates_stay_on_the_representation():
    """GROUP BY aggregates (one answer row per key group) also stay on the
    decomposition: per-group distributions come out of the same convolution
    pass, with per-row confidences matching the explicit backend at a small
    point."""
    small = _aggregate_relation(PARAMS["groups"][0])
    query = ("select conf, K, sum(B) from I where B > 2 group by K "
             "having count(*) >= 1;")

    explicit_db = MayBMS({"Dirty": small})
    explicit_db.execute(REPAIR_STATEMENT)
    expected = _canonical(explicit_db.execute(query))

    small_db = _wsd_session(small)
    assert _canonical(small_db.execute(query)) == expected
    assert small_db.backend.stats.component_joint == 0

    large = _aggregate_relation(PARAMS["groups"][-1])
    large_db = _wsd_session(large)
    result = large_db.execute(query)
    assert _canonical(large_db.execute(query)) == _canonical(result)
    # One row per (group, possible sum) pair; per-group confidences are
    # probabilities.
    assert len(result.rows()) >= 1
    per_group: dict = {}
    for row in result.rows():
        per_group[row[0]] = per_group.get(row[0], 0.0) + row[-1]
    assert all(mass <= 1.0 + 1e-9 for mass in per_group.values())
    assert large_db.backend.stats.component_joint == 0
    assert large_db.backend.stats.aggregate_fallbacks == 0
    print_table("BENCH_SCALE3: per-group conf sum (first rows)",
                ["K", "sum", "conf"],
                [tuple(row) for row in result.rows()[:4]])
