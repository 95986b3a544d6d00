"""BENCH_SCALE2 — correlated ``conf``: d-tree vs. explicit.

SCALE-1 showed that ``conf`` over *independent* components is linear on the
decomposition.  This series measures the query class that is **not** covered
by the single-atom closed form: a self-join over a key-repaired relation
whose join conditions correlate neighbouring key groups, producing a
disjunction of *multi-atom* conjunctions over a chain of components.

Two engines answer the same query:

* **explicit** — one answer per world (only at the small points);
* **d-tree** — the exact decomposition-tree engine
  (:mod:`repro.wsd.confidence`): polynomial on this (hierarchical) DNF.

Both engines must agree exactly (1e-9) wherever the explicit backend can
answer at all, the d-tree path must never fall back to joint enumeration on
this workload (``confidence_stats.enumeration_fallbacks == 0``), its rule
applications (independence partitions + exclusive sums + Shannon
expansions) must stay within the number of key groups while the world count
doubles per group, and at the largest point the d-tree must answer a query
the explicit backend cannot materialise.
"""

from __future__ import annotations

import pytest

from repro import MayBMS
from repro.relational.relation import Relation
from repro.relational.schema import Column, Schema
from repro.relational.types import SqlType
from repro.workloads import DirtyRelationSpec, dirty_key_relation

from conftest import BENCH_SMOKE, print_table, scale2_correlated_parameters

PARAMS = scale2_correlated_parameters()

REPAIR_STATEMENT = ("create table I as "
                    "select K, P1, P2 from Dirty repair by key K weight W;")

#: The correlated workload: I joined with itself along a link table pairing
#: neighbouring key groups.  Every surviving join row carries a two-atom
#: condition (one atom per key-group component), and the ``conf`` aggregates
#: a disjunction chaining *all* groups together.
CONF_QUERY = ("select conf from I i1, L, I i2 "
              "where i1.K = L.A and i2.K = L.B and i1.P1 > i2.P1 + 8000;")


def _build_inputs(groups: int):
    relation = dirty_key_relation(
        DirtyRelationSpec(groups=groups, options=PARAMS["options"], seed=3))
    link = Relation(Schema([Column("A", SqlType.INTEGER),
                            Column("B", SqlType.INTEGER)]),
                    [(k, k + 1) for k in range(groups - 1)], name="L")
    return relation, link


def _wsd_session(relation, link):
    db = MayBMS({"Dirty": relation, "L": link}, backend="wsd")
    db.execute(REPAIR_STATEMENT)
    return db


def test_scale2_correlated_conf_dtree_vs_explicit():
    rows = []
    for groups in PARAMS["groups"]:
        relation, link = _build_inputs(groups)
        world_count = PARAMS["options"] ** groups

        dtree_db = _wsd_session(relation, link)
        dtree_conf = dtree_db.execute(CONF_QUERY).rows()[0][0]
        assert 0.0 <= dtree_conf <= 1.0 + 1e-9
        stats = dtree_db.backend.confidence_stats
        work = (stats.independence_partitions + stats.exclusive_sums
                + stats.shannon_expansions)
        # The headline guarantee: this query class is answered by one d-tree
        # evaluation whose rule applications grow with the chain of
        # components, not with the options ** groups worlds — never by
        # falling back to joint enumeration, never by materialising worlds.
        assert stats.dtree == 1
        assert work <= groups, f"{work} d-tree rule applications at G{groups}"
        assert stats.enumeration_fallbacks == 0
        assert dtree_db.backend.stats.fallback == 0
        # A warm repeat (plan and ground caches hit) answers the same.
        assert dtree_db.execute(CONF_QUERY).rows()[0][0] == dtree_conf

        if world_count <= PARAMS["explicit_limit"]:
            explicit_db = MayBMS({"Dirty": relation, "L": link})
            explicit_db.execute(REPAIR_STATEMENT)
            assert explicit_db.execute(CONF_QUERY).rows()[0][0] == \
                pytest.approx(dtree_conf, abs=1e-9)
            explicit_cell = "agrees"
        else:
            explicit_cell = "infeasible"

        rows.append((f"G{groups}", world_count, explicit_cell, work,
                     round(dtree_conf, 6)))
    if not BENCH_SMOKE:
        # The largest point is infeasible for the explicit backend.
        assert rows[-1][2] == "infeasible"
    headers = ["point", "worlds", "explicit", "d-tree steps", "conf"]
    print_table("BENCH_SCALE2: correlated conf, d-tree work", headers, rows)


def test_scale2_correlated_per_row_conf_parity():
    """Per-row confidences (multi-atom disjunction per answer row) agree with
    the explicit backend at a small point and stay d-tree-only at a large one."""
    groups = PARAMS["groups"][0]
    relation, link = _build_inputs(groups)
    query = ("select conf, i1.K from I i1, L, I i2 "
             "where i1.K = L.A and i2.K = L.B and i1.P1 > i2.P1;")

    def canonical(result):
        return sorted(tuple(round(value, 9) if isinstance(value, float)
                            else value for value in row)
                      for row in result.rows())

    explicit_db = MayBMS({"Dirty": relation, "L": link})
    explicit_db.execute(REPAIR_STATEMENT)
    expected = canonical(explicit_db.execute(query))

    dtree_db = _wsd_session(relation, link)
    assert canonical(dtree_db.execute(query)) == expected

    large_relation, large_link = _build_inputs(PARAMS["groups"][-1])
    large_db = _wsd_session(large_relation, large_link)
    result = large_db.execute(query)
    assert len(result.rows()) > 0
    assert large_db.execute(query).rows() == result.rows()
    assert large_db.backend.confidence_stats.enumeration_fallbacks == 0
    assert large_db.backend.stats.fallback == 0
    print_table("BENCH_SCALE2: per-row correlated conf (first rows)",
                ["K", "conf"],
                [tuple(row) for row in result.rows()[:4]])
