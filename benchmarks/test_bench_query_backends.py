"""SCALE-2 — query answering: explicit enumeration vs. the WSD backend.

Tuple-confidence queries (the ``conf`` operation) are answered two ways:

* the explicit backend materialises every repair and sums world probabilities;
* the WSD backend computes the same confidence from the decomposition,
  touching only the component of the queried tuple.

Both must return identical numbers on the points where enumeration is
feasible; the WSD backend must additionally handle points where enumeration is
not feasible at all.
"""

from __future__ import annotations

import pytest

from repro import MayBMS
from repro.workloads import dirty_key_relation
from repro.worldset import WorldSet, repair_by_key

from conftest import print_table, row_confidences, scale2_specs

FEASIBLE_SPEC, LARGE_SPEC = scale2_specs()


def explicit_confidences(relation, rows):
    explicit = repair_by_key(WorldSet.single({"Dirty": relation}), "Dirty",
                             ["K"], weight="W", target_name="I")
    confidences = []
    for row in rows:
        confidences.append(sum(
            world.probability for world in explicit
            if row in set(world.relation("I").rows)))
    return confidences


def wsd_session(relation):
    """A wsd session holding the weighted key repair I of *relation*."""
    db = MayBMS({"Dirty": relation}, backend="wsd")
    db.execute("create table I as select * from Dirty "
               "repair by key K weight W;")
    return db


def wsd_confidences(db, rows):
    confidences = row_confidences(db, "I", rows)
    # Every confidence is read off the decomposition: no joint enumeration.
    assert db.backend.stats.component_joint == 0
    assert db.backend.confidence_stats.enumeration_fallbacks == 0
    return confidences


def test_scale2_explicit_backend_small_point():
    relation = dirty_key_relation(FEASIBLE_SPEC)
    probe_rows = relation.rows[:8]
    confidences = explicit_confidences(relation, probe_rows)
    assert all(0 < value <= 1 for value in confidences)
    print_table("SCALE-2: explicit backend (256 worlds), first tuple confidences",
                ["tuple", "conf"],
                [(str(row), round(value, 4))
                 for row, value in zip(probe_rows, confidences)])


def test_scale2_wsd_backend_small_point_matches_explicit():
    relation = dirty_key_relation(FEASIBLE_SPEC)
    probe_rows = relation.rows[:8]
    expected = explicit_confidences(relation, probe_rows)
    measured = wsd_confidences(wsd_session(relation), probe_rows)
    for have, want in zip(measured, expected):
        assert have == pytest.approx(want)
    print_table("SCALE-2: WSD backend agrees with explicit enumeration",
                ["tuple", "conf (WSD)", "conf (explicit)"],
                [(str(row), round(have, 4), round(want, 4))
                 for row, have, want in zip(probe_rows, measured, expected)])


def test_scale2_wsd_backend_handles_infeasible_point():
    """4^60 worlds: enumeration is impossible, the WSD answers from the
    decomposition."""
    relation = dirty_key_relation(LARGE_SPEC)
    probe_rows = relation.rows[:8]
    db = wsd_session(relation)
    measured = wsd_confidences(db, probe_rows)
    assert all(0 < value <= 1 for value in measured)
    wsd = db.decomposition
    print_table("SCALE-2: WSD backend on 4^60 worlds",
                ["log10(worlds)", "WSD cells", "max conf queried"],
                [(round(wsd.log10_world_count(), 1), wsd.storage_size(),
                  round(max(measured), 4))])
