"""SCALE-1 — explicit world-sets vs. world-set decompositions.

This regenerates the scalability argument the demo paper leans on (and its
companion papers quantify): the number of repairs of a dirty relation grows
exponentially with the number of violated key groups, so enumerating worlds
explodes, while the world-set decomposition stays linear in the input size.

Two series are printed:

* **storage** — one row per sweep point: world count, explicit representation
  size (total stored tuples across worlds — only for the points small enough
  to enumerate) and WSD storage size.  Expected shape: explicit size doubles
  (or quadruples) per added group, WSD size grows by a constant.
* **query latency** — the processing counterpart: ``conf`` / ``possible``
  queries answered by the WSD-native backend (``MayBMS(backend="wsd")``)
  at every sweep point, including the points where explicit enumeration is
  infeasible, next to the explicit backend's latency where it exists at all.
"""

from __future__ import annotations

import time

import pytest

from repro import MayBMS
from repro.workloads import dirty_key_relation, scalability_sweep
from repro.worldset import WorldSet, repair_by_key
from repro.wsd import from_key_repair

from conftest import BENCH_SMOKE, print_table, scalability_sweep_parameters

SWEEP = scalability_sweep(**scalability_sweep_parameters())


def build_all_wsds():
    results = []
    for point in SWEEP:
        relation = dirty_key_relation(point.spec)
        wsd = from_key_repair(relation, ["K"], weight="W", target_name="I")
        results.append((point, relation, wsd))
    return results


def test_scale1_wsd_storage_stays_linear():
    rows = []
    for point, relation, wsd in build_all_wsds():
        explicit_size = None
        if point.explicit_feasible:
            explicit = repair_by_key(WorldSet.single({"Dirty": relation}),
                                     "Dirty", ["K"], weight="W", target_name="I")
            assert len(explicit) == point.world_count
            explicit_size = sum(len(world.relation("I")) for world in explicit)
        assert wsd.world_count() == point.world_count
        # The WSD must stay linear in the input: never more cells than a small
        # multiple of the input relation's cell count.
        input_cells = len(relation) * len(relation.schema)
        assert wsd.storage_size() <= 2 * input_cells
        rows.append((point.label, point.world_count,
                     explicit_size if explicit_size is not None else "infeasible",
                     wsd.storage_size()))
    # Shape check: explicit blows up, WSD stays flat.  Compare the largest
    # enumerable point with the WSD at the largest point of the same option
    # count.
    enumerable = [row for row in rows if row[2] != "infeasible"]
    assert enumerable, "at least one point must be enumerable"
    if not BENCH_SMOKE:
        # The exponential blow-up needs a few doublings to dominate; the
        # tiny smoke sweep stops before that.
        largest_explicit = max(row[2] for row in enumerable)
        largest_wsd = max(row[3] for row in rows)
        assert largest_explicit > largest_wsd, (
            "explicit representation must dominate WSD storage on the sweep")
    print_table("SCALE-1: worlds vs. representation size",
                ["point", "worlds", "explicit tuples", "WSD cells"], rows)


def test_scale1_wsd_construction_scales_with_input_not_worlds():
    """The WSD for 4^12 worlds is built from the input, not from the worlds."""
    big = SWEEP.points[-1]
    relation = dirty_key_relation(big.spec)
    wsd = from_key_repair(relation, ["K"], weight="W", target_name="I")
    assert wsd.world_count() == big.world_count
    if not BENCH_SMOKE:
        assert wsd.world_count() >= 4 ** 12
    print_table("SCALE-1: largest point built compactly",
                ["point", "worlds", "WSD cells", "log10(worlds)"],
                [(big.label, wsd.world_count(), wsd.storage_size(),
                  round(wsd.log10_world_count(), 2))])


# -- query latency: processing on the decomposition vs. per world -------------------------

REPAIR_STATEMENT = ("create table I as "
                    "select K, P1, P2 from Dirty repair by key K weight W;")
CONF_QUERY = "select conf, K, P1 from I where K = 0;"
POSSIBLE_QUERY = "select possible P1 from I where K < 2;"


def _timed(callable_):
    start = time.perf_counter()
    result = callable_()
    return result, (time.perf_counter() - start) * 1000.0


def test_scale1_query_latency_wsd_native_vs_explicit():
    """WSD-native conf/possible answers at every point; explicit only where
    enumeration is feasible — and both agree where both exist."""
    rows = []
    infeasible_points_measured = 0
    for point in SWEEP:
        relation = dirty_key_relation(point.spec)
        wsd_db = MayBMS({"Dirty": relation}, backend="wsd")
        wsd_db.execute(REPAIR_STATEMENT)
        wsd_conf, wsd_conf_ms = _timed(lambda: wsd_db.execute(CONF_QUERY))
        _, wsd_possible_ms = _timed(lambda: wsd_db.execute(POSSIBLE_QUERY))
        # The scalable query classes must be answered on the decomposition:
        # no fallback, no component-joint enumeration.
        assert wsd_db.backend.stats.fallback == 0
        assert wsd_db.backend.stats.component_joint == 0
        assert sum(row[-1] for row in wsd_conf.rows()) == pytest.approx(1.0)
        # A warm repeat (plan and ground caches hit) answers the same.
        assert wsd_db.execute(CONF_QUERY).rows() == wsd_conf.rows()
        explicit_conf_ms = "infeasible"
        if point.explicit_feasible:
            explicit_db = MayBMS({"Dirty": relation})
            explicit_db.execute(REPAIR_STATEMENT)
            explicit_conf, elapsed = _timed(
                lambda: explicit_db.execute(CONF_QUERY))
            explicit_conf_ms = round(elapsed, 2)

            def rounded(rows):
                return sorted(tuple(round(v, 9) if isinstance(v, float) else v
                                    for v in row) for row in rows)

            assert rounded(explicit_conf.rows()) == rounded(wsd_conf.rows())
        else:
            infeasible_points_measured += 1
        rows.append((point.label, point.world_count,
                     explicit_conf_ms, round(wsd_conf_ms, 2),
                     round(wsd_possible_ms, 2)))
    assert infeasible_points_measured > 0, (
        "the sweep must include points the explicit backend cannot reach")
    print_table("SCALE-1: query latency, explicit vs. WSD-native (ms)",
                ["point", "worlds", "explicit conf", "WSD conf",
                 "WSD possible"], rows)
