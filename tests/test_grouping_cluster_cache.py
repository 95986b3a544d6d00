"""Regression: symbolic grouping mains must not re-convolve all clusters.

``select possible/certain ... group worlds by (...)`` with a symbolic main
used to run one **full** convolution of every grouping cluster per distinct
uncertain main row (``R + 1`` full runs).  The fix caches the per-cluster
local distributions once and re-convolves, per row, only the clusters the
row's presence conditions touch (leave-one-out prefix/suffix products for
everything else).  These tests pin the convolution counters to the linear
regime — if a refactor reintroduces the R-fold blowup, the counter
assertions fail — and re-verify exactness against the explicit backend.
"""

from __future__ import annotations

import pytest

from repro import MayBMS
from repro.relational.relation import Relation
from repro.relational.schema import Column, Schema
from repro.relational.types import SqlType

from test_differential_fuzz import assert_statement_parity

GROUPING_QUERY = ("select possible B from I "
                  "group worlds by (select sum(B) from I);")


def build_session(groups: int, options: int = 2,
                  backend: str = "wsd") -> MayBMS:
    rows = []
    for key in range(groups):
        for option in range(options):
            rows.append((key, key * 10 + option, 1 + option))
    schema = Schema([Column("K", SqlType.INTEGER),
                     Column("B", SqlType.INTEGER),
                     Column("W", SqlType.INTEGER)])
    db = MayBMS({"Dirty": Relation(schema, rows, name="Dirty")},
                backend=backend)
    db.execute("create table I as "
               "select K, B from Dirty repair by key K weight W;")
    return db


def grouping_counters(db: MayBMS, sql: str) -> tuple[int, int]:
    """``(cluster enumerations, convolutions)`` charged by executing *sql*."""
    stats = db.backend.aggregate_stats
    clusters, convolutions = stats.clusters, stats.convolutions
    db.execute(sql)
    return stats.clusters - clusters, stats.convolutions - convolutions


class TestGroupingConvolutionCounts:
    @pytest.mark.parametrize("groups", [4, 8, 12])
    def test_cluster_enumerations_stay_linear(self, groups):
        """One local enumeration per grouping cluster plus one per distinct
        uncertain main row — never ``(R + 1) * clusters``."""
        db = build_session(groups)
        rows = groups * 2          # distinct uncertain main rows
        clusters, convolutions = grouping_counters(db, GROUPING_QUERY)
        # The old behaviour charged (rows + 1) full runs of `groups`
        # clusters each; the fixed path charges the grouping clusters once
        # plus one single-cluster joint per row.
        assert clusters == groups + rows
        assert clusters < (rows + 1) * groups
        # Convolutions: (groups - 1) for the full joint, (groups - 1) for
        # the lazy suffix products, and at most one leave-one-out merge per
        # distinct touched cluster — linear, not R * groups.
        assert convolutions <= 3 * groups
        assert convolutions < (rows + 1) * max(groups - 1, 1)

    def test_counts_scale_with_rows_not_rows_times_clusters(self):
        small = build_session(4)
        large = build_session(8)
        small_clusters, _ = grouping_counters(small, GROUPING_QUERY)
        large_clusters, _ = grouping_counters(large, GROUPING_QUERY)
        # Doubling the key groups doubles rows and clusters: the charge must
        # grow linearly (x2), not quadratically (x4).
        assert large_clusters == pytest.approx(2 * small_clusters, abs=2)

    @pytest.mark.parametrize("quantifier", ["possible", "certain"])
    @pytest.mark.parametrize("subquery", [
        "select sum(B) from I",
        "select count(*) from I where B > 21",
        "select max(B) from I where K < 3",
    ])
    def test_cached_cluster_path_matches_explicit_backend(self, quantifier,
                                                          subquery):
        sql = (f"select {quantifier} B from I where K < 4 "
               f"group worlds by ({subquery});")
        native = build_session(5)
        actual = native.execute(sql)
        assert native.backend.stats.grouping == 1
        assert native.backend.stats.group_fallbacks == 0
        expected = build_session(5, backend="explicit").execute(sql)
        assert_statement_parity(sql, expected, actual)
