"""Unit tests for the physical operators (repro.relational.algebra)."""

from __future__ import annotations

import pytest

from repro.relational.algebra import (
    AggregateOp,
    AliasOp,
    CrossJoinOp,
    DistinctOp,
    ExceptOp,
    ExecutionEnv,
    FilterOp,
    HashJoinOp,
    IntersectOp,
    LimitOp,
    OutputColumn,
    ProjectOp,
    RelationSourceOp,
    ScanOp,
    SortKey,
    SortOp,
    ThetaJoinOp,
    UnionOp,
)
from repro.relational.catalog import Catalog
from repro.relational.expressions import (
    AggregateCall,
    BinaryOp,
    ColumnRef,
    Literal,
    Star,
)
from repro.relational.relation import Relation


@pytest.fixture
def env(figure1_catalog):
    return ExecutionEnv(catalog=figure1_catalog)


def col(name, index, qualifier=None):
    """A column reference bound (as the binder binds it) to position
    *index* of the operator's input row; R is (A, B, C, D), S is (C, E)."""
    return ColumnRef(name, qualifier, index=index)


class TestScanAndFilter:
    def test_scan_qualifies_columns_with_alias(self, env):
        relation = ScanOp("R", alias="r1").execute(env)
        assert relation.schema.qualified_names()[0] == "r1.A"
        assert len(relation) == 5

    def test_filter_keeps_matching_rows(self, env):
        plan = FilterOp(ScanOp("R"),
                        BinaryOp("=", col("A", 0), Literal("a3")))
        assert plan.execute(env).rows == [("a3", 20, "c5", 6)]

    def test_filter_drops_unknown(self, env):
        plan = FilterOp(ScanOp("S"),
                        BinaryOp("=", col("C", 0), Literal(None)))
        assert plan.execute(env).rows == []

    def test_relation_source(self, env):
        relation = Relation(["X"], [(1,)])
        assert RelationSourceOp(relation, alias="t").execute(env).schema \
            .qualified_names() == ["t.X"]


class TestProjection:
    def test_project_computed_column(self, env):
        plan = ProjectOp(ScanOp("R"), [
            OutputColumn(col("A", 0), "A"),
            OutputColumn(BinaryOp("*", col("B", 1), Literal(2)), "B2"),
        ])
        result = plan.execute(env)
        assert result.schema.names() == ["A", "B2"]
        assert result.rows[0] == ("a1", 20)

    def test_distinct(self, env):
        plan = DistinctOp(ProjectOp(ScanOp("S"),
                                    [OutputColumn(col("E", 1), "E")]))
        assert sorted(plan.execute(env).rows) == [("e1",), ("e2",)]


class TestJoins:
    def test_cross_join_cardinality(self, env):
        assert len(CrossJoinOp(ScanOp("R"), ScanOp("S")).execute(env)) == 15

    def test_theta_join(self, env):
        predicate = BinaryOp("=", col("C", 2, "R"), col("C", 4, "S"))
        result = ThetaJoinOp(ScanOp("R"), ScanOp("S"), predicate).execute(env)
        assert len(result) == 3  # c2-e1, c4-e1, c4-e2

    def test_hash_join_matches_theta_join(self, env):
        theta = ThetaJoinOp(ScanOp("R"), ScanOp("S"),
                            BinaryOp("=", col("C", 2, "R"),
                                     col("C", 4, "S"))).execute(env)
        hashed = HashJoinOp(ScanOp("R"), ScanOp("S"), [2], [0]).execute(env)
        assert hashed.bag_equal(theta)

    def test_hash_join_residual_predicate(self, env):
        # The planner filters the join with the remaining conjuncts.
        residual = BinaryOp("=", col("E", 5, "S"), Literal("e2"))
        result = FilterOp(HashJoinOp(ScanOp("R"), ScanOp("S"), [2], [0]),
                          residual).execute(env)
        assert len(result) == 1
        assert result.rows[0][-1] == "e2"

    def test_hash_join_numeric_key_normalisation(self):
        catalog = Catalog({
            "L": Relation(["K"], [(1,)], name="L"),
            "Rt": Relation(["K"], [(1.0,)], name="Rt"),
        })
        env = ExecutionEnv(catalog=catalog)
        result = HashJoinOp(ScanOp("L"), ScanOp("Rt"), [0], [0]).execute(env)
        assert len(result) == 1


class TestAggregation:
    def test_global_sum(self, env):
        plan = AggregateOp(ScanOp("R"), group_keys=[],
                           outputs=[OutputColumn(
                               AggregateCall("sum", col("B", 1)), "total")])
        assert plan.execute(env).rows == [(79,)]

    def test_group_by_with_count(self, env):
        plan = AggregateOp(ScanOp("R"),
                           group_keys=[col("A", 0)],
                           outputs=[
                               OutputColumn(col("A", 0), "A"),
                               OutputColumn(AggregateCall("count", None), "n"),
                           ])
        result = {row[0]: row[1] for row in plan.execute(env).rows}
        assert result == {"a1": 2, "a2": 2, "a3": 1}

    def test_having_filters_groups(self, env):
        plan = AggregateOp(ScanOp("R"),
                           group_keys=[col("A", 0)],
                           outputs=[OutputColumn(col("A", 0), "A")],
                           having=BinaryOp(">", AggregateCall("count", Star()),
                                           Literal(1)))
        assert sorted(plan.execute(env).rows) == [("a1",), ("a2",)]

    def test_aggregate_inside_arithmetic(self, env):
        expression = BinaryOp("/", AggregateCall("sum", col("D", 3)),
                              Literal(23))
        plan = AggregateOp(ScanOp("R"), group_keys=[],
                           outputs=[OutputColumn(expression, "share")])
        assert plan.execute(env).rows == [(1,)]

    def test_global_aggregate_over_empty_input_yields_one_row(self, env):
        empty = RelationSourceOp(Relation(["X"], []))
        plan = AggregateOp(empty, group_keys=[],
                           outputs=[OutputColumn(
                               AggregateCall("count", Star()), "n")])
        assert plan.execute(env).rows == [(0,)]


class TestSortLimitSetOps:
    def test_sort_descending(self, env):
        plan = SortOp(ProjectOp(ScanOp("R"), [OutputColumn(col("B", 1), "B")]),
                      [SortKey(col("B", 0), descending=True)])
        values = [row[0] for row in plan.execute(env).rows]
        assert values == sorted(values, reverse=True)

    def test_limit_offset(self, env):
        plan = LimitOp(ScanOp("R"), limit=2, offset=1)
        assert len(plan.execute(env)) == 2

    def test_union_intersect_except(self, env):
        c_from_r = ProjectOp(ScanOp("R"), [OutputColumn(col("C", 2), "C")])
        c_from_s = ProjectOp(ScanOp("S"), [OutputColumn(col("C", 0), "C")])
        union = UnionOp(c_from_r, c_from_s).execute(env)
        assert len(union) == 5  # c1..c5 distinct
        intersect = IntersectOp(c_from_r, c_from_s).execute(env)
        assert sorted(intersect.rows) == [("c2",), ("c4",)]
        difference = ExceptOp(c_from_r, c_from_s).execute(env)
        assert sorted(difference.rows) == [("c1",), ("c3",), ("c5",)]

    def test_alias_op(self, env):
        plan = AliasOp(ScanOp("R"), "renamed")
        assert plan.execute(env).schema.qualified_names()[0] == "renamed.A"

    def test_explain_renders_tree(self, env):
        plan = LimitOp(FilterOp(ScanOp("R"),
                                BinaryOp("=", col("A", 0), Literal("a1"))),
                       limit=1)
        text = plan.explain()
        assert "Limit" in text and "Filter" in text and "Scan(R)" in text
