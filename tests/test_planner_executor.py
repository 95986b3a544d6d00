"""Unit tests for the planner and executor internals of the I-SQL engine."""

from __future__ import annotations

from unittest import mock

import pytest

from repro.core.binder import Binder
from repro.core.executor import Executor
from repro.core.planner import Planner, ResolvedFrom
from repro.errors import PlanningError, UnknownRelationError
from repro.relational.algebra import (
    AggregateOp,
    DistinctOp,
    FilterOp,
    HashJoinOp,
    LimitOp,
    ProjectOp,
    ScanOp,
    SortOp,
)
from repro.sqlparser import parse_query
from repro.worldset import WorldSet


def bound(query, catalog, source=None):
    """*query* bound against *catalog* (every name read as *source*, when
    given), as the backends bind before planning."""
    Binder(lambda name: catalog.get(source or name).schema, {}) \
        .bind_query(query)
    return query


class BindingPlanner:
    """A planner that binds each query against a catalog first."""

    def __init__(self, catalog):
        self.catalog = catalog

    def plan_select(self, query, resolved_from=None):
        return Planner().plan_select(bound(query, self.catalog),
                                     resolved_from)


@pytest.fixture
def planner(figure1_catalog):
    return BindingPlanner(figure1_catalog)


def unwrap(plan, *types):
    """Walk down single-child wrappers and return the first node of a type."""
    node = plan
    while node is not None:
        if isinstance(node, types):
            return node
        children = node.children()
        node = children[0] if children else None
    raise AssertionError(f"no node of type {types} in plan")


class TestPlannerShapes:
    def test_simple_select_plans_project_over_filter_over_scan(self, planner):
        plan = planner.plan_select(parse_query("select A from R where B > 10"))
        assert isinstance(plan, ProjectOp)
        assert isinstance(plan.child, FilterOp)
        assert isinstance(plan.child.child, ScanOp)

    def test_equi_join_uses_hash_join(self, planner):
        plan = planner.plan_select(parse_query(
            "select r.A, s.E from R r, S s where r.C = s.C"))
        join = unwrap(plan, HashJoinOp)
        assert isinstance(join, HashJoinOp)

    def test_equi_join_with_extra_conjunct_filters_the_join(self, planner):
        plan = planner.plan_select(parse_query(
            "select r.A from R r, S s where r.C = s.C and s.E = 'e1'"))
        assert isinstance(unwrap(plan, FilterOp).child, HashJoinOp)

    def test_non_equi_predicate_falls_back_to_filter(self, planner):
        plan = planner.plan_select(parse_query(
            "select r.A from R r, S s where r.B > 10"))
        assert unwrap(plan, FilterOp)
        with pytest.raises(AssertionError):
            unwrap(plan, HashJoinOp)

    def test_aggregate_query_plans_aggregate_op(self, planner):
        plan = planner.plan_select(parse_query(
            "select A, sum(B) from R group by A having count(*) > 1"))
        aggregate = unwrap(plan, AggregateOp)
        assert len(aggregate.group_keys) == 1
        assert aggregate.having is not None

    def test_distinct_order_limit_wrappers(self, planner):
        plan = planner.plan_select(parse_query(
            "select distinct A from R order by A desc limit 2 offset 1"))
        assert isinstance(plan, LimitOp)
        assert isinstance(plan.child, SortOp)
        assert isinstance(plan.child.child, DistinctOp)
        assert plan.limit == 2 and plan.offset == 1

    def test_select_without_from(self, planner, figure1_catalog):
        from repro.relational.algebra import ExecutionEnv

        plan = planner.plan_select(parse_query("select 1 + 1 as two"))
        result = plan.execute(ExecutionEnv(catalog=figure1_catalog))
        assert result.rows == [(2,)]

    def test_star_over_unknown_qualifier_fails(self, planner):
        with pytest.raises(PlanningError):
            planner.plan_select(parse_query("select z.* from R r"))

    def test_duplicate_output_names_are_disambiguated(self, planner):
        plan = planner.plan_select(parse_query("select * from R r1, R r2"))
        names = [output.name for output in unwrap(plan, ProjectOp).outputs]
        assert len(names) == len(set(name.lower() for name in names))
        assert "r2.A" in names

    def test_output_name_defaults(self, planner):
        plan = planner.plan_select(parse_query("select A, sum(B), B * 2 from R"))
        aggregate = unwrap(plan, AggregateOp)
        assert [o.name for o in aggregate.outputs] == ["A", "sum", "col3"]

    def test_decorated_table_ref_must_be_resolved_first(self, planner):
        with pytest.raises(PlanningError):
            planner.plan_select(parse_query("select * from R repair by key A"))

    def test_resolved_from_overrides_table_lookup(self, figure1_catalog):
        query = bound(parse_query("select I.C from I"), figure1_catalog, "S")
        plan = Planner().plan_select(query,
                                     resolved_from=[ResolvedFrom("S", "I")])
        scan = unwrap(plan, ScanOp)
        assert scan.table_name == "S" and scan.alias == "I"


class TestExecutorInternals:
    def test_evaluate_plain_in_world(self, figure1_catalog):
        executor = Executor()
        world_set = WorldSet.single(figure1_catalog)
        relation = executor.evaluate_plain_in_world(
            bound(parse_query("select E from S where C = 'c4'"),
                  figure1_catalog),
            world_set.worlds[0])
        assert sorted(relation.rows) == [("e1",), ("e2",)]

    def test_unknown_relation_raises(self, figure1_catalog):
        executor = Executor()
        world_set = WorldSet.single(figure1_catalog)
        with pytest.raises(UnknownRelationError):
            executor.evaluate_query(
                bound(parse_query("select * from Missing"), figure1_catalog),
                world_set)

    def test_one_plan_per_query_block_not_per_world_or_row(self, db_figure2):
        """Names resolve once, before execution, so the explicit backend
        plans the main block and its correlated subquery once each, however
        many worlds (4) and outer rows the statement visits."""
        assert db_figure2.world_count() == 4
        with mock.patch.object(Planner, "plan_select",
                               autospec=True,
                               side_effect=Planner.plan_select) as planned:
            result = db_figure2.execute(
                "select possible A from I where exists "
                "(select * from S where S.C = I.C);")
        assert planned.call_count == 2
        assert sorted(result.rows()) == [("a1",), ("a2",)]

    def test_transient_names_are_unique(self):
        executor = Executor()
        first = executor._new_transient_name()
        second = executor._new_transient_name()
        assert first != second and first.startswith("#tmp")

    def test_view_with_choice_decoration(self, db_figure1):
        """A view reference can itself carry choice-of / repair decorations."""
        db_figure1.execute("create view SV as select * from S;")
        result = db_figure1.execute("select certain E from SV choice of C;")
        assert result.rows() == [("e1",)]

    def test_derived_table_in_from(self, db_figure1):
        result = db_figure1.execute(
            "select big.A from (select A, B from R where B >= 20) as big;")
        rows = result.world_answers[0].relation.rows
        assert sorted(rows) == [("a2",), ("a3",)]

    def test_correlated_exists_subquery(self, db_figure1):
        result = db_figure1.execute(
            "select A, C from R where exists "
            "(select * from S where S.C = R.C);")
        rows = sorted(result.world_answers[0].relation.rows)
        assert rows == [("a1", "c2"), ("a2", "c4")]

    def test_in_subquery_through_engine(self, db_figure1):
        result = db_figure1.execute(
            "select A from R where C in (select C from S);")
        assert sorted(result.world_answers[0].relation.rows) == [("a1",), ("a2",)]

    def test_quantified_comparison_through_engine(self, db_figure1):
        result = db_figure1.execute(
            "select A, B from R where B >= all (select B from R);")
        assert sorted(result.world_answers[0].relation.rows) == [
            ("a2", 20), ("a3", 20)]

    def test_scalar_subquery_in_select_list(self, db_figure1):
        result = db_figure1.execute(
            "select A, (select count(*) from S) as s_count from R where A = 'a3';")
        assert result.world_answers[0].relation.rows == [("a3", 3)]

    def test_order_by_and_limit_through_engine(self, db_figure2):
        result = db_figure2.execute("select B from I order by B desc limit 2;")
        for answer in result.world_answers:
            values = [row[0] for row in answer.relation.rows]
            assert values == sorted(values, reverse=True)
            assert len(values) == 2

    def test_group_by_having_through_engine(self, db_figure1):
        result = db_figure1.execute(
            "select A, count(*) as n from R group by A having count(*) > 1;")
        rows = sorted(result.world_answers[0].relation.rows)
        assert rows == [("a1", 2), ("a2", 2)]

    def test_case_between_like_through_engine(self, db_figure1):
        result = db_figure1.execute(
            "select A, case when B between 10 and 15 then 'low' else 'high' end "
            "from R where C like 'c%';")
        rows = dict(result.world_answers[0].relation.rows)
        assert rows["a3"] == "high"

    def test_possible_inside_compound_is_rejected_with_clear_error(self, db_figure1):
        # possible/certain attach to a single SELECT block in I-SQL; using them
        # inside a UNION branch is rejected with a clear UnsupportedFeatureError
        # rather than silently computing something else.
        from repro.errors import UnsupportedFeatureError

        with pytest.raises(UnsupportedFeatureError):
            db_figure1.execute(
                "select possible C from R choice of A union select C from S;")


class TestSharedPlanEdgeCases:
    def test_empty_world_set_returns_empty_answers_star_and_starless(self):
        """The shared-plan path must not index worlds[0] on an empty
        world-set: star and star-free selects both return empty answers."""
        from repro import MayBMS
        from repro.worldset.worldset import WorldSet

        db = MayBMS()
        db.create_table("R", ["A"], [(1,)])
        db.world_set = WorldSet([])
        for sql in ("select A from R;", "select * from R;"):
            result = db.execute(sql)
            assert result.is_world_rows()
            assert result.world_answers == []
