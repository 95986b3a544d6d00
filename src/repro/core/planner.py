"""Compile the per-world part of a bound query into a physical operator tree.

The planner handles everything a *single* possible world sees: FROM items
(already resolved to catalog relation names by the executor), WHERE, GROUP BY
/ HAVING, the select list and aggregates, DISTINCT, ORDER BY and LIMIT.  The
world-level clauses of I-SQL — ``repair by key``, ``choice of``, ``assert``,
``possible`` / ``certain`` / ``conf`` and ``group worlds by`` — are *not*
the planner's business; the executor deals with them before and after
running the per-world plan.

Every world shares one schema, so the binder (:mod:`repro.core.binder`) has
already resolved names, expanded ``*`` and mapped ORDER BY to output
positions before planning.  A plan therefore depends only on the bound
query: the executor builds it once per query block per statement and runs
it in every world (operators are stateless — each ``execute`` reads only
its env).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..errors import PlanningError
from ..relational.algebra import (
    AggregateOp,
    CrossJoinOp,
    DistinctOp,
    ExceptOp,
    FilterOp,
    HashJoinOp,
    IntersectOp,
    LimitOp,
    Operator,
    OutputColumn,
    ProjectOp,
    RelationSourceOp,
    ScanOp,
    SortKey,
    SortOp,
    UnionOp,
)
from ..relational.relation import Relation
from ..relational.schema import Schema
from ..relational.expressions import (
    BinaryOp,
    ColumnRef,
    Expression,
    conjuncts,
    contains_aggregate,
    contains_subquery,
    expression_columns,
)
from ..sqlparser.ast_nodes import (
    CompoundQuery,
    NamedTableRef,
    Query,
    SelectQuery,
)

__all__ = ["Planner", "ResolvedFrom", "filter_ready", "split_equi_keys"]


@dataclass
class ResolvedFrom:
    """A FROM item after the executor resolved it to a concrete source.

    ``relation_name`` points into the world's catalog (a base table or a
    transient relation the executor materialised for views, derived tables
    and decorated references); ``alias`` is the qualifier under which its
    columns are visible to the query.
    """

    relation_name: str
    alias: str


class Planner:
    """Builds operator trees for the per-world fragment of bound queries."""

    # -- public entry points -----------------------------------------------------------

    def plan_query(self, query: Query,
                   resolved_from: Optional[list[ResolvedFrom]] = None) -> Operator:
        """Plan a query; plain SELECTs may get pre-resolved FROM items."""
        if isinstance(query, SelectQuery):
            return self.plan_select(query, resolved_from)
        if isinstance(query, CompoundQuery):
            return self.plan_compound(query)
        raise PlanningError(f"cannot plan a {type(query).__name__}")

    def plan_compound(self, query: CompoundQuery) -> Operator:
        """Plan UNION / INTERSECT / EXCEPT."""
        left = self.plan_query(query.left)
        right = self.plan_query(query.right)
        if query.operator == "union":
            plan: Operator = UnionOp(left, right, distinct=query.distinct)
        elif query.operator == "intersect":
            plan = IntersectOp(left, right, distinct=query.distinct)
        elif query.operator == "except":
            plan = ExceptOp(left, right, distinct=query.distinct)
        else:
            raise PlanningError(f"unknown set operator {query.operator!r}")
        return self._apply_order_limit(plan, query.order_keys, None,
                                       query.limit, query.offset)

    def plan_select(self, query: SelectQuery,
                    resolved_from: Optional[list[ResolvedFrom]] = None) -> Operator:
        """Plan a single SELECT block (its per-world fragment)."""
        plan = self._plan_from_where(query, resolved_from)
        outputs = query.outputs + [
            OutputColumn(expression, f"#order{position}")
            for position, expression in enumerate(query.order_extras)]
        plan = self._plan_projection(query, plan, outputs)
        if query.distinct:
            plan = DistinctOp(plan)
        width = len(query.outputs) if query.order_extras else None
        return self._apply_order_limit(plan, query.order_keys, width,
                                       query.limit, query.offset)

    # -- FROM and WHERE ------------------------------------------------------------------

    def _plan_from_where(self, query: SelectQuery,
                         resolved_from: Optional[list[ResolvedFrom]]
                         ) -> Operator:
        """Join the FROM items left-deep, filtering with the WHERE conjuncts.

        The same algorithm as the WSD executor's ``_join_sources``: a
        conjunct filters as soon as the joined prefix holds all it reads
        (:func:`filter_ready`), one filter per conjunct in order, and conjuncts
        equating a column of the prefix with a column of the next FROM item
        become hash-join keys.  A row leaves at its first conjunct that is
        not true, so both backends evaluate each conjunct on the same rows
        (and raise on the same ones).
        """
        if resolved_from is None:
            resolved_from = []
            for ref in query.from_clause:
                if not isinstance(ref, NamedTableRef) \
                        or ref.decoration is not None:
                    raise PlanningError(
                        "derived tables, repair by key and choice of must be "
                        "resolved by the executor before planning")
                resolved_from.append(ResolvedFrom(ref.name,
                                                  ref.effective_alias()))
        # SELECT without FROM reads a single empty row, so constant
        # expressions still produce one output row.
        sources = [ScanOp(item.relation_name, alias=item.alias)
                   for item in resolved_from] or \
            [RelationSourceOp(Relation(Schema([]), [()], coerce=False))]
        pending = conjuncts(query.where) if query.where is not None else []
        plan, pending = filter_ready(sources[0], pending, 0, FilterOp)
        for position, source in enumerate(sources[1:], start=1):
            keys, pending = split_equi_keys(pending, position)
            plan = HashJoinOp(plan, source, [left for left, _ in keys],
                              [right for _, right in keys]) if keys \
                else CrossJoinOp(plan, source)
            plan, pending = filter_ready(plan, pending, position, FilterOp)
        for conjunct in pending:
            plan = FilterOp(plan, conjunct)
        return plan

    # -- projection and aggregation -----------------------------------------------------------------

    def _plan_projection(self, query: SelectQuery, plan: Operator,
                         outputs: list[OutputColumn]) -> Operator:
        has_aggregates = any(contains_aggregate(output.expression)
                             for output in outputs)
        if query.group_by or has_aggregates or query.having is not None:
            return AggregateOp(plan, group_keys=list(query.group_by),
                               outputs=outputs, having=query.having)
        return ProjectOp(plan, outputs)

    # -- ORDER BY / LIMIT -----------------------------------------------------------------------------

    def _apply_order_limit(self, plan: Operator, keys: list[SortKey],
                           width: Optional[int], limit, offset) -> Operator:
        if keys:
            plan = SortOp(plan, keys, width)
        if limit is not None or offset:
            plan = LimitOp(plan, limit=limit, offset=offset)
        return plan


def filter_ready(source, pending: list[Expression], last: int,
                 apply: Callable) -> tuple[Any, list[Expression]]:
    """*source* (the join of FROM inputs ``0..last``) filtered, through
    ``apply(source, conjunct)``, by each *pending* conjunct it can evaluate
    — one that reads only those inputs (or an enclosing block) and holds no
    subquery, whose correlated references read the whole joined row — plus
    the conjuncts still pending.  Shared by both backends' joins."""
    rest = []
    for conjunct in pending:
        if not contains_subquery(conjunct) and all(
                ref.depth or ref.input <= last
                for ref in expression_columns(conjunct)):
            source = apply(source, conjunct)
        else:
            rest.append(conjunct)
    return source, rest


def split_equi_keys(predicates: list[Expression], last: int
                    ) -> tuple[list[tuple[int, int]], list[Expression]]:
    """Hash-join keys joining FROM input *last* to the inputs before it.

    Each of *predicates* equating a column of an earlier input with a
    column of input *last* becomes a key ``(index in the joined row of the
    earlier inputs, column within input last)``; the rest are returned
    unchanged.  Shared by both backends' join selection.
    """
    keys: list[tuple[int, int]] = []
    rest: list[Expression] = []
    for predicate in predicates:
        if isinstance(predicate, BinaryOp) and predicate.operator == "=":
            pair = (predicate.left, predicate.right)
            if all(isinstance(ref, ColumnRef) and not ref.depth
                   for ref in pair):
                if pair[1].input == last and pair[0].input < last:
                    keys.append((pair[0].index, pair[1].column))
                    continue
                if pair[0].input == last and pair[1].input < last:
                    keys.append((pair[1].index, pair[0].column))
                    continue
        rest.append(predicate)
    return keys, rest

