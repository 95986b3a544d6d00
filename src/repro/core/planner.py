"""Compile the per-world part of a query into a physical operator tree.

The planner handles everything a *single* possible world sees: FROM items
(already resolved to catalog relation names by the executor), WHERE, GROUP BY
/ HAVING, the select list with star expansion and aggregates, DISTINCT,
ORDER BY and LIMIT.  The world-level clauses of I-SQL — ``repair by key``,
``choice of``, ``assert``, ``possible`` / ``certain`` / ``conf`` and ``group
worlds by`` — are *not* the planner's business; the executor deals with them
before and after running the per-world plan.

Plans are built per world because star expansion needs the world's catalog;
plan construction is linear in the query size and negligible next to
execution, which keeps this simple and correct.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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
    ThetaJoinOp,
    UnionOp,
)
from ..relational.catalog import Catalog
from ..relational.schema import Column, Schema
from ..relational.expressions import (
    AggregateCall,
    BinaryOp,
    ColumnRef,
    Expression,
    Star,
    contains_aggregate,
)
from ..sqlparser.ast_nodes import (
    CompoundQuery,
    DerivedTableRef,
    NamedTableRef,
    Query,
    SelectItem,
    SelectQuery,
    TableRef,
)

__all__ = ["Planner", "ResolvedFrom", "plan_select", "output_name",
           "deduplicate_output_names", "select_plan_is_world_independent"]


def select_plan_is_world_independent(query: SelectQuery) -> bool:
    """True when one compiled plan can serve every world of a world-set.

    Plan construction consults a specific world's catalog only to expand
    ``*`` / ``alias.*`` (and an empty select list, which behaves like
    ``*``); every other clause compiles from the query text alone.  The
    executor uses this to build the operator tree **once per statement**
    instead of once per world — the explicit backend's share of the
    serving layer's compile-once contract.
    """
    if not query.select_items:
        return False
    return not any(isinstance(item.expression, Star)
                   for item in query.select_items)


def output_name(item: SelectItem, position: int) -> str:
    """The output column name of a select item (alias, column name or colN).

    Shared by the explicit planner and the WSD-native executor so both
    backends produce identical result schemas.
    """
    if item.alias:
        return item.alias
    expression = item.expression
    if isinstance(expression, ColumnRef):
        return expression.name
    if isinstance(expression, AggregateCall):
        return expression.name
    return f"col{position + 1}"


def deduplicate_output_names(outputs: list[OutputColumn]) -> list[OutputColumn]:
    """Make output column names unique.

    Expanding ``*`` over a self-join (``from I i1, I i2``) yields the same
    unqualified column names twice; the result schema disambiguates them
    with their qualifier (``i2.Id``) or, failing that, a numeric suffix.
    """
    seen: set[str] = set()
    unique: list[OutputColumn] = []
    for output in outputs:
        name = output.name
        if name.lower() in seen:
            expression = output.expression
            if isinstance(expression, ColumnRef) and expression.qualifier:
                name = f"{expression.qualifier}.{output.name}"
            counter = 2
            while name.lower() in seen:
                name = f"{output.name}_{counter}"
                counter += 1
        seen.add(name.lower())
        unique.append(OutputColumn(output.expression, name))
    return unique


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
    """Builds operator trees for the per-world fragment of queries."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog

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
        keys = [SortKey(item.expression, item.descending)
                for item in query.order_by]
        return self._apply_order_limit(plan, keys, query.limit, query.offset)

    def plan_select(self, query: SelectQuery,
                    resolved_from: Optional[list[ResolvedFrom]] = None) -> Operator:
        """Plan a single SELECT block (its per-world fragment)."""
        plan = self._plan_from(query, resolved_from)
        if query.where is not None:
            plan = self._plan_filter(plan, query.where)
        outputs = self._expand_select_items(query, plan)
        keys = self._sort_keys(query.order_by, outputs, plan)
        plan = self._plan_projection(query, plan, outputs)
        if query.distinct:
            plan = DistinctOp(plan)
        return self._apply_order_limit(plan, keys, query.limit, query.offset)

    # -- FROM clause -----------------------------------------------------------------------

    def _plan_from(self, query: SelectQuery,
                   resolved_from: Optional[list[ResolvedFrom]]) -> Operator:
        if resolved_from is not None:
            sources = [ScanOp(item.relation_name, alias=item.alias)
                       for item in resolved_from]
        else:
            sources = [self._plan_table_ref(ref) for ref in query.from_clause]
        if not sources:
            # SELECT without FROM: a single empty row so constant expressions
            # still produce one output row.
            from ..relational.relation import Relation

            singleton = Relation(Schema([]), [()], coerce=False)
            return RelationSourceOp(singleton)
        plan = sources[0]
        for source in sources[1:]:
            plan = CrossJoinOp(plan, source)
        return plan

    def _plan_table_ref(self, ref: TableRef) -> Operator:
        if isinstance(ref, NamedTableRef):
            if ref.repair is not None or ref.choice is not None:
                raise PlanningError(
                    "repair by key / choice of must be resolved by the "
                    "executor before planning")
            return ScanOp(ref.name, alias=ref.effective_alias())
        if isinstance(ref, DerivedTableRef):
            raise PlanningError(
                "derived tables must be resolved by the executor before planning")
        raise PlanningError(f"unknown FROM item {ref!r}")

    # -- WHERE ---------------------------------------------------------------------------------

    def _plan_filter(self, plan: Operator, predicate: Expression) -> Operator:
        """Plan the WHERE clause, preferring a hash join for equi-join shapes."""
        if isinstance(plan, CrossJoinOp):
            equalities, residual = self._split_equi_join(predicate, plan)
            if equalities:
                left_keys = [left for left, _ in equalities]
                right_keys = [right for _, right in equalities]
                return HashJoinOp(plan.left, plan.right, left_keys, right_keys,
                                  residual=residual)
        return FilterOp(plan, predicate)

    def _split_equi_join(self, predicate: Expression, join: CrossJoinOp
                         ) -> tuple[list[tuple[Expression, Expression]],
                                    Expression | None]:
        """Extract ``left.col = right.col`` conjuncts usable as hash-join keys.

        Returns the key pairs plus the residual predicate (or None when the
        whole predicate was consumed).  Only top-level AND conjunctions of
        simple column equalities are considered; anything else stays residual.
        """
        left_qualifiers = self._plan_qualifiers(join.left)
        right_qualifiers = self._plan_qualifiers(join.right)
        if not left_qualifiers or not right_qualifiers:
            return [], predicate
        conjuncts = _flatten_and(predicate)
        keys: list[tuple[Expression, Expression]] = []
        residual: list[Expression] = []
        for conjunct in conjuncts:
            pair = self._equi_key(conjunct, left_qualifiers, right_qualifiers)
            if pair is None:
                residual.append(conjunct)
            else:
                keys.append(pair)
        residual_expression: Expression | None = None
        for item in residual:
            residual_expression = (item if residual_expression is None
                                   else BinaryOp("and", residual_expression, item))
        return keys, residual_expression

    def _equi_key(self, conjunct: Expression, left_qualifiers: set[str],
                  right_qualifiers: set[str]
                  ) -> tuple[Expression, Expression] | None:
        if not (isinstance(conjunct, BinaryOp) and conjunct.operator == "="):
            return None
        left, right = conjunct.left, conjunct.right
        if not isinstance(left, ColumnRef) or not isinstance(right, ColumnRef):
            return None
        if left.qualifier is None or right.qualifier is None:
            return None
        left_q = left.qualifier.lower()
        right_q = right.qualifier.lower()
        if left_q in left_qualifiers and right_q in right_qualifiers:
            return (left, right)
        if left_q in right_qualifiers and right_q in left_qualifiers:
            return (right, left)
        return None

    def _plan_qualifiers(self, plan: Operator) -> set[str]:
        """The set of relation aliases produced by *plan* (lower-cased)."""
        if isinstance(plan, ScanOp):
            return {(plan.alias or plan.table_name).lower()}
        if isinstance(plan, RelationSourceOp):
            name = plan.alias or plan.relation.name
            return {name.lower()} if name else set()
        if isinstance(plan, CrossJoinOp):
            return self._plan_qualifiers(plan.left) | self._plan_qualifiers(plan.right)
        return set()

    # -- projection and aggregation -----------------------------------------------------------------

    def _plan_projection(self, query: SelectQuery, plan: Operator,
                         outputs: list[OutputColumn]) -> Operator:
        has_aggregates = any(contains_aggregate(output.expression)
                             for output in outputs)
        if query.group_by or has_aggregates or query.having is not None:
            return AggregateOp(plan, group_keys=list(query.group_by),
                               outputs=outputs, having=query.having)
        return ProjectOp(plan, outputs)

    def _expand_select_items(self, query: SelectQuery,
                             plan: Operator) -> list[OutputColumn]:
        items = query.select_items
        if not items:
            # "SELECT CONF FROM ..." leaves the list empty; behave like '*'.
            items = [SelectItem(Star())]
        outputs: list[OutputColumn] = []
        for position, item in enumerate(items):
            if isinstance(item.expression, Star):
                outputs.extend(self._expand_star(item.expression, plan))
                continue
            outputs.append(OutputColumn(item.expression,
                                        self._output_name(item, position)))
        if not outputs:
            raise PlanningError("the select list expanded to no columns")
        return self._deduplicate_output_names(outputs)

    def _deduplicate_output_names(self, outputs: list[OutputColumn]
                                  ) -> list[OutputColumn]:
        return deduplicate_output_names(outputs)

    def _expand_star(self, star: Star, plan: Operator) -> list[OutputColumn]:
        columns = self._visible_columns(plan)
        wanted = []
        for qualifier, name in columns:
            if star.qualifier is not None and \
                    (qualifier or "").lower() != star.qualifier.lower():
                continue
            wanted.append(OutputColumn(ColumnRef(name, qualifier), name))
        if not wanted:
            target = star.qualifier or "*"
            raise PlanningError(f"'{target}.*' matches no columns")
        return wanted

    def _visible_columns(self, plan: Operator) -> list[tuple[str | None, str]]:
        """The (qualifier, column name) pairs produced by *plan*, in order."""
        if isinstance(plan, ScanOp):
            relation = self.catalog.get(plan.table_name)
            qualifier = plan.alias or relation.name or plan.table_name
            return [(qualifier, column.name) for column in relation.schema]
        if isinstance(plan, RelationSourceOp):
            qualifier = plan.alias or plan.relation.name
            return [(qualifier, column.name) for column in plan.relation.schema]
        if isinstance(plan, CrossJoinOp):
            return (self._visible_columns(plan.left)
                    + self._visible_columns(plan.right))
        if isinstance(plan, (FilterOp, DistinctOp, LimitOp, SortOp)):
            return self._visible_columns(plan.child)
        if isinstance(plan, HashJoinOp):
            return (self._visible_columns(plan.left)
                    + self._visible_columns(plan.right))
        if isinstance(plan, ThetaJoinOp):
            return (self._visible_columns(plan.left)
                    + self._visible_columns(plan.right))
        raise PlanningError(
            f"cannot expand '*' over a {type(plan).__name__} input")

    def _output_name(self, item: SelectItem, position: int) -> str:
        return output_name(item, position)

    # -- ORDER BY / LIMIT -----------------------------------------------------------------------------

    def _sort_keys(self, order_by, outputs: list[OutputColumn],
                   source: Operator) -> list[SortKey]:
        """ORDER BY items as keys over the projected rows.

        An item naming an output column sorts by it.  An item equal to a
        select item's expression, or naming the same input column
        (``i2.Id`` for ``Id``), sorts by that item's output column, as SQL
        does — by position, because output names can collide.
        """
        if not order_by:
            return []
        names = {output.name.lower() for output in outputs}
        schema = Schema([Column(name, qualifier=qualifier) for qualifier, name
                         in self._visible_columns(source)])

        def input_column(expression: Expression) -> Optional[int]:
            if not isinstance(expression, ColumnRef):
                return None
            found = schema.find(expression.name, expression.qualifier)
            return found[0] if len(found) == 1 else None

        keys = []
        for item in order_by:
            expression = item.expression
            position = None
            if not (isinstance(expression, ColumnRef)
                    and expression.qualifier is None
                    and expression.name.lower() in names):
                column = input_column(expression)
                position = next(
                    (index for index, output in enumerate(outputs)
                     if output.expression == expression
                     or column is not None
                     and input_column(output.expression) == column), None)
            keys.append(SortKey(expression, item.descending, position))
        return keys

    def _apply_order_limit(self, plan: Operator, keys: list[SortKey],
                           limit, offset) -> Operator:
        if keys:
            plan = SortOp(plan, keys)
        if limit is not None or offset:
            plan = LimitOp(plan, limit=limit, offset=offset)
        return plan


def plan_select(query: SelectQuery, catalog: Catalog,
                resolved_from: Optional[list[ResolvedFrom]] = None) -> Operator:
    """Convenience wrapper: plan *query* against *catalog*."""
    return Planner(catalog).plan_select(query, resolved_from)


def _flatten_and(expression: Expression) -> list[Expression]:
    """Split a conjunction into its top-level conjuncts."""
    if isinstance(expression, BinaryOp) and expression.operator.lower() == "and":
        return _flatten_and(expression.left) + _flatten_and(expression.right)
    return [expression]
