"""Physical relational-algebra operators.

The I-SQL planner compiles the per-world part of a query into a tree of these
operators; the executor then runs the tree once per possible world (or pushes
it onto a world-set decomposition).  Each operator consumes child relations and
produces a new :class:`Relation`.

Operators are deliberately simple: the data sets of the paper (and of the
benchmarks, which stress the *number of worlds* rather than the size of single
relations) are small per world, so nested-loop and hash strategies suffice.
The planner picks a hash join when the predicate is a conjunction of
equalities; everything else goes through the generic theta join.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from .aggregates import create_aggregator
from .catalog import Catalog
from .expressions import (
    AggregateCall,
    ColumnRef,
    EvalContext,
    Expression,
    Star,
)
from .relation import Relation
from .schema import Column, Schema

__all__ = [
    "ExecutionEnv",
    "Operator",
    "ScanOp",
    "RelationSourceOp",
    "FilterOp",
    "ProjectOp",
    "CrossJoinOp",
    "ThetaJoinOp",
    "HashJoinOp",
    "DistinctOp",
    "AggregateOp",
    "SortOp",
    "LimitOp",
    "UnionOp",
    "IntersectOp",
    "ExceptOp",
    "AliasOp",
    "SortKey",
    "OutputColumn",
]


@dataclass
class ExecutionEnv:
    """Per-world execution environment.

    Attributes
    ----------
    catalog:
        The catalog of the world the plan is being evaluated in.
    subquery_evaluator:
        Callback used by expressions that contain nested queries.  The I-SQL
        executor installs a closure that plans and runs the nested query in
        the same world.
    outer_context:
        Evaluation context of the enclosing query, for correlated subqueries.
    """

    catalog: Catalog
    subquery_evaluator: Optional[Callable[[Any, EvalContext], list[tuple]]] = None
    outer_context: Optional[EvalContext] = None

    def make_context(self, schema: Schema, row: Optional[tuple]) -> EvalContext:
        """Build an :class:`EvalContext` chained to the outer context."""
        return EvalContext(schema=schema, row=row, outer=self.outer_context,
                           subquery_evaluator=self.subquery_evaluator)


class Operator:
    """Base class of all physical operators."""

    def execute(self, env: ExecutionEnv) -> Relation:
        """Evaluate this operator (and its children) in *env*."""
        raise NotImplementedError

    def children(self) -> Sequence["Operator"]:
        """Return the child operators."""
        return ()

    def explain(self, indent: int = 0) -> str:
        """Return a plan-tree rendering, one operator per line."""
        line = "  " * indent + self.describe()
        parts = [line]
        for child in self.children():
            parts.append(child.explain(indent + 1))
        return "\n".join(parts)

    def describe(self) -> str:
        """One-line description used by :meth:`explain`."""
        return type(self).__name__


@dataclass
class ScanOp(Operator):
    """Scan a named relation from the world's catalog, optionally aliased."""

    table_name: str
    alias: str | None = None

    def execute(self, env: ExecutionEnv) -> Relation:
        relation = env.catalog.get(self.table_name)
        qualifier = self.alias or relation.name or self.table_name
        return relation.with_name(qualifier)

    def describe(self) -> str:
        alias = f" AS {self.alias}" if self.alias else ""
        return f"Scan({self.table_name}{alias})"


@dataclass
class RelationSourceOp(Operator):
    """Wrap an already-materialised relation (used for derived tables)."""

    relation: Relation
    alias: str | None = None

    def execute(self, env: ExecutionEnv) -> Relation:
        if self.alias:
            return self.relation.with_name(self.alias)
        return self.relation

    def describe(self) -> str:
        return f"RelationSource({self.alias or self.relation.name or '<anon>'})"


@dataclass
class FilterOp(Operator):
    """Keep the rows for which *predicate* evaluates to true."""

    child: Operator
    predicate: Expression

    def children(self) -> Sequence[Operator]:
        return (self.child,)

    def execute(self, env: ExecutionEnv) -> Relation:
        relation = self.child.execute(env)
        kept = []
        for row in relation.rows:
            context = env.make_context(relation.schema, row)
            if self.predicate.evaluate(context) is True:
                kept.append(row)
        result = Relation(relation.schema, [], coerce=False)
        result.rows = kept
        return result

    def describe(self) -> str:
        return f"Filter({self.predicate.sql()})"


@dataclass
class OutputColumn:
    """One entry of a projection list: an expression and its output name."""

    expression: Expression
    name: str


@dataclass
class ProjectOp(Operator):
    """Compute a list of output expressions for every input row."""

    child: Operator
    outputs: list[OutputColumn]

    def children(self) -> Sequence[Operator]:
        return (self.child,)

    def execute(self, env: ExecutionEnv) -> Relation:
        relation = self.child.execute(env)
        schema = Schema([Column(output.name) for output in self.outputs])
        result = Relation(schema, [], coerce=False)
        for row in relation.rows:
            context = env.make_context(relation.schema, row)
            result.rows.append(tuple(output.expression.evaluate(context)
                                     for output in self.outputs))
        return result

    def describe(self) -> str:
        rendered = ", ".join(f"{o.expression.sql()} AS {o.name}" for o in self.outputs)
        return f"Project({rendered})"


@dataclass
class CrossJoinOp(Operator):
    """Cartesian product of two inputs."""

    left: Operator
    right: Operator

    def children(self) -> Sequence[Operator]:
        return (self.left, self.right)

    def execute(self, env: ExecutionEnv) -> Relation:
        return self.left.execute(env).cross_join(self.right.execute(env))

    def describe(self) -> str:
        return "CrossJoin"


@dataclass
class ThetaJoinOp(Operator):
    """Nested-loop join with an arbitrary predicate."""

    left: Operator
    right: Operator
    predicate: Expression

    def children(self) -> Sequence[Operator]:
        return (self.left, self.right)

    def execute(self, env: ExecutionEnv) -> Relation:
        left = self.left.execute(env)
        right = self.right.execute(env)
        schema = left.schema.concat(right.schema)
        result = Relation(schema, [], coerce=False)
        for left_row in left.rows:
            for right_row in right.rows:
                joined = left_row + right_row
                context = env.make_context(schema, joined)
                if self.predicate.evaluate(context) is True:
                    result.rows.append(joined)
        return result

    def describe(self) -> str:
        return f"ThetaJoin({self.predicate.sql()})"


@dataclass
class HashJoinOp(Operator):
    """Equi-join evaluated with a hash table on the right input.

    ``left_keys`` and ``right_keys`` are expressions evaluated against the
    respective inputs; rows with NULL keys never join, matching SQL.
    """

    left: Operator
    right: Operator
    left_keys: list[Expression]
    right_keys: list[Expression]
    residual: Expression | None = None

    def children(self) -> Sequence[Operator]:
        return (self.left, self.right)

    def execute(self, env: ExecutionEnv) -> Relation:
        left = self.left.execute(env)
        right = self.right.execute(env)
        schema = left.schema.concat(right.schema)
        index: dict[tuple, list[tuple]] = {}
        for row in right.rows:
            context = env.make_context(right.schema, row)
            key = tuple(expr.evaluate(context) for expr in self.right_keys)
            if any(value is None for value in key):
                continue
            index.setdefault(hash_key(key), []).append(row)
        result = Relation(schema, [], coerce=False)
        for row in left.rows:
            context = env.make_context(left.schema, row)
            key = tuple(expr.evaluate(context) for expr in self.left_keys)
            if any(value is None for value in key):
                continue
            for match in index.get(hash_key(key), ()):
                joined = row + match
                if self.residual is not None:
                    joined_context = env.make_context(schema, joined)
                    if self.residual.evaluate(joined_context) is not True:
                        continue
                result.rows.append(joined)
        return result

    def describe(self) -> str:
        keys = ", ".join(f"{l.sql()}={r.sql()}"
                         for l, r in zip(self.left_keys, self.right_keys))
        return f"HashJoin({keys})"


def hash_key(key: tuple) -> tuple:
    """Normalise numeric key values so 1 and 1.0 hash alike."""
    return tuple(float(value) if isinstance(value, (int, float))
                 and not isinstance(value, bool) else value
                 for value in key)


@dataclass
class DistinctOp(Operator):
    """Remove duplicate rows."""

    child: Operator

    def children(self) -> Sequence[Operator]:
        return (self.child,)

    def execute(self, env: ExecutionEnv) -> Relation:
        return self.child.execute(env).distinct()

    def describe(self) -> str:
        return "Distinct"


@dataclass
class AggregateOp(Operator):
    """GROUP BY plus aggregate evaluation (also handles global aggregates).

    ``group_keys`` are the grouping expressions; ``outputs`` may mix grouping
    expressions and expressions containing :class:`AggregateCall` nodes.  The
    ``having`` predicate (if any) is evaluated against each group after
    aggregation, in a context exposing the output columns.
    """

    child: Operator
    group_keys: list[Expression]
    outputs: list[OutputColumn]
    having: Expression | None = None

    def children(self) -> Sequence[Operator]:
        return (self.child,)

    def execute(self, env: ExecutionEnv) -> Relation:
        relation = self.child.execute(env)
        groups = self._build_groups(env, relation)
        schema = Schema([Column(output.name) for output in self.outputs])
        result = Relation(schema, [], coerce=False)
        for key, rows in groups:
            output_row = tuple(
                self._evaluate_output(env, relation, output.expression, key, rows)
                for output in self.outputs)
            if self.having is not None:
                having_value = self._evaluate_output(
                    env, relation, self.having, key, rows)
                if having_value is not True:
                    continue
            result.rows.append(output_row)
        return result

    def _build_groups(self, env: ExecutionEnv,
                      relation: Relation) -> list[tuple[tuple, list[tuple]]]:
        if not self.group_keys:
            # Global aggregation: a single group containing every row.  SQL
            # produces one output row even when the input is empty.
            return [((), list(relation.rows))]
        order: list[tuple] = []
        groups: dict[tuple, list[tuple]] = {}
        for row in relation.rows:
            context = env.make_context(relation.schema, row)
            key = tuple(expr.evaluate(context) for expr in self.group_keys)
            if key not in groups:
                order.append(key)
                groups[key] = []
            groups[key].append(row)
        return [(key, groups[key]) for key in order]

    def _evaluate_output(self, env: ExecutionEnv, relation: Relation,
                         expression: Expression, group_key: tuple,
                         rows: list[tuple]) -> Any:
        """Evaluate an output expression over one group.

        Aggregate sub-expressions are computed over the group's rows; other
        column references are resolved against the first row of the group
        (they are grouping columns, so every row agrees).
        """
        if isinstance(expression, AggregateCall):
            return self._run_aggregate(env, relation, expression, rows)
        if isinstance(expression, ColumnRef) or not expression.children():
            representative = rows[0] if rows else None
            context = env.make_context(relation.schema, representative)
            return expression.evaluate(context)
        # Rebuild the expression with aggregates replaced by literals, then
        # evaluate the remainder against a representative row.
        from .expressions import Literal

        def substitute(node: Expression) -> Expression:
            if isinstance(node, AggregateCall):
                return Literal(self._run_aggregate(env, relation, node, rows))
            clone = _shallow_copy_expression(node)
            return clone

        substituted = _map_expression(expression, substitute)
        representative = rows[0] if rows else None
        context = env.make_context(relation.schema, representative)
        return substituted.evaluate(context)

    def _run_aggregate(self, env: ExecutionEnv, relation: Relation,
                       call: AggregateCall, rows: list[tuple]) -> Any:
        count_star = call.argument is None or isinstance(call.argument, Star)
        aggregator = create_aggregator(call.name, distinct=call.distinct,
                                       count_star=count_star)
        for row in rows:
            if count_star:
                aggregator.accumulate(1)
            else:
                context = env.make_context(relation.schema, row)
                aggregator.accumulate(call.argument.evaluate(context))
        return aggregator.finalize()

    def describe(self) -> str:
        keys = ", ".join(expr.sql() for expr in self.group_keys) or "<all>"
        outs = ", ".join(f"{o.expression.sql()} AS {o.name}" for o in self.outputs)
        return f"Aggregate(group by {keys}; {outs})"


def _shallow_copy_expression(node: Expression) -> Expression:
    import copy

    return copy.copy(node)


def _map_expression(node: Expression,
                    transform: Callable[[Expression], Expression]) -> Expression:
    """Rebuild an expression tree bottom-up applying *transform* to each node."""
    import copy

    if isinstance(node, AggregateCall):
        return transform(node)
    clone = copy.copy(node)
    # Rewrite known child-bearing attributes generically.
    for attribute in ("left", "right", "operand", "low", "high", "pattern"):
        child = getattr(clone, attribute, None)
        if isinstance(child, Expression):
            setattr(clone, attribute, _map_expression(child, transform))
    if hasattr(clone, "arguments"):
        clone.arguments = [_map_expression(argument, transform)
                           for argument in clone.arguments]
    if hasattr(clone, "values") and isinstance(getattr(clone, "values"), list):
        clone.values = [_map_expression(value, transform)
                        for value in clone.values]
    if hasattr(clone, "branches"):
        clone.branches = [(_map_expression(cond, transform),
                           _map_expression(result, transform))
                          for cond, result in clone.branches]
        if clone.otherwise is not None:
            clone.otherwise = _map_expression(clone.otherwise, transform)
        if clone.operand is not None:
            clone.operand = _map_expression(clone.operand, transform)
    return transform(clone) if isinstance(clone, AggregateCall) else clone


@dataclass
class SortKey:
    """One ORDER BY item: an expression — or, with ``position``, that column
    of the input row — and a direction."""

    expression: Expression
    descending: bool = False
    position: int | None = None


@dataclass
class SortOp(Operator):
    """Sort rows by a list of :class:`SortKey` items."""

    child: Operator
    keys: list[SortKey]

    def children(self) -> Sequence[Operator]:
        return (self.child,)

    def execute(self, env: ExecutionEnv) -> Relation:
        from .types import ordering_key

        relation = self.child.execute(env)
        decorated = []
        for row in relation.rows:
            context = env.make_context(relation.schema, row)
            values = tuple(row[key.position] if key.position is not None
                           else key.expression.evaluate(context)
                           for key in self.keys)
            decorated.append((values, row))
        for position, key in reversed(list(enumerate(self.keys))):
            decorated.sort(key=lambda item: ordering_key(item[0][position]),
                           reverse=key.descending)
        result = Relation(relation.schema, [], coerce=False)
        result.rows = [row for _, row in decorated]
        return result

    def describe(self) -> str:
        keys = ", ".join(
            key.expression.sql() + (" DESC" if key.descending else "")
            for key in self.keys)
        return f"Sort({keys})"


@dataclass
class LimitOp(Operator):
    """LIMIT / OFFSET."""

    child: Operator
    limit: int | None = None
    offset: int = 0

    def children(self) -> Sequence[Operator]:
        return (self.child,)

    def execute(self, env: ExecutionEnv) -> Relation:
        return self.child.execute(env).limit(self.limit, self.offset)

    def describe(self) -> str:
        return f"Limit({self.limit}, offset={self.offset})"


@dataclass
class UnionOp(Operator):
    """UNION [ALL]."""

    left: Operator
    right: Operator
    distinct: bool = True

    def children(self) -> Sequence[Operator]:
        return (self.left, self.right)

    def execute(self, env: ExecutionEnv) -> Relation:
        return self.left.execute(env).union(self.right.execute(env),
                                            distinct=self.distinct)

    def describe(self) -> str:
        return "Union" + ("" if self.distinct else "All")


@dataclass
class IntersectOp(Operator):
    """INTERSECT [ALL]."""

    left: Operator
    right: Operator
    distinct: bool = True

    def children(self) -> Sequence[Operator]:
        return (self.left, self.right)

    def execute(self, env: ExecutionEnv) -> Relation:
        return self.left.execute(env).intersect(self.right.execute(env),
                                                distinct=self.distinct)

    def describe(self) -> str:
        return "Intersect" + ("" if self.distinct else "All")


@dataclass
class ExceptOp(Operator):
    """EXCEPT [ALL]."""

    left: Operator
    right: Operator
    distinct: bool = True

    def children(self) -> Sequence[Operator]:
        return (self.left, self.right)

    def execute(self, env: ExecutionEnv) -> Relation:
        return self.left.execute(env).difference(self.right.execute(env),
                                                 distinct=self.distinct)

    def describe(self) -> str:
        return "Except" + ("" if self.distinct else "All")


@dataclass
class AliasOp(Operator):
    """Re-qualify the child's columns under a new relation alias."""

    child: Operator
    alias: str

    def children(self) -> Sequence[Operator]:
        return (self.child,)

    def execute(self, env: ExecutionEnv) -> Relation:
        return self.child.execute(env).with_name(self.alias)

    def describe(self) -> str:
        return f"Alias({self.alias})"
