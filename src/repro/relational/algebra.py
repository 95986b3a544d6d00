"""Physical relational-algebra operators.

The I-SQL planner compiles the per-world part of a query into a tree of these
operators; the executor then runs the tree once per possible world (or pushes
it onto a world-set decomposition).  Each operator consumes child relations and
produces a new :class:`Relation`.

Operators are deliberately simple: the data sets of the paper (and of the
benchmarks, which stress the *number of worlds* rather than the size of single
relations) are small per world, so nested-loop and hash strategies suffice.
The planner turns equality conjuncts between FROM items into hash joins and
filters with every other conjunct.
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
    Literal,
    Star,
    _as_boolean,
    rewrite,
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

    def make_context(self, row: Optional[tuple]) -> EvalContext:
        """Build an :class:`EvalContext` chained to the outer context."""
        return EvalContext(row=row, outer=self.outer_context,
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
            if _as_boolean(self.predicate.evaluate(env.make_context(row))):
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
            context = env.make_context(row)
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
                if _as_boolean(self.predicate.evaluate(
                        env.make_context(joined))):
                    result.rows.append(joined)
        return result

    def describe(self) -> str:
        return f"ThetaJoin({self.predicate.sql()})"


@dataclass
class HashJoinOp(Operator):
    """Equi-join evaluated with a hash table on the right input.

    ``left_keys`` and ``right_keys`` are column positions in the respective
    input rows; rows with NULL keys never join, matching SQL.
    """

    left: Operator
    right: Operator
    left_keys: list[int]
    right_keys: list[int]

    def children(self) -> Sequence[Operator]:
        return (self.left, self.right)

    def execute(self, env: ExecutionEnv) -> Relation:
        left = self.left.execute(env)
        right = self.right.execute(env)
        schema = left.schema.concat(right.schema)
        index: dict[tuple, list[tuple]] = {}
        for row in right.rows:
            key = tuple(row[position] for position in self.right_keys)
            if any(value is None for value in key):
                continue
            index.setdefault(hash_key(key), []).append(row)
        result = Relation(schema, [], coerce=False)
        for row in left.rows:
            key = tuple(row[position] for position in self.left_keys)
            if any(value is None for value in key):
                continue
            result.rows.extend(row + match
                               for match in index.get(hash_key(key), ()))
        return result

    def describe(self) -> str:
        keys = ", ".join(f"#{left}=#{right}"
                         for left, right in zip(self.left_keys, self.right_keys))
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
        schema = Schema([Column(output.name) for output in self.outputs])
        result = Relation(schema, [], coerce=False)
        for rows in self._build_groups(env, relation):
            output_row = tuple(
                self._evaluate_output(env, output.expression, rows)
                for output in self.outputs)
            if self.having is not None and not _as_boolean(
                    self._evaluate_output(env, self.having, rows)):
                continue
            result.rows.append(output_row)
        return result

    def _build_groups(self, env: ExecutionEnv,
                      relation: Relation) -> list[list[tuple]]:
        if not self.group_keys:
            # Global aggregation: a single group containing every row.  SQL
            # produces one output row even when the input is empty.
            return [list(relation.rows)]
        groups: dict[tuple, list[tuple]] = {}  # insertion-ordered
        for row in relation.rows:
            context = env.make_context(row)
            key = tuple(expr.evaluate(context) for expr in self.group_keys)
            groups.setdefault(key, []).append(row)
        return list(groups.values())

    def _evaluate_output(self, env: ExecutionEnv, expression: Expression,
                         rows: list[tuple]) -> Any:
        """Evaluate an output expression over one group.

        Aggregate sub-expressions are computed over the group's rows; other
        column references are resolved against the first row of the group
        (they are grouping columns, so every row agrees).
        """
        if isinstance(expression, AggregateCall):
            return self._run_aggregate(env, expression, rows)
        if isinstance(expression, ColumnRef) or not expression.children():
            return expression.evaluate(env.make_context(rows[0] if rows
                                                        else None))
        # Rebuild the expression with aggregates replaced by literals, then
        # evaluate the remainder against a representative row.
        substituted = rewrite(expression, lambda node: Literal(
            self._run_aggregate(env, node, rows))
            if isinstance(node, AggregateCall) else None)
        return substituted.evaluate(env.make_context(rows[0] if rows
                                                     else None))

    def _run_aggregate(self, env: ExecutionEnv, call: AggregateCall,
                       rows: list[tuple]) -> Any:
        count_star = call.argument is None or isinstance(call.argument, Star)
        aggregator = create_aggregator(call.name, distinct=call.distinct,
                                       count_star=count_star)
        for row in rows:
            if count_star:
                aggregator.accumulate(1)
            else:
                aggregator.accumulate(call.argument.evaluate(
                    env.make_context(row)))
        return aggregator.finalize()

    def describe(self) -> str:
        keys = ", ".join(expr.sql() for expr in self.group_keys) or "<all>"
        outs = ", ".join(f"{o.expression.sql()} AS {o.name}" for o in self.outputs)
        return f"Aggregate(group by {keys}; {outs})"


@dataclass
class SortKey:
    """One ORDER BY item: an expression — or, with ``position``, that column
    of the input row — and a direction."""

    expression: Expression
    descending: bool = False
    position: int | None = None


@dataclass
class SortOp(Operator):
    """Sort rows by a list of :class:`SortKey` items.

    With ``width`` set, the rows keep only their first ``width`` columns
    after sorting: the trailing ones were hidden sort columns (ORDER BY
    items that are not selected).
    """

    child: Operator
    keys: list[SortKey]
    width: int | None = None

    def children(self) -> Sequence[Operator]:
        return (self.child,)

    def execute(self, env: ExecutionEnv) -> Relation:
        from .types import ordering_key

        relation = self.child.execute(env)
        decorated = []
        for row in relation.rows:
            context = env.make_context(row)
            values = tuple(row[key.position] if key.position is not None
                           else key.expression.evaluate(context)
                           for key in self.keys)
            decorated.append((values, row))
        for position, key in reversed(list(enumerate(self.keys))):
            decorated.sort(key=lambda item: ordering_key(item[0][position]),
                           reverse=key.descending)
        width = self.width
        if width is None:
            result = Relation(relation.schema, [], coerce=False)
            result.rows = [row for _, row in decorated]
        else:
            result = Relation(Schema(relation.schema.columns[:width]), [],
                              coerce=False)
            result.rows = [row[:width] for _, row in decorated]
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
