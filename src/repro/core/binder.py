"""Name resolution and typing: one binder, run before either backend.

In the paper, I-SQL's world-level clauses sit on top of plain SQL over one
schema shared by every world, so resolving a name never depends on the
world.  :class:`Binder` therefore resolves a statement once, against the
declared schemas, before anything is evaluated:

* every :class:`~repro.relational.expressions.ColumnRef` gets its scope
  ``depth`` (0 for its own SELECT block, >= 1 for a correlated reference),
  its FROM ``input``, its ``column`` within that input, its ``index`` in the
  block's joined row and its declared ``type``; a block referencing an
  enclosing block is marked ``correlated``;
* ``*``, ``alias.*`` and the empty select list of ``select conf from ...``
  expand into :attr:`SelectQuery.outputs`, whose names are made unique;
* ORDER BY resolves against the select items first, then the input columns
  (:attr:`SelectQuery.order_keys`, :attr:`SelectQuery.order_extras`);
* a predicate (WHERE, HAVING, CASE WHEN, NOT / AND / OR operands, ``assert``,
  UPDATE / DELETE WHERE) must be boolean or NULL, as in PostgreSQL: a
  declared non-boolean type is an :class:`~repro.errors.AnalysisError` here,
  and a non-boolean value of an undeclared (``ANY``) column raises
  :class:`~repro.errors.ExpressionError` at run time, in the one
  ``_as_boolean`` every boolean context calls.

Bind errors (:class:`~repro.errors.UnknownColumnError`,
:class:`~repro.errors.AmbiguousColumnError`, a non-boolean predicate) come
only from here.  Bindings live on the AST, so a prepared statement binds
once and re-binds only when the schemas it was bound against change.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Optional

from ..errors import AnalysisError, PlanningError, UnknownColumnError
from ..relational.algebra import OutputColumn, SortKey
from ..relational.expressions import (
    AggregateCall,
    BinaryOp,
    CaseExpression,
    ColumnRef,
    ExistsSubquery,
    Expression,
    FunctionCall,
    InSubquery,
    Literal,
    QuantifiedComparison,
    ScalarSubquery,
    Star,
    UnaryOp,
)
from ..relational.schema import Column, Schema
from ..relational.types import SqlType, infer_type
from ..sqlparser.ast_nodes import (
    CompoundQuery,
    CreateTableAs,
    Delete,
    DerivedTableRef,
    ExplainStatement,
    Insert,
    NamedTableRef,
    Query,
    SelectItem,
    SelectQuery,
    Statement,
    Update,
)

__all__ = ["Binder", "output_name", "deduplicate_output_names"]

_COMPARISONS = {"=", "<>", "!=", "<", "<=", ">", ">="}
_NUMERIC = (SqlType.INTEGER, SqlType.REAL)


def output_name(item: SelectItem, position: int) -> str:
    """The output column name of a select item (alias, column name or colN)."""
    if item.alias:
        return item.alias
    expression = item.expression
    if isinstance(expression, (ColumnRef, AggregateCall)):
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


class _Scope:
    """The columns one SELECT block (or DML target) sees, in joined-row
    order, plus the enclosing scope for correlated references."""

    __slots__ = ("schema", "starts", "outer", "query")

    def __init__(self, inputs: list[tuple[Optional[str], Schema]],
                 outer: Optional["_Scope"] = None,
                 query: Optional[SelectQuery] = None) -> None:
        columns: list[Column] = []
        self.starts: list[int] = []
        for alias, schema in inputs:
            self.starts.append(len(columns))
            columns.extend(column if alias is None
                           else column.with_qualifier(alias)
                           for column in schema)
        self.schema = Schema(columns)
        self.outer = outer
        self.query = query


class Binder:
    """Resolves statements against *relation_schema* (name -> declared
    :class:`Schema`, raising for unknown names) and the stored *views*
    (lower-cased name -> query AST)."""

    def __init__(self, relation_schema: Callable[[str], Schema],
                 views: dict[str, Query]) -> None:
        self._relation_schema = relation_schema
        self._views = views
        #: Identities of the blocks found to reference an enclosing block;
        #: each block's flag is assigned once, when its binding completes,
        #: so a concurrent reader of a shared AST never sees it reset.
        self._correlated: set[int] = set()

    def bind_statement(self, statement: Statement, schemas: object) -> None:
        """Bind *statement* in place unless it is already bound to
        *schemas* (a token identifying the current declared schemas)."""
        if statement.bound_to == schemas:
            return
        if isinstance(statement, (SelectQuery, CompoundQuery)):
            self.bind_query(statement)
        elif isinstance(statement, CreateTableAs):
            statement.columns = self.bind_query(statement.query)
        elif isinstance(statement, ExplainStatement):
            if isinstance(statement.statement, Statement):
                self.bind_statement(statement.statement, schemas)
        elif isinstance(statement, Insert):
            if statement.query is not None:
                self.bind_query(statement.query)
            for row in statement.rows:
                for expression in row:
                    self._expr(expression, _Scope([]))
        elif isinstance(statement, (Update, Delete)):
            scope = _Scope([(statement.table,
                             self._relation_schema(statement.table))])
            if statement.where is not None:
                self._predicate(statement.where, scope, "WHERE")
            if isinstance(statement, Update):
                for assignment in statement.assignments:
                    self._expr(assignment.expression, scope)
        statement.bound_to = schemas

    # -- queries -----------------------------------------------------------------------

    def bind_query(self, query: Query,
                   outer: Optional[_Scope] = None) -> list[Column]:
        """Bind *query* (nested in *outer*, if given); its output columns."""
        if isinstance(query, CompoundQuery):
            columns = self.bind_query(query.left, outer)
            self.bind_query(query.right, outer)
            scope = _Scope([(None, Schema(columns))])
            for item in query.order_by:
                self._expr(item.expression, scope)
            query.order_keys = [SortKey(item.expression, item.descending)
                                for item in query.order_by]
            return columns
        if not isinstance(query, SelectQuery):
            raise AnalysisError(f"cannot bind a {type(query).__name__}")
        inputs = []
        for ref in query.from_clause:
            if isinstance(ref, DerivedTableRef):
                source = ref.query
            elif isinstance(ref, NamedTableRef):
                source = self._views.get(ref.name.lower())
            else:
                raise AnalysisError(f"unknown FROM item {ref!r}")
            schema = (self._relation_schema(ref.name) if source is None
                      else Schema(self.bind_query(source)))
            inputs.append((ref.effective_alias(), schema))
        scope = _Scope(inputs, outer, query)
        if query.where is not None:
            self._predicate(query.where, scope, "WHERE")
        for key in query.group_by:
            self._expr(key, scope)
        if query.having is not None:
            self._predicate(query.having, scope, "HAVING")
        if query.assert_condition is not None:
            self._predicate(query.assert_condition, _Scope([]), "assert")
        if query.group_worlds_by is not None:
            self.bind_query(query.group_worlds_by.query)
        outputs: list[OutputColumn] = []
        types: list[SqlType] = []
        for position, item in enumerate(query.select_items
                                        or [SelectItem(Star())]):
            if isinstance(item.expression, Star):
                for ref in self._expand_star(item.expression, scope):
                    outputs.append(OutputColumn(ref, ref.name))
                    types.append(ref.type)
                continue
            types.append(self._expr(item.expression, scope))
            outputs.append(OutputColumn(item.expression,
                                        output_name(item, position)))
        query.outputs = deduplicate_output_names(outputs)
        self._bind_order_by(query, scope)
        query.correlated = id(query) in self._correlated
        columns = [Column(output.name, kind)
                   for output, kind in zip(query.outputs, types)]
        if query.conf:
            conf = Column("conf", SqlType.REAL)
            return columns + [conf] if query.select_items else [conf]
        return columns

    def _expand_star(self, star: Star, scope: _Scope) -> list[ColumnRef]:
        refs = []
        for column in scope.schema:
            if star.qualifier is None or \
                    (column.qualifier or "").lower() == star.qualifier.lower():
                ref = ColumnRef(column.name, column.qualifier)
                self._expr(ref, scope)
                refs.append(ref)
        if not refs:
            raise PlanningError(f"'{star.qualifier or '*'}.*' matches no "
                                "columns")
        return refs

    def _bind_order_by(self, query: SelectQuery, scope: _Scope) -> None:
        """An ORDER BY item naming an output column, or equal to a select
        item (``i2.Id`` for ``Id`` included), sorts by that output column;
        any other item sorts by a hidden trailing column over the input."""
        names = [output.name.lower() for output in query.outputs]
        keys: list[SortKey] = []
        extras: list[Expression] = []
        for item in query.order_by:
            expression = item.expression
            if isinstance(expression, ColumnRef) and \
                    expression.qualifier is None and \
                    expression.name.lower() in names:
                position = names.index(expression.name.lower())
            else:
                self._expr(expression, scope)
                position = next(
                    (index for index, output in enumerate(query.outputs)
                     if _same_value(output.expression, expression)), None)
                if position is None:
                    if query.distinct:
                        raise AnalysisError(
                            "for SELECT DISTINCT, ORDER BY expressions must "
                            "appear in the select list")
                    position = len(names) + len(extras)
                    extras.append(expression)
            keys.append(SortKey(expression, item.descending, position))
        query.order_keys = keys
        query.order_extras = extras

    # -- expressions ---------------------------------------------------------------------

    def _predicate(self, node: Expression, scope: _Scope, where: str) -> None:
        kind = self._expr(node, scope)
        if kind not in (SqlType.BOOLEAN, SqlType.ANY):
            raise AnalysisError(
                f"argument of {where} must be type boolean, not type "
                f"{kind.value}: {node.sql()}")

    def _expr(self, node: Expression, scope: _Scope) -> SqlType:
        """Bind every reference under *node*; its static type."""
        if isinstance(node, ColumnRef):
            return self._resolve(node, scope)
        if isinstance(node, Literal):
            return infer_type(node.value)
        if isinstance(node, (InSubquery, QuantifiedComparison)):
            self._expr(node.operand, scope)
            self.bind_query(node.query, scope)
            return SqlType.BOOLEAN
        if isinstance(node, ExistsSubquery):
            self.bind_query(node.query, scope)
            return SqlType.BOOLEAN
        if isinstance(node, ScalarSubquery):
            columns = self.bind_query(node.query, scope)
            return columns[0].type if len(columns) == 1 else SqlType.ANY
        if isinstance(node, BinaryOp):
            op = node.operator.lower()
            if op in ("and", "or"):
                self._predicate(node.left, scope, op.upper())
                self._predicate(node.right, scope, op.upper())
                return SqlType.BOOLEAN
            left = self._expr(node.left, scope)
            right = self._expr(node.right, scope)
            if op in _COMPARISONS:
                return SqlType.BOOLEAN
            if op == "||":
                return SqlType.TEXT
            if left == right == SqlType.INTEGER:
                # An exact integer quotient stays an int, any other is real.
                return SqlType.ANY if op == "/" else SqlType.INTEGER
            if left in _NUMERIC and right in _NUMERIC:
                return SqlType.REAL
            return SqlType.ANY
        if isinstance(node, UnaryOp):
            if node.operator.lower() == "not":
                self._predicate(node.operand, scope, "NOT")
                return SqlType.BOOLEAN
            return self._expr(node.operand, scope)
        if isinstance(node, CaseExpression):
            if node.operand is not None:
                self._expr(node.operand, scope)
            results = set()
            for condition, result in node.branches:
                if node.operand is None:
                    self._predicate(condition, scope, "CASE WHEN")
                else:
                    self._expr(condition, scope)
                results.add(self._expr(result, scope))
            if node.otherwise is not None:
                results.add(self._expr(node.otherwise, scope))
            return results.pop() if len(results) == 1 else SqlType.ANY
        for child in node.children():
            if not isinstance(child, Star):
                self._expr(child, scope)
        if isinstance(node, AggregateCall):
            return SqlType.INTEGER if node.name.lower() == "count" \
                else SqlType.ANY
        if isinstance(node, FunctionCall):
            return SqlType.ANY
        # IN lists, BETWEEN, LIKE and IS NULL are predicates; parameters
        # and other leaves are untyped until run time.
        return SqlType.BOOLEAN if node.children() else SqlType.ANY

    def _resolve(self, ref: ColumnRef, scope: _Scope) -> SqlType:
        depth = 0
        current: Optional[_Scope] = scope
        while current is not None:
            matches = current.schema.find(ref.name, ref.qualifier)
            if len(matches) > 1:
                current.schema.index_of(ref.name, ref.qualifier)  # ambiguous
            if matches:
                index = matches[0]
                source = bisect_right(current.starts, index) - 1
                ref.depth, ref.input, ref.index = depth, source, index
                ref.column = index - current.starts[source]
                ref.type = current.schema[index].type
                inner = scope
                for _ in range(depth):
                    self._correlated.add(id(inner.query))
                    inner = inner.outer
                return ref.type
            current = current.outer
            depth += 1
        raise UnknownColumnError(ref.sql(), tuple(scope.schema.qualified_names()))


def _same_value(left: Expression, right: Expression) -> bool:
    """True when two bound expressions compute the same value."""
    if isinstance(left, ColumnRef) and isinstance(right, ColumnRef):
        return (left.depth, left.index) == (right.depth, right.index)
    return left == right
