"""Scalar expression trees and their evaluation.

Expressions are evaluated against an :class:`EvalContext`, which exposes the
current row, the chain of outer rows (for correlated subqueries) and a
callback for evaluating nested queries; column references arrive bound to
positions by :mod:`repro.core.binder`.  Evaluation follows SQL
semantics: NULL propagates through arithmetic and comparisons, and boolean
connectives use three-valued logic.

The expression node classes are shared between the relational substrate, the
SQL parser (which produces them directly) and the I-SQL engine.
"""

from __future__ import annotations

import copy
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional, Sequence

from ..errors import ExpressionError
from .types import (
    SqlType,
    sql_compare,
    sql_equal,
    three_valued_and,
    three_valued_not,
    three_valued_or,
)

__all__ = [
    "EvalContext",
    "Expression",
    "Literal",
    "Parameter",
    "bound_parameters",
    "ColumnRef",
    "Star",
    "BinaryOp",
    "UnaryOp",
    "FunctionCall",
    "AggregateCall",
    "CaseExpression",
    "InList",
    "InSubquery",
    "ExistsSubquery",
    "ScalarSubquery",
    "QuantifiedComparison",
    "IsNull",
    "Between",
    "Like",
    "expression_columns",
    "contains_aggregate",
    "contains_subquery",
    "conjuncts",
    "rewrite",
]


@dataclass
class EvalContext:
    """Everything an expression needs to evaluate itself.

    Column references are bound before evaluation (:mod:`repro.core.binder`)
    to a scope depth and a position, so a context is just the current row
    and the chain of enclosing rows.

    Parameters
    ----------
    row:
        The current tuple of values (may be ``None`` for constant folding).
    outer:
        The enclosing context when evaluating a correlated subquery, or
        ``None`` at the top level.
    subquery_evaluator:
        Callback ``(query_ast, context) -> list[tuple]`` used to evaluate
        nested queries.  It is provided by the query executor; the relational
        substrate itself never parses SQL.
    """

    row: Optional[tuple] = None
    outer: Optional["EvalContext"] = None
    subquery_evaluator: Optional[Callable[[Any, "EvalContext"], list[tuple]]] = None

    def evaluate_subquery(self, query: Any) -> list[tuple]:
        """Evaluate a nested query AST through the installed callback."""
        if self.subquery_evaluator is None:
            raise ExpressionError(
                "subquery evaluation is not available in this context")
        return self.subquery_evaluator(query, self)


class Expression:
    """Base class of all scalar expressions."""

    def evaluate(self, context: EvalContext) -> Any:
        """Return the value of this expression in *context*."""
        raise NotImplementedError

    def children(self) -> Sequence["Expression"]:
        """Return the direct sub-expressions (used by tree walks)."""
        return ()

    def sql(self) -> str:
        """Return an SQL-like rendering of the expression (for messages)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.sql()})"


@dataclass(repr=False)
class Literal(Expression):
    """A constant value (number, string, boolean or NULL)."""

    value: Any

    def evaluate(self, context: EvalContext) -> Any:
        return self.value

    def sql(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        return str(self.value)


#: Per-thread parameter bindings for prepared statements.  Bindings are
#: thread-local so one prepared statement (one shared AST) can execute
#: concurrently in many threads with different arguments — see
#: :mod:`repro.serving.prepared`.
_PARAMETER_BINDINGS = threading.local()


@contextmanager
def bound_parameters(values: Sequence[Any]) -> Iterator[None]:
    """Bind positional parameter values (``?``) for the calling thread.

    Every :class:`Parameter` evaluated on this thread while the context is
    active reads its value from *values* by ordinal.  Bindings nest (the
    previous binding is restored on exit), though statements never do in
    practice — subqueries evaluate under their statement's binding.
    """
    previous = getattr(_PARAMETER_BINDINGS, "values", None)
    _PARAMETER_BINDINGS.values = tuple(values)
    try:
        yield
    finally:
        _PARAMETER_BINDINGS.values = previous


@dataclass(repr=False)
class Parameter(Expression):
    """A positional ``?`` placeholder in a prepared statement.

    ``index`` is the 0-based ordinal of the placeholder within its statement
    (assigned left to right by the parser).  Evaluation reads the calling
    thread's active binding (:func:`bound_parameters`); evaluating outside a
    binding — e.g. executing parameterised SQL without arguments — raises.
    """

    index: int

    def evaluate(self, context: EvalContext) -> Any:
        values = getattr(_PARAMETER_BINDINGS, "values", None)
        if values is None:
            raise ExpressionError(
                f"parameter ?{self.index + 1} is unbound; prepare the "
                "statement and execute it with arguments")
        if self.index >= len(values):
            raise ExpressionError(
                f"parameter ?{self.index + 1} is unbound: only "
                f"{len(values)} argument(s) were supplied")
        return values[self.index]

    def sql(self) -> str:
        # The ordinal keeps distinct parameters distinct wherever rendered
        # SQL is compared (e.g. GROUP BY key matching in aggregate analysis).
        return f"?{self.index + 1}"


@dataclass(repr=False)
class ColumnRef(Expression):
    """A reference to a column, optionally qualified (``alias.column``).

    The binder (:mod:`repro.core.binder`) resolves the name once per
    statement: ``depth`` counts the enclosing SELECT blocks to climb (0 is
    the reference's own block, >= 1 a correlated reference), ``input`` is
    the FROM item and ``column`` the position within it, ``index`` the
    position in the block's joined row and ``type`` the declared type.
    """

    name: str
    qualifier: str | None = None
    depth: int = field(default=0, compare=False)
    input: int = field(default=0, compare=False)
    column: Optional[int] = field(default=None, compare=False)
    index: Optional[int] = field(default=None, compare=False)
    type: SqlType = field(default=SqlType.ANY, compare=False)

    def evaluate(self, context: EvalContext) -> Any:
        depth = self.depth
        while depth:
            context = context.outer
            depth -= 1
        if context.row is None:  # e.g. an ungrouped column, empty group
            raise ExpressionError(
                f"column {self.name!r} referenced outside of a row context")
        return context.row[self.index]

    def sql(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


@dataclass(repr=False)
class Star(Expression):
    """``*`` or ``alias.*`` in a select list; expanded by the binder."""

    qualifier: str | None = None

    def evaluate(self, context: EvalContext) -> Any:
        raise ExpressionError("'*' cannot be evaluated as a scalar expression")

    def sql(self) -> str:
        return f"{self.qualifier}.*" if self.qualifier else "*"


_ARITHMETIC_OPS = {"+", "-", "*", "/", "%"}
_COMPARISON_OPS = {"=", "<>", "!=", "<", "<=", ">", ">="}
_LOGICAL_OPS = {"and", "or"}
_STRING_OPS = {"||"}


@dataclass(repr=False)
class BinaryOp(Expression):
    """A binary operator: arithmetic, comparison, logical or concatenation."""

    operator: str
    left: Expression
    right: Expression

    def children(self) -> Sequence[Expression]:
        return (self.left, self.right)

    def evaluate(self, context: EvalContext) -> Any:
        op = self.operator.lower()
        if op in _LOGICAL_OPS:
            return self._evaluate_logical(op, context)
        left = self.left.evaluate(context)
        right = self.right.evaluate(context)
        if op in _COMPARISON_OPS:
            return _compare(op, left, right)
        if op in _ARITHMETIC_OPS:
            return _arithmetic(op, left, right)
        if op in _STRING_OPS:
            if left is None or right is None:
                return None
            return str(left) + str(right)
        raise ExpressionError(f"unknown binary operator {self.operator!r}")

    def _evaluate_logical(self, op: str, context: EvalContext) -> bool | None:
        left = _as_boolean(self.left.evaluate(context))
        # Short-circuit where three-valued logic allows it.
        if op == "and" and left is False:
            return False
        if op == "or" and left is True:
            return True
        right = _as_boolean(self.right.evaluate(context))
        if op == "and":
            return three_valued_and(left, right)
        return three_valued_or(left, right)

    def sql(self) -> str:
        return f"({self.left.sql()} {self.operator} {self.right.sql()})"


@dataclass(repr=False)
class UnaryOp(Expression):
    """A unary operator: ``-``, ``+`` or ``NOT``."""

    operator: str
    operand: Expression

    def children(self) -> Sequence[Expression]:
        return (self.operand,)

    def evaluate(self, context: EvalContext) -> Any:
        value = self.operand.evaluate(context)
        op = self.operator.lower()
        if op == "not":
            return three_valued_not(_as_boolean(value))
        if value is None:
            return None
        if op == "-":
            _require_number(value, "unary -")
            return -value
        if op == "+":
            _require_number(value, "unary +")
            return value
        raise ExpressionError(f"unknown unary operator {self.operator!r}")

    def sql(self) -> str:
        return f"({self.operator} {self.operand.sql()})"


#: Scalar functions available in queries; all treat NULL arguments as NULL
#: output unless documented otherwise.
_SCALAR_FUNCTIONS: dict[str, Callable[..., Any]] = {}


def scalar_function(name: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register a scalar SQL function under *name* (decorator)."""

    def register(func: Callable[..., Any]) -> Callable[..., Any]:
        _SCALAR_FUNCTIONS[name.lower()] = func
        return func

    return register


@scalar_function("abs")
def _fn_abs(value: Any) -> Any:
    if value is None:
        return None
    _require_number(value, "abs")
    return abs(value)


@scalar_function("round")
def _fn_round(value: Any, digits: Any = 0) -> Any:
    if value is None:
        return None
    _require_number(value, "round")
    result = round(float(value), int(digits or 0))
    return result


@scalar_function("length")
def _fn_length(value: Any) -> Any:
    if value is None:
        return None
    return len(str(value))

@scalar_function("lower")
def _fn_lower(value: Any) -> Any:
    return None if value is None else str(value).lower()


@scalar_function("upper")
def _fn_upper(value: Any) -> Any:
    return None if value is None else str(value).upper()


@scalar_function("trim")
def _fn_trim(value: Any) -> Any:
    return None if value is None else str(value).strip()


@scalar_function("substr")
def _fn_substr(value: Any, start: Any, length: Any = None) -> Any:
    if value is None or start is None:
        return None
    text = str(value)
    begin = max(int(start) - 1, 0)
    if length is None:
        return text[begin:]
    return text[begin:begin + int(length)]


@scalar_function("coalesce")
def _fn_coalesce(*values: Any) -> Any:
    for value in values:
        if value is not None:
            return value
    return None


@scalar_function("nullif")
def _fn_nullif(left: Any, right: Any) -> Any:
    return None if sql_equal(left, right) is True else left


@scalar_function("sqrt")
def _fn_sqrt(value: Any) -> Any:
    if value is None:
        return None
    _require_number(value, "sqrt")
    return math.sqrt(float(value))


@scalar_function("power")
def _fn_power(base: Any, exponent: Any) -> Any:
    if base is None or exponent is None:
        return None
    _require_number(base, "power")
    _require_number(exponent, "power")
    return float(base) ** float(exponent)


@scalar_function("floor")
def _fn_floor(value: Any) -> Any:
    if value is None:
        return None
    _require_number(value, "floor")
    return math.floor(value)


@scalar_function("ceil")
def _fn_ceil(value: Any) -> Any:
    if value is None:
        return None
    _require_number(value, "ceil")
    return math.ceil(value)


@dataclass(repr=False)
class FunctionCall(Expression):
    """A call of a scalar function such as ``abs`` or ``coalesce``."""

    name: str
    arguments: list[Expression] = field(default_factory=list)

    def children(self) -> Sequence[Expression]:
        return tuple(self.arguments)

    def evaluate(self, context: EvalContext) -> Any:
        function = _SCALAR_FUNCTIONS.get(self.name.lower())
        if function is None:
            raise ExpressionError(f"unknown function {self.name!r}")
        values = [argument.evaluate(context) for argument in self.arguments]
        return function(*values)

    def sql(self) -> str:
        args = ", ".join(argument.sql() for argument in self.arguments)
        return f"{self.name}({args})"


@dataclass(repr=False)
class AggregateCall(Expression):
    """An aggregate call (``sum(B)``, ``count(*)``...).

    Aggregates cannot be evaluated against a single row; the group-by
    operator computes them over a group of rows and substitutes the result.
    ``evaluate`` therefore raises unless the planner has already replaced the
    node, which keeps accidental misuse loud.
    """

    name: str
    argument: Expression | None = None
    distinct: bool = False

    def children(self) -> Sequence[Expression]:
        return (self.argument,) if self.argument is not None else ()

    def evaluate(self, context: EvalContext) -> Any:
        raise ExpressionError(
            f"aggregate {self.name!r} evaluated outside of a GROUP BY context")

    def sql(self) -> str:
        inner = "*" if self.argument is None else self.argument.sql()
        prefix = "DISTINCT " if self.distinct else ""
        return f"{self.name}({prefix}{inner})"


@dataclass(repr=False)
class CaseExpression(Expression):
    """``CASE [operand] WHEN ... THEN ... [ELSE ...] END``."""

    operand: Expression | None
    branches: list[tuple[Expression, Expression]]
    otherwise: Expression | None = None

    def children(self) -> Sequence[Expression]:
        nodes: list[Expression] = []
        if self.operand is not None:
            nodes.append(self.operand)
        for condition, result in self.branches:
            nodes.extend((condition, result))
        if self.otherwise is not None:
            nodes.append(self.otherwise)
        return tuple(nodes)

    def evaluate(self, context: EvalContext) -> Any:
        if self.operand is not None:
            subject = self.operand.evaluate(context)
            for condition, result in self.branches:
                if sql_equal(subject, condition.evaluate(context)) is True:
                    return result.evaluate(context)
        else:
            for condition, result in self.branches:
                if _as_boolean(condition.evaluate(context)):
                    return result.evaluate(context)
        if self.otherwise is not None:
            return self.otherwise.evaluate(context)
        return None

    def sql(self) -> str:
        parts = ["CASE"]
        if self.operand is not None:
            parts.append(self.operand.sql())
        for condition, result in self.branches:
            parts.append(f"WHEN {condition.sql()} THEN {result.sql()}")
        if self.otherwise is not None:
            parts.append(f"ELSE {self.otherwise.sql()}")
        parts.append("END")
        return " ".join(parts)


@dataclass(repr=False)
class InList(Expression):
    """``expr [NOT] IN (value, value, ...)``."""

    operand: Expression
    values: list[Expression]
    negated: bool = False

    def children(self) -> Sequence[Expression]:
        return tuple([self.operand] + self.values)

    def evaluate(self, context: EvalContext) -> bool | None:
        subject = self.operand.evaluate(context)
        found = False
        saw_null = False
        for value_expr in self.values:
            value = value_expr.evaluate(context)
            result = sql_equal(subject, value)
            if result is True:
                found = True
                break
            if result is None:
                saw_null = True
        outcome: bool | None
        if found:
            outcome = True
        elif saw_null:
            outcome = None
        else:
            outcome = False
        return three_valued_not(outcome) if self.negated else outcome

    def sql(self) -> str:
        values = ", ".join(value.sql() for value in self.values)
        keyword = "NOT IN" if self.negated else "IN"
        return f"({self.operand.sql()} {keyword} ({values}))"


@dataclass(repr=False)
class InSubquery(Expression):
    """``expr [NOT] IN (SELECT ...)``; the subquery must return one column."""

    operand: Expression
    query: Any
    negated: bool = False

    def children(self) -> Sequence[Expression]:
        return (self.operand,)

    def evaluate(self, context: EvalContext) -> bool | None:
        subject = self.operand.evaluate(context)
        rows = context.evaluate_subquery(self.query)
        found = False
        saw_null = False
        for row in rows:
            if len(row) != 1:
                raise ExpressionError("IN subquery must return a single column")
            result = sql_equal(subject, row[0])
            if result is True:
                found = True
                break
            if result is None:
                saw_null = True
        outcome: bool | None
        if found:
            outcome = True
        elif saw_null:
            outcome = None
        else:
            outcome = False
        return three_valued_not(outcome) if self.negated else outcome

    def sql(self) -> str:
        keyword = "NOT IN" if self.negated else "IN"
        return f"({self.operand.sql()} {keyword} (<subquery>))"


@dataclass(repr=False)
class ExistsSubquery(Expression):
    """``[NOT] EXISTS (SELECT ...)``."""

    query: Any
    negated: bool = False

    def evaluate(self, context: EvalContext) -> bool:
        rows = context.evaluate_subquery(self.query)
        result = len(rows) > 0
        return not result if self.negated else result

    def sql(self) -> str:
        keyword = "NOT EXISTS" if self.negated else "EXISTS"
        return f"{keyword} (<subquery>)"


@dataclass(repr=False)
class ScalarSubquery(Expression):
    """A subquery used as a scalar value; empty result means NULL."""

    query: Any

    def evaluate(self, context: EvalContext) -> Any:
        rows = context.evaluate_subquery(self.query)
        if not rows:
            return None
        if len(rows) > 1:
            raise ExpressionError("scalar subquery returned more than one row")
        row = rows[0]
        if len(row) != 1:
            raise ExpressionError("scalar subquery must return a single column")
        return row[0]

    def sql(self) -> str:
        return "(<scalar subquery>)"


@dataclass(repr=False)
class QuantifiedComparison(Expression):
    """``expr op ANY (SELECT ...)`` or ``expr op ALL (SELECT ...)``."""

    operator: str
    operand: Expression
    query: Any
    quantifier: str = "any"  # "any" or "all"

    def children(self) -> Sequence[Expression]:
        return (self.operand,)

    def evaluate(self, context: EvalContext) -> bool | None:
        subject = self.operand.evaluate(context)
        rows = context.evaluate_subquery(self.query)
        results: list[bool | None] = []
        for row in rows:
            if len(row) != 1:
                raise ExpressionError(
                    "quantified subquery must return a single column")
            results.append(_compare(self.operator, subject, row[0]))
        if self.quantifier.lower() == "any":
            if any(result is True for result in results):
                return True
            if any(result is None for result in results):
                return None
            return False
        # ALL
        if any(result is False for result in results):
            return False
        if any(result is None for result in results):
            return None
        return True

    def sql(self) -> str:
        return (f"({self.operand.sql()} {self.operator} "
                f"{self.quantifier.upper()} (<subquery>))")


@dataclass(repr=False)
class IsNull(Expression):
    """``expr IS [NOT] NULL``."""

    operand: Expression
    negated: bool = False

    def children(self) -> Sequence[Expression]:
        return (self.operand,)

    def evaluate(self, context: EvalContext) -> bool:
        value = self.operand.evaluate(context)
        result = value is None
        return not result if self.negated else result

    def sql(self) -> str:
        keyword = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand.sql()} {keyword})"


@dataclass(repr=False)
class Between(Expression):
    """``expr [NOT] BETWEEN low AND high``."""

    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False

    def children(self) -> Sequence[Expression]:
        return (self.operand, self.low, self.high)

    def evaluate(self, context: EvalContext) -> bool | None:
        value = self.operand.evaluate(context)
        low = self.low.evaluate(context)
        high = self.high.evaluate(context)
        lower_ok = _compare(">=", value, low)
        upper_ok = _compare("<=", value, high)
        outcome = three_valued_and(lower_ok, upper_ok)
        return three_valued_not(outcome) if self.negated else outcome

    def sql(self) -> str:
        keyword = "NOT BETWEEN" if self.negated else "BETWEEN"
        return (f"({self.operand.sql()} {keyword} "
                f"{self.low.sql()} AND {self.high.sql()})")


@dataclass(repr=False)
class Like(Expression):
    """``expr [NOT] LIKE pattern`` with ``%`` and ``_`` wildcards."""

    operand: Expression
    pattern: Expression
    negated: bool = False

    def children(self) -> Sequence[Expression]:
        return (self.operand, self.pattern)

    def evaluate(self, context: EvalContext) -> bool | None:
        value = self.operand.evaluate(context)
        pattern = self.pattern.evaluate(context)
        if value is None or pattern is None:
            return None
        outcome = _like_match(str(value), str(pattern))
        return not outcome if self.negated else outcome

    def sql(self) -> str:
        keyword = "NOT LIKE" if self.negated else "LIKE"
        return f"({self.operand.sql()} {keyword} {self.pattern.sql()})"


def _like_match(value: str, pattern: str) -> bool:
    """Case-insensitive LIKE matching with ``%`` and ``_`` wildcards."""
    import re

    regex_parts = []
    for char in pattern:
        if char == "%":
            regex_parts.append(".*")
        elif char == "_":
            regex_parts.append(".")
        else:
            regex_parts.append(re.escape(char))
    regex = "^" + "".join(regex_parts) + "$"
    return re.match(regex, value, re.IGNORECASE) is not None


# -- helpers -------------------------------------------------------------------------


def _as_boolean(value: Any) -> bool | None:
    """The truth value of *value* in a boolean context (NULL stays unknown).

    A predicate must be boolean or NULL (PostgreSQL's rule).  The binder
    refuses a declared non-boolean type before execution; a value of an
    undeclared (``ANY``) type that is not a boolean is refused here, by the
    one check every boolean context calls.
    """
    if value is None or value is True or value is False:
        return value
    raise ExpressionError(
        f"argument of a boolean context must be boolean, not {value!r}")


def _require_number(value: Any, where: str) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ExpressionError(f"{where} requires a numeric operand, got {value!r}")


def _arithmetic(op: str, left: Any, right: Any) -> Any:
    if left is None or right is None:
        return None
    _require_number(left, f"operator {op}")
    _require_number(right, f"operator {op}")
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            return None  # SQL engines commonly map division by zero to NULL.
        result = left / right
        if isinstance(left, int) and isinstance(right, int) and left % right == 0:
            return left // right
        return result
    if op == "%":
        if right == 0:
            return None
        return left % right
    raise ExpressionError(f"unknown arithmetic operator {op!r}")


def _compare(op: str, left: Any, right: Any) -> bool | None:
    if op in ("=", "=="):
        return sql_equal(left, right)
    if op in ("<>", "!="):
        return three_valued_not(sql_equal(left, right))
    ordering = sql_compare(left, right)
    if ordering is None:
        return None
    if op == "<":
        return ordering < 0
    if op == "<=":
        return ordering <= 0
    if op == ">":
        return ordering > 0
    if op == ">=":
        return ordering >= 0
    raise ExpressionError(f"unknown comparison operator {op!r}")


def expression_columns(expression: Expression) -> list[ColumnRef]:
    """Return every :class:`ColumnRef` appearing in *expression* (pre-order)."""
    refs: list[ColumnRef] = []

    def walk(node: Expression) -> None:
        if isinstance(node, ColumnRef):
            refs.append(node)
        for child in node.children():
            walk(child)

    walk(expression)
    return refs


def contains_aggregate(expression: Expression) -> bool:
    """Return True when *expression* contains an :class:`AggregateCall`."""
    if isinstance(expression, AggregateCall):
        return True
    return any(contains_aggregate(child) for child in expression.children())


#: The expression nodes that carry a nested query.
SUBQUERY_NODES = (ScalarSubquery, InSubquery, ExistsSubquery,
                  QuantifiedComparison)


def contains_subquery(expression: Expression) -> bool:
    """Return True when *expression* contains a nested query."""
    if isinstance(expression, SUBQUERY_NODES):
        return True
    return any(contains_subquery(child) for child in expression.children())


def conjuncts(expression: Expression) -> list[Expression]:
    """Split a conjunction into its top-level conjuncts."""
    if isinstance(expression, BinaryOp) and expression.operator.lower() == "and":
        return conjuncts(expression.left) + conjuncts(expression.right)
    return [expression]


def rewrite(node: Expression,
            replace: Callable[[Expression], Optional[Expression]]) -> Expression:
    """Rebuild an expression tree top-down, substituting every node for
    which *replace* returns a replacement (copies keep their bindings)."""
    replacement = replace(node)
    if replacement is not None:
        return replacement
    clone = copy.copy(node)
    for attribute in ("left", "right", "operand", "low", "high", "pattern",
                      "argument"):
        child = getattr(clone, attribute, None)
        if isinstance(child, Expression):
            setattr(clone, attribute, rewrite(child, replace))
    for attribute in ("arguments", "values"):
        children = getattr(clone, attribute, None)
        if isinstance(children, list):
            setattr(clone, attribute,
                    [rewrite(child, replace) for child in children])
    if isinstance(clone, CaseExpression):
        clone.branches = [(rewrite(condition, replace),
                           rewrite(result, replace))
                          for condition, result in clone.branches]
        if clone.otherwise is not None:
            clone.otherwise = rewrite(clone.otherwise, replace)
    return clone
