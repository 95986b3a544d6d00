"""Columnar batch evaluation for the symbolic grounding hot loops.

The symbolic tier's dominant constant factor used to be per-row expression
interpretation: ``_filter`` / ``_project`` / ``_hash_join`` walked one
:class:`~repro.relational.expressions.EvalContext` per :class:`SymTuple`,
paying operator dispatch and three-valued glue for **every row**.  This module compiles a predicate or projection once
per batch into closures over parallel column arrays: each column is pulled
out of the row tuples in a single comprehension, comparisons run as one
tight pass producing a vectorised three-valued mask, and per-row work drops
to a few bytecode operations.

Semantics are exactly the row-at-a-time interpreter's: comparisons delegate
to :func:`~repro.relational.types.sql_equal` / ``sql_compare`` (with a
numeric fast path that provably agrees), logical connectives use
three-valued logic over whole masks, and NULL propagates through arithmetic.
The one observable difference — ``AND`` / ``OR`` no longer short-circuit, so
a row whose skipped operand would have raised now evaluates it — is handled
by the caller: executors catch :class:`~repro.errors.ExpressionError` from a
batch and re-run that batch row-at-a-time, which either answers with the
interpreter's exact behaviour or raises its exact error.

``compile_predicate`` / ``compile_projection`` return ``None`` whenever any
node falls outside the supported set (subqueries, aggregates, CASE, scalar
functions, LIKE, IN); the caller then keeps the interpreted loop and counts
a ``rowwise_fallbacks``.  Columns are plain Python lists — the natural next
step, NumPy-backed column storage with real vector kernels, is a ROADMAP
follow-up; the batch layout here is deliberately shaped so that swap stays
local to this module.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from ..relational.expressions import (
    Between,
    BinaryOp,
    ColumnRef,
    EvalContext,
    Expression,
    IsNull,
    Literal,
    Parameter,
    UnaryOp,
    _arithmetic,
    _as_boolean,
    _compare,
)
from ..relational.types import (
    three_valued_and,
    three_valued_not,
    three_valued_or,
)

__all__ = ["compile_predicate", "compile_projection"]


class _Const:
    """A compile- or bind-time scalar, broadcast over the batch."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value


#: A compiled node: rows -> column list (len == len(rows)) or a _Const.
_Node = Callable[[Sequence], Any]

#: Parameter nodes read the calling thread's binding; they need a context
#: object but no row, so one empty shared context suffices (it is never
#: mutated).
_PARAM_CONTEXT = EvalContext(row=())

_COMPARISON_OPS = frozenset({"=", "<>", "!=", "<", "<=", ">", ">="})
_ARITHMETIC_OPS = frozenset({"+", "-", "*", "/", "%"})


def _broadcast(value: Any, rows: Sequence) -> list:
    return [value] * len(rows)


def _as_column(result: Any, rows: Sequence) -> list:
    return _broadcast(result.value, rows) if isinstance(result, _Const) \
        else result


def _compile_column_ref(node: ColumnRef) -> Optional[_Node]:
    if node.depth:
        # Correlated references read an enclosing row: interpreted path.
        return None
    index = node.index

    def gather(rows: Sequence) -> list:
        return [row[index] for row in rows]

    return gather


def _numeric_fast_comparison(op: str) -> Callable[[Any, Any], bool]:
    """Native comparator valid when both sides are non-bool int/float.

    ``sql_compare`` ranks all numbers together and compares them as floats,
    which agrees with Python's native ``<``/``<=``/``>``/``>=`` on int and
    float operands — so the fast path is exact on that (overwhelmingly
    common) slice and everything else takes :func:`_compare`.
    """
    import operator

    return {"<": operator.lt, "<=": operator.le,
            ">": operator.gt, ">=": operator.ge}[op]


def _compile_comparison(op: str, left: _Node, right: _Node) -> _Node:
    ordered = op in ("<", "<=", ">", ">=")
    fast = _numeric_fast_comparison(op) if ordered else None

    def run(rows: Sequence) -> Any:
        lhs = left(rows)
        rhs = right(rows)
        if isinstance(lhs, _Const) and isinstance(rhs, _Const):
            return _Const(_compare(op, lhs.value, rhs.value))
        if isinstance(rhs, _Const):
            const = rhs.value
            col = lhs
            if const is None:
                return _broadcast(None, rows)
            if fast is not None and isinstance(const, (int, float)) \
                    and not isinstance(const, bool):
                return [fast(v, const)
                        if (type(v) is int or type(v) is float)
                        else _compare(op, v, const) for v in col]
            return [_compare(op, v, const) for v in col]
        if isinstance(lhs, _Const):
            const = lhs.value
            col = rhs
            if const is None:
                return _broadcast(None, rows)
            if fast is not None and isinstance(const, (int, float)) \
                    and not isinstance(const, bool):
                return [fast(const, v)
                        if (type(v) is int or type(v) is float)
                        else _compare(op, const, v) for v in col]
            return [_compare(op, const, v) for v in col]
        return [_compare(op, lv, rv) for lv, rv in zip(lhs, rhs)]

    return run


def _compile_logical(op: str, left: _Node, right: _Node) -> _Node:
    combine = three_valued_and if op == "and" else three_valued_or

    def run(rows: Sequence) -> Any:
        lhs = left(rows)
        rhs = right(rows)
        if isinstance(lhs, _Const) and isinstance(rhs, _Const):
            return _Const(combine(_as_boolean(lhs.value),
                                  _as_boolean(rhs.value)))
        lcol = _as_column(lhs, rows)
        rcol = _as_column(rhs, rows)
        return [combine(_as_boolean(lv), _as_boolean(rv))
                for lv, rv in zip(lcol, rcol)]

    return run


def _compile_arithmetic(op: str, left: _Node, right: _Node) -> _Node:
    def run(rows: Sequence) -> Any:
        lhs = left(rows)
        rhs = right(rows)
        if isinstance(lhs, _Const) and isinstance(rhs, _Const):
            return _Const(_arithmetic(op, lhs.value, rhs.value))
        if isinstance(rhs, _Const):
            const = rhs.value
            return [_arithmetic(op, v, const) for v in lhs]
        if isinstance(lhs, _Const):
            const = lhs.value
            return [_arithmetic(op, const, v) for v in rhs]
        return [_arithmetic(op, lv, rv) for lv, rv in zip(lhs, rhs)]

    return run


def _compile_node(node: Expression) -> Optional[_Node]:
    if isinstance(node, Literal):
        const = _Const(node.value)
        return lambda rows: const
    if isinstance(node, Parameter):
        # Bindings are thread-local and fixed for the statement's whole
        # execution, so one read per batch is exact.
        return lambda rows: _Const(node.evaluate(_PARAM_CONTEXT))
    if isinstance(node, ColumnRef):
        return _compile_column_ref(node)
    if isinstance(node, BinaryOp):
        op = node.operator.lower()
        left = _compile_node(node.left)
        right = _compile_node(node.right)
        if left is None or right is None:
            return None
        if op in ("and", "or"):
            return _compile_logical(op, left, right)
        if op in _COMPARISON_OPS:
            return _compile_comparison(op, left, right)
        if op in _ARITHMETIC_OPS:
            return _compile_arithmetic(op, left, right)
        if op == "||":
            def concat(rows: Sequence) -> Any:
                lcol = left(rows)
                rcol = right(rows)
                if isinstance(lcol, _Const) and isinstance(rcol, _Const):
                    lv, rv = lcol.value, rcol.value
                    return _Const(None if lv is None or rv is None
                                  else str(lv) + str(rv))
                lcol = _as_column(lcol, rows)
                rcol = _as_column(rcol, rows)
                return [None if lv is None or rv is None
                        else str(lv) + str(rv)
                        for lv, rv in zip(lcol, rcol)]
            return concat
        return None
    if isinstance(node, UnaryOp):
        operand = _compile_node(node.operand)
        if operand is None:
            return None
        op = node.operator.lower()
        if op == "not":
            def negate(rows: Sequence) -> Any:
                col = operand(rows)
                if isinstance(col, _Const):
                    return _Const(three_valued_not(_as_boolean(col.value)))
                return [three_valued_not(_as_boolean(v)) for v in col]
            return negate
        if op in ("-", "+"):
            # Reuse the interpreter elementwise so the numeric-operand
            # check raises its exact error.
            def signed(rows: Sequence) -> Any:
                col = operand(rows)
                if isinstance(col, _Const):
                    return _Const(_signed_value(op, col.value))
                return [_signed_value(op, v) for v in col]
            return signed
        return None
    if isinstance(node, IsNull):
        operand = _compile_node(node.operand)
        if operand is None:
            return None
        negated = node.negated

        def is_null(rows: Sequence) -> Any:
            col = operand(rows)
            if isinstance(col, _Const):
                result = col.value is None
                return _Const(not result if negated else result)
            if negated:
                return [v is not None for v in col]
            return [v is None for v in col]

        return is_null
    if isinstance(node, Between):
        operand = _compile_node(node.operand)
        low = _compile_node(node.low)
        high = _compile_node(node.high)
        if operand is None or low is None or high is None:
            return None
        lower = _compile_comparison(">=", operand, low)
        upper = _compile_comparison("<=", operand, high)
        negated = node.negated

        def between(rows: Sequence) -> Any:
            lo = lower(rows)
            hi = upper(rows)
            if isinstance(lo, _Const) and isinstance(hi, _Const):
                outcome = three_valued_and(lo.value, hi.value)
                return _Const(three_valued_not(outcome) if negated
                              else outcome)
            lo = _as_column(lo, rows)
            hi = _as_column(hi, rows)
            mask = [three_valued_and(lv, hv) for lv, hv in zip(lo, hi)]
            if negated:
                return [three_valued_not(v) for v in mask]
            return mask

        return between
    # Subqueries, aggregates, CASE, IN, LIKE, scalar functions: keep the
    # interpreted path (the caller counts a rowwise fallback).
    return None


def _signed_value(op: str, value: Any) -> Any:
    from ..relational.expressions import _require_number

    if value is None:
        return None
    _require_number(value, f"unary {op}")
    return -value if op == "-" else value


def _yields_boolean(node: Expression) -> bool:
    """True when *node* compiles to a column of True / False / None."""
    if isinstance(node, BinaryOp):
        return node.operator.lower() in _COMPARISON_OPS | {"and", "or"}
    if isinstance(node, UnaryOp):
        return node.operator.lower() == "not"
    return isinstance(node, (IsNull, Between))


def compile_predicate(predicate: Expression
                      ) -> Optional[Callable[[Sequence], list]]:
    """Compile a bound *predicate* into ``rows -> three-valued mask``, or
    None.

    The mask aligns with *rows* (the ``SymTuple`` list of a
    :class:`SymbolicRelation`); entries are True / False / None exactly as
    ``_as_boolean(predicate.evaluate(context))`` per row would produce,
    including its error on a non-boolean value.
    """
    compiled = _compile_node(predicate)
    if compiled is None:
        return None
    checked = not _yields_boolean(predicate)

    def mask(rows: Sequence) -> list:
        result = _as_column(compiled([sym.row for sym in rows]), rows)
        return [_as_boolean(value) for value in result] if checked \
            else result

    return mask


def compile_projection(expressions: Sequence[Expression]
                       ) -> Optional[Callable[[Sequence], list]]:
    """Compile output *expressions* into ``rows -> list of row tuples``.

    Returns None unless **every** output compiles; the caller then keeps the
    interpreted projection for the whole batch (mixing per-column paths
    would evaluate expressions out of row order).
    """
    compiled = [_compile_node(expression) for expression in expressions]
    if any(node is None for node in compiled):
        return None

    def project(rows: Sequence) -> list:
        raw = [sym.row for sym in rows]
        columns = [_as_column(node(raw), raw) for node in compiled]
        return list(zip(*columns)) if columns \
            else [()] * len(raw)

    return project
