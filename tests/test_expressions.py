"""Unit tests for scalar expressions and their SQL NULL semantics."""

from __future__ import annotations

import pytest

from repro.errors import ExpressionError, UnknownColumnError
from repro.relational.expressions import (
    Between,
    BinaryOp,
    CaseExpression,
    ColumnRef,
    EvalContext,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    Star,
    UnaryOp,
    contains_aggregate,
    expression_columns,
)
from repro.relational.expressions import AggregateCall
from repro.relational.schema import Column, Schema

from binding import bind_expression


def ctx(**columns):
    """Build an EvalContext from keyword column/value pairs."""
    return EvalContext(row=tuple(columns.values()))


def value(expression, **columns):
    """Bind *expression* against the keyword columns, as the binder does
    before execution, then evaluate it on their values."""
    bind_expression(expression, Schema(list(columns)))
    return expression.evaluate(ctx(**columns))


class TestLiteralsAndColumns:
    def test_literal(self):
        assert Literal(5).evaluate(ctx()) == 5
        assert Literal(None).evaluate(ctx()) is None

    def test_column_lookup(self):
        assert value(ColumnRef("A"), A=7, B=8) == 7

    def test_qualified_column_lookup(self):
        schema = Schema([Column("A", qualifier="r"), Column("A", qualifier="s")])
        reference = bind_expression(ColumnRef("A", "s"), schema)
        assert reference.evaluate(EvalContext(row=(1, 2))) == 2

    def test_unknown_column(self):
        with pytest.raises(UnknownColumnError):
            value(ColumnRef("Z"), A=1)

    def test_outer_scope_resolution(self):
        inner = EvalContext(row=(20,), outer=ctx(A=10))
        assert ColumnRef("A", depth=1, index=0).evaluate(inner) == 10
        assert ColumnRef("B", depth=0, index=0).evaluate(inner) == 20

    def test_star_cannot_evaluate(self):
        with pytest.raises(ExpressionError):
            Star().evaluate(ctx(A=1))


class TestArithmetic:
    def test_basic_operations(self):
        assert BinaryOp("+", Literal(2), Literal(3)).evaluate(ctx()) == 5
        assert BinaryOp("-", Literal(2), Literal(3)).evaluate(ctx()) == -1
        assert BinaryOp("*", Literal(4), Literal(3)).evaluate(ctx()) == 12

    def test_integer_division_stays_integral_when_exact(self):
        assert BinaryOp("/", Literal(6), Literal(3)).evaluate(ctx()) == 2
        assert BinaryOp("/", Literal(7), Literal(2)).evaluate(ctx()) == 3.5

    def test_division_by_zero_is_null(self):
        assert BinaryOp("/", Literal(1), Literal(0)).evaluate(ctx()) is None
        assert BinaryOp("%", Literal(1), Literal(0)).evaluate(ctx()) is None

    def test_null_propagates(self):
        assert BinaryOp("+", Literal(None), Literal(3)).evaluate(ctx()) is None

    def test_non_numeric_operand_raises(self):
        with pytest.raises(ExpressionError):
            BinaryOp("+", Literal("x"), Literal(3)).evaluate(ctx())

    def test_unary_minus(self):
        assert UnaryOp("-", Literal(4)).evaluate(ctx()) == -4
        assert UnaryOp("-", Literal(None)).evaluate(ctx()) is None

    def test_string_concatenation(self):
        assert BinaryOp("||", Literal("a"), Literal("b")).evaluate(ctx()) == "ab"


class TestComparisonsAndLogic:
    def test_equality_and_inequality(self):
        assert BinaryOp("=", Literal(1), Literal(1)).evaluate(ctx()) is True
        assert BinaryOp("<>", Literal(1), Literal(1)).evaluate(ctx()) is False
        assert BinaryOp("=", Literal(None), Literal(1)).evaluate(ctx()) is None

    def test_ordering_comparisons(self):
        assert BinaryOp("<", Literal(1), Literal(2)).evaluate(ctx()) is True
        assert BinaryOp(">=", Literal(2), Literal(2)).evaluate(ctx()) is True
        assert BinaryOp(">", Literal(None), Literal(2)).evaluate(ctx()) is None

    def test_and_or_not_three_valued(self):
        true, false, null = Literal(True), Literal(False), Literal(None)
        assert BinaryOp("and", true, null).evaluate(ctx()) is None
        assert BinaryOp("and", false, null).evaluate(ctx()) is False
        assert BinaryOp("or", true, null).evaluate(ctx()) is True
        assert BinaryOp("or", false, null).evaluate(ctx()) is None
        assert UnaryOp("not", null).evaluate(ctx()) is None

    def test_non_boolean_operands_raise(self):
        # A predicate must be boolean or NULL (PostgreSQL's rule).
        with pytest.raises(ExpressionError):
            BinaryOp("and", Literal(1), Literal(True)).evaluate(ctx())
        with pytest.raises(ExpressionError):
            BinaryOp("or", Literal(0), Literal(False)).evaluate(ctx())
        with pytest.raises(ExpressionError):
            UnaryOp("not", Literal("yes")).evaluate(ctx())


class TestPredicates:
    def test_in_list(self):
        expr = InList(ColumnRef("A"), [Literal(1), Literal(2)])
        assert value(expr, A=2) is True
        assert value(expr, A=5) is False

    def test_in_list_with_null_member_is_unknown(self):
        expr = InList(Literal(5), [Literal(1), Literal(None)])
        assert expr.evaluate(ctx()) is None

    def test_not_in(self):
        expr = InList(Literal(3), [Literal(1), Literal(2)], negated=True)
        assert expr.evaluate(ctx()) is True

    def test_is_null(self):
        assert IsNull(Literal(None)).evaluate(ctx()) is True
        assert IsNull(Literal(1), negated=True).evaluate(ctx()) is True

    def test_between(self):
        expr = Between(ColumnRef("A"), Literal(1), Literal(10))
        assert value(expr, A=5) is True
        assert value(expr, A=11) is False
        assert value(expr, A=None) is None

    def test_like(self):
        assert Like(Literal("whale"), Literal("wha%")).evaluate(ctx()) is True
        assert Like(Literal("whale"), Literal("_hale")).evaluate(ctx()) is True
        assert Like(Literal("whale"), Literal("orca%")).evaluate(ctx()) is False
        assert Like(Literal(None), Literal("x")).evaluate(ctx()) is None

    def test_case_with_operand(self):
        expr = CaseExpression(ColumnRef("G"), [(Literal("cow"), Literal(1))],
                              Literal(0))
        assert value(expr, G="cow") == 1
        assert value(expr, G="bull") == 0

    def test_searched_case_without_else_is_null(self):
        expr = CaseExpression(None, [(BinaryOp(">", ColumnRef("A"), Literal(0)),
                                      Literal("pos"))])
        assert value(expr, A=5) == "pos"
        assert value(expr, A=-5) is None


class TestFunctions:
    def test_known_functions(self):
        assert FunctionCall("abs", [Literal(-3)]).evaluate(ctx()) == 3
        assert FunctionCall("upper", [Literal("ab")]).evaluate(ctx()) == "AB"
        assert FunctionCall("length", [Literal("abc")]).evaluate(ctx()) == 3
        assert FunctionCall("coalesce",
                            [Literal(None), Literal(7)]).evaluate(ctx()) == 7
        assert FunctionCall("substr",
                            [Literal("whale"), Literal(2), Literal(3)]
                            ).evaluate(ctx()) == "hal"

    def test_nullif(self):
        assert FunctionCall("nullif", [Literal(1), Literal(1)]).evaluate(ctx()) is None
        assert FunctionCall("nullif", [Literal(1), Literal(2)]).evaluate(ctx()) == 1

    def test_unknown_function(self):
        with pytest.raises(ExpressionError):
            FunctionCall("frobnicate", [Literal(1)]).evaluate(ctx())

    def test_null_input_yields_null(self):
        assert FunctionCall("sqrt", [Literal(None)]).evaluate(ctx()) is None


class TestTreeWalks:
    def test_expression_columns(self):
        expr = BinaryOp("and",
                        BinaryOp("=", ColumnRef("Id", "i2"), Literal(2)),
                        BinaryOp("=", ColumnRef("Pos"), Literal("b")))
        names = [(ref.qualifier, ref.name) for ref in expression_columns(expr)]
        assert names == [("i2", "Id"), (None, "Pos")]

    def test_contains_aggregate(self):
        assert contains_aggregate(AggregateCall("sum", ColumnRef("B")))
        wrapped = BinaryOp("<", AggregateCall("sum", ColumnRef("B")), Literal(50))
        assert contains_aggregate(wrapped)
        assert not contains_aggregate(ColumnRef("B"))

    def test_aggregate_outside_group_context_raises(self):
        with pytest.raises(ExpressionError):
            AggregateCall("sum", ColumnRef("B")).evaluate(ctx(B=1))

    def test_sql_rendering_round_trips_key_shapes(self):
        expr = BinaryOp("=", ColumnRef("A", "r"), Literal("a3"))
        assert expr.sql() == "(r.A = 'a3')"
        assert IsNull(ColumnRef("A")).sql() == "(A IS NULL)"
        assert AggregateCall("sum", ColumnRef("B")).sql() == "sum(B)"
