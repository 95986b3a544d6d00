"""The columnar batch engine: exact parity with the row-at-a-time interpreter.

``repro.wsd.columnar`` compiles filter predicates and projection expressions
into closures over parallel column arrays.  Its contract is strict: for
every supported expression shape the batch result must equal evaluating the
same expression per row with an :class:`EvalContext`, including SQL
three-valued logic, NULL propagation, heterogeneous-type comparisons and
the error cases — and every unsupported shape must compile to ``None`` so
the executor keeps the interpreted loop.  The executor-level fallback
behaviour (counters, ExpressionError rescue) is covered here too.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import pytest

from repro import MayBMS
from repro.errors import ExpressionError
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
    Parameter,
    UnaryOp,
    bound_parameters,
)
from repro.relational.schema import Column, Schema
from repro.wsd.columnar import compile_predicate, compile_projection
from repro.wsd.execute import TRUE_CONDITION, SymTuple

SCHEMA = Schema([Column("a"), Column("b"), Column("s")])

ROWS = [
    (1, 10.0, "x"),
    (2, None, "y"),
    (None, 30.0, "x"),
    (3, 5.5, None),
    (True, 2.0, "z"),  # booleans rank after numbers and text in SQL order
]


def batch(rows=ROWS):
    return [SymTuple(row, TRUE_CONDITION) for row in rows]


@contextlib.contextmanager
def force_rowwise():
    """Refuse to compile any columnar batch, so the executor runs its
    interpreted row-at-a-time loops (the reference the batches replace)."""
    with mock.patch("repro.wsd.execute.compile_predicate",
                    lambda *args: None), \
            mock.patch("repro.wsd.execute.compile_projection",
                       lambda *args: None):
        yield


def canonical(rows):
    """Rows with floats rounded, as a sorted list (the backends may differ
    in the last bits of a summed confidence)."""
    return sorted((tuple(round(value, 9) if isinstance(value, float)
                         else value for value in row) for row in rows),
                  key=repr)


def rowwise(expression, rows=ROWS, schema=SCHEMA):
    context = EvalContext(schema=schema, row=None)
    out = []
    for row in rows:
        context.row = row
        out.append(expression.evaluate(context))
    return out


def assert_parity(expression, rows=ROWS, schema=SCHEMA):
    mask = compile_predicate(expression, schema)
    assert mask is not None, f"{expression.sql()} should compile"
    assert mask(batch(rows)) == rowwise(expression, rows, schema)


class TestComparisons:
    @pytest.mark.parametrize("op", ["=", "<>", "!=", "<", "<=", ">", ">="])
    def test_column_vs_numeric_constant(self, op):
        assert_parity(BinaryOp(op, ColumnRef("a"), Literal(2)))

    @pytest.mark.parametrize("op", ["=", "<", ">="])
    def test_constant_vs_column(self, op):
        assert_parity(BinaryOp(op, Literal(2), ColumnRef("a")))

    @pytest.mark.parametrize("op", ["=", "<>", "<", ">"])
    def test_column_vs_column(self, op):
        assert_parity(BinaryOp(op, ColumnRef("a"), ColumnRef("b")))

    def test_null_constant_broadcasts_unknown(self):
        for op in ("=", "<", ">="):
            assert_parity(BinaryOp(op, ColumnRef("a"), Literal(None)))
            assert_parity(BinaryOp(op, Literal(None), ColumnRef("a")))

    def test_text_constant_comparisons(self):
        assert_parity(BinaryOp("=", ColumnRef("s"), Literal("x")))
        assert_parity(BinaryOp("<", ColumnRef("s"), Literal("y")))

    def test_mixed_type_ordering_matches_sql_ranks(self):
        # Numbers < text < booleans per sql_compare's ordering ranks; the
        # numeric fast path must defer to the exact comparator on the
        # non-numeric cells.
        assert_parity(BinaryOp("<", ColumnRef("a"), Literal(2.5)))
        assert_parity(BinaryOp(">", ColumnRef("s"), Literal(1)))

    def test_constant_folding(self):
        mask = compile_predicate(BinaryOp(">", Literal(3), Literal(2)),
                                 SCHEMA)
        assert mask(batch()) == [True] * len(ROWS)


class TestLogicAndArithmetic:
    def test_and_or_three_valued(self):
        left = BinaryOp(">", ColumnRef("a"), Literal(1))
        right = BinaryOp("<", ColumnRef("b"), Literal(20))
        assert_parity(BinaryOp("and", left, right))
        assert_parity(BinaryOp("or", left, right))

    def test_logical_with_constant_operand(self):
        assert_parity(BinaryOp("and", Literal(True),
                               BinaryOp(">", ColumnRef("a"), Literal(1))))
        assert_parity(BinaryOp("or", BinaryOp(">", ColumnRef("a"),
                                              Literal(1)), Literal(False)))

    def test_not(self):
        assert_parity(UnaryOp("not",
                              BinaryOp(">", ColumnRef("a"), Literal(1))))

    @pytest.mark.parametrize("op", ["+", "-", "*", "/", "%"])
    def test_arithmetic_null_propagation(self, op):
        rows = [(4, 2.0, "x"), (9, None, "y"), (None, 3.0, "z"),
                (7, 0, "w")]  # division by zero maps to NULL
        expression = BinaryOp("=", BinaryOp(op, ColumnRef("a"),
                                            ColumnRef("b")), Literal(1))
        assert_parity(expression, rows)

    def test_arithmetic_constant_sides(self):
        assert_parity(BinaryOp(">", BinaryOp("+", ColumnRef("b"),
                                             Literal(1)), Literal(10)))
        assert_parity(BinaryOp(">", BinaryOp("-", Literal(100),
                                             ColumnRef("b")), Literal(80)))

    def test_unary_sign(self):
        rows = [(4, 2.0, "x"), (None, 1.0, "y")]
        assert_parity(BinaryOp("<", UnaryOp("-", ColumnRef("a")),
                               Literal(0)), rows)
        assert_parity(BinaryOp(">", UnaryOp("+", ColumnRef("a")),
                               Literal(0)), rows)

    def test_concat(self):
        project = compile_projection(
            [BinaryOp("||", ColumnRef("s"), Literal("!")),
             BinaryOp("||", Literal("v="), ColumnRef("s")),
             BinaryOp("||", Literal("a"), Literal("b")),
             BinaryOp("||", ColumnRef("s"), ColumnRef("s"))], SCHEMA)
        assert project is not None
        rows = project(batch())
        assert rows[0] == ("x!", "v=x", "ab", "xx")
        assert rows[3] == (None, None, "ab", None)  # NULL propagates


class TestNullTestsAndRanges:
    def test_is_null_and_is_not_null(self):
        assert_parity(IsNull(ColumnRef("b")))
        assert_parity(IsNull(ColumnRef("b"), negated=True))

    def test_is_null_constant(self):
        assert_parity(IsNull(Literal(None)))
        assert_parity(IsNull(Literal(1), negated=True))

    def test_between_and_not_between(self):
        assert_parity(Between(ColumnRef("a"), Literal(1), Literal(2)))
        assert_parity(Between(ColumnRef("a"), Literal(1), Literal(2),
                              negated=True))

    def test_between_with_column_bounds(self):
        assert_parity(Between(ColumnRef("b"), ColumnRef("a"), Literal(20)))

    def test_between_constant_operand(self):
        assert_parity(Between(Literal(2), Literal(1), Literal(3)))


class TestParameters:
    def test_parameter_reads_thread_local_binding_per_batch(self):
        predicate = BinaryOp(">", ColumnRef("a"), Parameter(0))
        mask = compile_predicate(predicate, SCHEMA)
        with bound_parameters((1,)):
            first = mask(batch())
            expected = rowwise(predicate)
        with bound_parameters((2,)):
            second = mask(batch())
        assert first == expected
        assert first != second  # a new binding re-reads the parameter


class TestUnsupportedShapes:
    @pytest.mark.parametrize("expression", [
        FunctionCall("abs", [ColumnRef("a")]),
        InList(ColumnRef("a"), [Literal(1), Literal(2)]),
        Like(ColumnRef("s"), Literal("x%")),
        CaseExpression(None, [(BinaryOp(">", ColumnRef("a"), Literal(1)),
                               Literal("big"))], Literal("small")),
    ])
    def test_unsupported_nodes_refuse_to_compile(self, expression):
        assert compile_predicate(expression, SCHEMA) is None

    def test_unsupported_operand_poisons_the_tree(self):
        wrapped = BinaryOp("and",
                           BinaryOp(">", ColumnRef("a"), Literal(1)),
                           Like(ColumnRef("s"), Literal("x%")))
        assert compile_predicate(wrapped, SCHEMA) is None
        assert compile_predicate(
            UnaryOp("not", Like(ColumnRef("s"), Literal("x%"))),
            SCHEMA) is None
        assert compile_predicate(
            IsNull(Like(ColumnRef("s"), Literal("x%"))), SCHEMA) is None
        assert compile_predicate(
            Between(ColumnRef("a"), Like(ColumnRef("s"), Literal("x%")),
                    Literal(2)), SCHEMA) is None

    def test_unknown_or_ambiguous_column_refuses_to_compile(self):
        assert compile_predicate(
            BinaryOp("=", ColumnRef("missing"), Literal(1)), SCHEMA) is None
        duplicated = Schema([Column("a", qualifier="t1"),
                             Column("a", qualifier="t2")])
        assert compile_predicate(
            BinaryOp("=", ColumnRef("a"), Literal(1)), duplicated) is None

    def test_projection_refuses_when_any_output_is_unsupported(self):
        assert compile_projection(
            [ColumnRef("a"), FunctionCall("abs", [ColumnRef("a")])],
            SCHEMA) is None

    def test_empty_projection_yields_empty_rows(self):
        project = compile_projection([], SCHEMA)
        assert project(batch()) == [()] * len(ROWS)


class TestExecutorIntegration:
    SETUP = """
    create table R (A varchar, B integer, C varchar, D integer);
    insert into R values ('a1', 10, 'c1', 2);
    insert into R values ('a1', 15, 'c2', 6);
    insert into R values ('a2', 25, 'c3', 4);
    insert into R values ('a2', 20, 'c4', 5);
    create table I as select A, B, C from R repair by key A weight D;
    """

    def build(self, backend: str = "wsd") -> MayBMS:
        db = MayBMS(backend=backend)
        db.execute_script(self.SETUP)
        return db

    def explicit_rows(self, query: str) -> list:
        """The explicit backend's answer to *query*: the interpreted
        reference every columnar batch must reproduce."""
        return canonical(self.build("explicit").execute(query).rows())

    def test_supported_filter_counts_a_columnar_batch(self):
        db = self.build()
        before = db.backend.stats.columnar_batches
        db.execute("select possible A, B from I where B > 12;")
        assert db.backend.stats.columnar_batches > before
        assert db.backend.stats.rowwise_fallbacks == 0

    def test_unsupported_filter_counts_a_rowwise_fallback(self):
        db = self.build()
        before = db.backend.stats.rowwise_fallbacks
        result = db.execute("select possible A from I where B like '1%';")
        assert db.backend.stats.rowwise_fallbacks > before
        assert canonical(result.rows()) == self.explicit_rows(
            "select possible A from I where B like '1%';")

    def test_columnar_answers_match_rowwise_end_to_end(self):
        db = self.build()
        queries = [
            "select possible A, B from I where B > 12 and B < 25;",
            "select conf, A from I where B between 10 and 20;",
            "select possible B + 1 from I where C is not null;",
            "select possible A || C from I where not (B < 15);",
        ]
        columnar_answers = [canonical(db.execute(q).rows()) for q in queries]
        assert db.backend.stats.rowwise_fallbacks == 0
        assert columnar_answers == [self.explicit_rows(q) for q in queries]

    def test_batch_error_is_rescued_to_rowwise_semantics(self):
        # An OR is not split into conjunct filters, so the whole predicate
        # reaches one batch; evaluating `s or ...` puts a string in boolean
        # context and raises ExpressionError for the whole batch.  The
        # executor must rescue the batch row-at-a-time, which raises the
        # interpreter's exact error here (every row reaches the operand) —
        # never a different answer.
        db = MayBMS(backend="wsd")
        db.execute_script("""
        create table T (S varchar, N integer);
        insert into T values ('x', 1);
        create table U as select S, N from T repair by key S weight N;
        """)
        fallbacks_before = db.backend.stats.rowwise_fallbacks
        with pytest.raises(ExpressionError):
            db.execute("select possible N from U where S or N > 0;")
        assert db.backend.stats.rowwise_fallbacks > fallbacks_before

    def test_bare_column_conjunct_drops_rows_like_the_interpreter(self):
        # The planner splits AND into conjunct filters, so a bare varchar
        # column can become a whole predicate.  The interpreted loop keeps
        # a row only when evaluate() `is True`, so the string drops the row
        # without an error — the columnar mask must do exactly the same.
        # (The explicit backend raises ExpressionError on this predicate
        # instead, so the reference here is the executor's own interpreted
        # loop, forced by refusing to compile any batch.)
        db = MayBMS(backend="wsd")
        db.execute_script("""
        create table T (S varchar, N integer);
        insert into T values ('x', 1);
        create table U as select S, N from T repair by key S weight N;
        """)
        query = "select possible N from U where S and N > 0;"
        result = db.execute(query)
        fallbacks = db.backend.stats.rowwise_fallbacks
        with force_rowwise():
            baseline = db.execute(query)
        assert db.backend.stats.rowwise_fallbacks > fallbacks
        assert result.rows() == baseline.rows() == []

    def test_hash_join_keys_batch_columnar(self):
        link = """
        create table L (A varchar, T integer);
        insert into L values ('a1', 1);
        insert into L values ('a2', 2);
        """
        query = "select conf, T from I, L where I.A = L.A and B > 12;"
        db = self.build()
        db.execute_script(link)
        before = db.backend.stats.columnar_batches
        result = db.execute(query)
        assert db.backend.stats.columnar_batches > before
        explicit = self.build("explicit")
        explicit.execute_script(link)
        assert canonical(result.rows()) == \
            canonical(explicit.execute(query).rows())

    def test_scalar_subquery_predicates_stay_interpreted(self):
        # ScalarSubquery is outside the supported set; the query must still
        # answer correctly through the component-joint tier.
        db = self.build()
        result = db.execute(
            "select conf from I where B > (select min(D) from R);")
        assert result.scalar() == pytest.approx(1.0, abs=1e-9)
