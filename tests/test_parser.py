"""Unit tests for the SQL / I-SQL parser (statements and expressions)."""

from __future__ import annotations

import pytest

from repro.errors import ParseError
from repro.relational.expressions import (
    AggregateCall,
    Between,
    BinaryOp,
    CaseExpression,
    ColumnRef,
    ExistsSubquery,
    InList,
    InSubquery,
    IsNull,
    Like,
    QuantifiedComparison,
    ScalarSubquery,
    Star,
    UnaryOp,
)
from repro.sqlparser import (
    ChoiceOfClause,
    CompoundQuery,
    CreateTable,
    CreateTableAs,
    CreateView,
    Delete,
    DerivedTableRef,
    DropTable,
    DropView,
    ExplainStatement,
    Insert,
    NamedTableRef,
    RepairByKeyClause,
    SelectQuery,
    Update,
    parse_expression,
    parse_query,
    parse_statement,
    parse_statements,
)


class TestSelectBasics:
    def test_simple_select(self):
        query = parse_query("select A, B from R where A = 'a3'")
        assert isinstance(query, SelectQuery)
        assert len(query.select_items) == 2
        assert isinstance(query.from_clause[0], NamedTableRef)
        assert query.from_clause[0].name == "R"
        assert isinstance(query.where, BinaryOp)

    def test_star_and_qualified_star(self):
        query = parse_query("select *, r.* from R r")
        assert isinstance(query.select_items[0].expression, Star)
        assert query.select_items[1].expression.qualifier == "r"

    def test_aliases_with_and_without_as(self):
        query = parse_query("select A as X, B Y from R t1")
        assert query.select_items[0].alias == "X"
        assert query.select_items[1].alias == "Y"
        assert query.from_clause[0].alias == "t1"

    def test_distinct_group_by_having_order_limit(self):
        query = parse_query(
            "select distinct A, sum(B) as total from R "
            "group by A having sum(B) > 10 order by total desc limit 5 offset 2")
        assert query.distinct
        assert len(query.group_by) == 1
        assert query.having is not None
        assert query.order_by[0].descending
        assert query.limit == 5 and query.offset == 2

    def test_multiple_from_items(self):
        query = parse_query("select * from I i2, I i3 where i2.Id = 2")
        assert [ref.alias for ref in query.from_clause] == ["i2", "i3"]

    def test_derived_table(self):
        query = parse_query("select * from (select A from R) as sub")
        assert isinstance(query.from_clause[0], DerivedTableRef)
        assert query.from_clause[0].alias == "sub"

    def test_compound_union(self):
        query = parse_query("select A from R union select C from S")
        assert isinstance(query, CompoundQuery)
        assert query.operator == "union" and query.distinct

    def test_union_all_and_except(self):
        query = parse_query("select A from R union all select C from S")
        assert not query.distinct
        query = parse_query("select A from R except select C from S")
        assert query.operator == "except"


class TestISqlExtensions:
    def test_possible_and_certain_quantifiers(self):
        assert parse_query("select possible sum(B) from I").quantifier == "possible"
        assert parse_query("select certain E from S").quantifier == "certain"

    def test_conf_with_empty_select_list(self):
        query = parse_query("select conf from I where B > 5")
        assert query.conf and query.select_items == []

    def test_conf_with_select_list(self):
        query = parse_query("select conf, A from I")
        assert query.conf
        assert len(query.select_items) == 1

    def test_repair_by_key_with_weight(self):
        query = parse_query("select A, B, C from R repair by key A weight D")
        repair = query.from_clause[0].decoration
        assert isinstance(repair, RepairByKeyClause)
        assert repair.attributes == ["A"] and repair.weight == "D"

    def test_repair_by_composite_key(self):
        query = parse_query("select SSN', TEL' from S repair by key SSN, TEL")
        assert query.from_clause[0].decoration.attributes == ["SSN", "TEL"]

    def test_choice_of_with_weight(self):
        query = parse_query("select * from R choice of A weight D")
        choice = query.from_clause[0].decoration
        assert isinstance(choice, ChoiceOfClause)
        assert choice.attributes == ["A"] and choice.weight == "D"

    def test_assert_clause(self):
        query = parse_query(
            "select * from I assert not exists(select * from I where C = 'c1')")
        condition = query.assert_condition
        # "NOT EXISTS" may parse as a negated ExistsSubquery or as NOT applied
        # to an ExistsSubquery; both are semantically identical.
        assert isinstance(condition, (ExistsSubquery, UnaryOp))
        if isinstance(condition, UnaryOp):
            assert condition.operator == "not"
            assert isinstance(condition.operand, ExistsSubquery)
        else:
            assert condition.negated

    def test_group_worlds_by(self):
        query = parse_query(
            "select possible i2.G as G2 from I i2 "
            "group worlds by (select Pos from I where Id = 2)")
        assert query.group_worlds_by is not None
        assert isinstance(query.group_worlds_by.query, SelectQuery)

    def test_group_by_vs_group_worlds_by_disambiguation(self):
        query = parse_query(
            "select A, count(*) from I group by A "
            "group worlds by (select Pos from I)")
        assert len(query.group_by) == 1
        assert query.group_worlds_by is not None


class TestDdlDml:
    def test_create_table_as(self):
        statement = parse_statement(
            "create table I as select * from R repair by key A;")
        assert isinstance(statement, CreateTableAs)
        assert statement.name == "I"

    def test_create_view(self):
        statement = parse_statement("create view V as select * from I;")
        assert isinstance(statement, CreateView)
        assert statement.name == "V"

    def test_create_view_with_primed_name(self):
        statement = parse_statement("create view Valid' as select * from I;")
        assert statement.name == "Valid'"

    def test_create_table_with_columns_and_key(self):
        statement = parse_statement(
            "create table W (Id integer, Pos text, primary key (Id));")
        assert isinstance(statement, CreateTable)
        assert [c.name for c in statement.columns] == ["Id", "Pos"]
        assert statement.primary_key == ["Id"]

    def test_create_table_inline_primary_key(self):
        statement = parse_statement("create table W (Id integer primary key);")
        assert statement.primary_key == ["Id"]

    def test_drop_table_and_view(self):
        assert isinstance(parse_statement("drop table if exists T;"), DropTable)
        assert parse_statement("drop table if exists T;").if_exists
        assert isinstance(parse_statement("drop view V;"), DropView)

    def test_insert_values(self):
        statement = parse_statement(
            "insert into R (A, B) values ('a4', 1), ('a5', 2);")
        assert isinstance(statement, Insert)
        assert statement.columns == ["A", "B"]
        assert len(statement.rows) == 2

    def test_insert_select(self):
        statement = parse_statement("insert into T select * from R;")
        assert statement.query is not None

    def test_update(self):
        statement = parse_statement("update R set B = B + 1 where A = 'a1';")
        assert isinstance(statement, Update)
        assert statement.assignments[0].column == "B"

    def test_delete(self):
        statement = parse_statement("delete from R where A = 'a1';")
        assert isinstance(statement, Delete)

    def test_explain(self):
        statement = parse_statement("explain select * from R;")
        assert isinstance(statement, ExplainStatement)

    def test_script_parsing(self):
        statements = parse_statements(
            "create view V as select * from I; select * from V;")
        assert len(statements) == 2


class TestExpressions:
    def test_precedence_of_and_or(self):
        expr = parse_expression("a = 1 or b = 2 and c = 3")
        assert isinstance(expr, BinaryOp) and expr.operator == "or"
        assert expr.right.operator == "and"

    def test_arithmetic_precedence(self):
        expr = parse_expression("1 + 2 * 3")
        assert expr.operator == "+"
        assert expr.right.operator == "*"

    def test_parenthesised_expression(self):
        expr = parse_expression("(1 + 2) * 3")
        assert expr.operator == "*"

    def test_unary_minus_and_not(self):
        assert isinstance(parse_expression("-5"), UnaryOp)
        assert isinstance(parse_expression("not a = 1"), UnaryOp)

    def test_in_list_and_in_subquery(self):
        assert isinstance(parse_expression("A in (1, 2, 3)"), InList)
        assert isinstance(parse_expression("A not in (select B from R)"),
                          InSubquery)

    def test_between_like_isnull(self):
        assert isinstance(parse_expression("A between 1 and 2"), Between)
        assert isinstance(parse_expression("A not like 'x%'"), Like)
        assert isinstance(parse_expression("A is not null"), IsNull)

    def test_exists_and_scalar_subquery(self):
        assert isinstance(parse_expression("exists (select * from R)"),
                          ExistsSubquery)
        expr = parse_expression("50 > (select sum(B) from I)")
        assert isinstance(expr.right, ScalarSubquery)

    def test_quantified_comparison(self):
        expr = parse_expression("A = any (select B from R)")
        assert isinstance(expr, QuantifiedComparison)
        assert expr.quantifier == "any"
        expr = parse_expression("A < all (select B from R)")
        assert expr.quantifier == "all"

    def test_case_expression(self):
        expr = parse_expression(
            "case when A > 0 then 'pos' else 'neg' end")
        assert isinstance(expr, CaseExpression)
        assert expr.otherwise is not None

    def test_aggregates_and_functions(self):
        assert isinstance(parse_expression("sum(B)"), AggregateCall)
        assert parse_expression("count(*)").argument is None
        assert parse_expression("count(distinct A)").distinct
        call = parse_expression("coalesce(A, 0)")
        assert call.name == "coalesce"

    def test_qualified_column(self):
        expr = parse_expression("i2.Id")
        assert isinstance(expr, ColumnRef) and expr.qualifier == "i2"

    def test_literals(self):
        assert parse_expression("null").value is None
        assert parse_expression("true").value is True
        assert parse_expression("'text'").value == "text"
        assert parse_expression("3.5").value == 3.5


class TestErrors:
    def test_missing_from_target(self):
        with pytest.raises(ParseError):
            parse_statement("select * from ;")

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ParseError):
            parse_statement("select * from R where exists (select * from S;")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_statement("select * from R garbage garbage;")

    def test_aggregate_arity_error(self):
        with pytest.raises(ParseError):
            parse_statement("select sum(A, B) from R;")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as excinfo:
            parse_statement("select *\nfrom R where ;")
        assert excinfo.value.line == 2

    def test_expression_trailing_input(self):
        with pytest.raises(ParseError):
            parse_expression("1 + 2 extra")

    def test_case_without_branches(self):
        with pytest.raises(ParseError):
            parse_expression("case end")
