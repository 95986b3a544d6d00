"""Recursive-descent parser for SQL and I-SQL.

The parser turns a token stream from :mod:`repro.sqlparser.lexer` into the AST
of :mod:`repro.sqlparser.ast_nodes` (statements) and
:mod:`repro.relational.expressions` (scalar expressions).

Supported statement grammar (informally)::

    statement    := query | create | drop | insert | update | delete | explain
    query        := select_core (UNION [ALL] | INTERSECT | EXCEPT select_core)*
                    [ORDER BY ...] [LIMIT n [OFFSET m]]
    select_core  := SELECT [POSSIBLE | CERTAIN] [DISTINCT] [CONF [,]]
                    select_list FROM table_refs
                    [WHERE expr] [GROUP BY exprs [HAVING expr]]
                    [ASSERT expr]
                    [GROUP WORLDS BY ( query )]
    table_ref    := name [AS alias] [REPAIR BY KEY cols [WEIGHT col]]
                                     [CHOICE OF cols [WEIGHT col]]
                  | ( query ) AS alias
    create       := CREATE TABLE name AS query
                  | CREATE TABLE name ( column_defs )
                  | CREATE VIEW name AS query

Expressions follow the usual precedence: OR < AND < NOT < comparison <
additive < multiplicative < unary < primary, with IN / BETWEEN / LIKE /
IS NULL / EXISTS handled at the comparison level.
"""

from __future__ import annotations

from typing import Optional

from ..errors import ParseError
from ..relational.aggregates import AGGREGATE_NAMES
from ..relational.expressions import (
    AggregateCall,
    Between,
    BinaryOp,
    CaseExpression,
    ColumnRef,
    ExistsSubquery,
    Expression,
    FunctionCall,
    InList,
    InSubquery,
    IsNull,
    Like,
    Literal,
    Parameter,
    QuantifiedComparison,
    ScalarSubquery,
    Star,
    UnaryOp,
)
from .ast_nodes import (
    Assignment,
    ChoiceOfClause,
    ColumnDefinition,
    CompoundQuery,
    CreateTable,
    CreateTableAs,
    CreateView,
    Delete,
    DerivedTableRef,
    DropTable,
    DropView,
    ExplainStatement,
    GroupWorldsByClause,
    Insert,
    NamedTableRef,
    OrderItem,
    Query,
    RepairByKeyClause,
    SelectItem,
    SelectQuery,
    Statement,
    TableRef,
    Update,
)
from .lexer import tokenize
from .tokens import Token, TokenType

__all__ = ["Parser", "parse_statement", "parse_statements", "parse_query",
           "parse_expression", "parse_prepared"]


class Parser:
    """Recursive-descent parser over a token list."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = tokenize(text)
        self.position = 0
        #: Number of ``?`` placeholders seen so far; each becomes a
        #: :class:`~repro.relational.expressions.Parameter` with the next
        #: ordinal (left to right across the whole parsed text).
        self.parameter_count = 0

    # -- token stream helpers ---------------------------------------------------------

    def _current(self) -> Token:
        return self.tokens[self.position]

    def _peek(self, offset: int = 1) -> Token:
        index = min(self.position + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def _advance(self) -> Token:
        token = self.tokens[self.position]
        if token.type is not TokenType.EOF:
            self.position += 1
        return token

    def _check_keyword(self, *names: str) -> bool:
        return self._current().is_keyword(*names)

    def _match_keyword(self, *names: str) -> bool:
        if self._check_keyword(*names):
            self._advance()
            return True
        return False

    def _expect_keyword(self, *names: str) -> Token:
        if not self._check_keyword(*names):
            raise self._error(f"expected {' or '.join(n.upper() for n in names)}")
        return self._advance()

    def _check(self, token_type: TokenType) -> bool:
        return self._current().type is token_type

    def _match(self, token_type: TokenType) -> bool:
        if self._check(token_type):
            self._advance()
            return True
        return False

    def _expect(self, token_type: TokenType, description: str | None = None) -> Token:
        if not self._check(token_type):
            what = description or token_type.value
            raise self._error(f"expected {what}")
        return self._advance()

    def _error(self, message: str) -> ParseError:
        token = self._current()
        found = token.text or "<end of input>"
        return ParseError(f"{message}, found {found!r}", token.line, token.column)

    def _at_end(self) -> bool:
        return self._current().type is TokenType.EOF

    # -- statements ---------------------------------------------------------------------

    def parse_statements(self) -> list[Statement]:
        """Parse a semicolon-separated sequence of statements."""
        statements: list[Statement] = []
        while not self._at_end():
            if self._match(TokenType.SEMICOLON):
                continue
            statements.append(self.parse_statement(consume_terminator=False))
            if not self._at_end():
                self._expect(TokenType.SEMICOLON, "';' between statements")
        return statements

    def parse_statement(self, consume_terminator: bool = True) -> Statement:
        """Parse a single statement (optionally consuming a trailing ';')."""
        statement = self._statement()
        if consume_terminator:
            self._match(TokenType.SEMICOLON)
            if not self._at_end():
                raise self._error("unexpected trailing input after statement")
        return statement

    def _statement(self) -> Statement:
        if self._check_keyword("select"):
            return self._query()
        if self._check_keyword("create"):
            return self._create()
        if self._check_keyword("drop"):
            return self._drop()
        if self._check_keyword("insert"):
            return self._insert()
        if self._check_keyword("update"):
            return self._update()
        if self._check_keyword("delete"):
            return self._delete()
        if self._match_keyword("explain"):
            return ExplainStatement(self._statement())
        raise self._error("expected a statement")

    # -- queries --------------------------------------------------------------------------

    def _query(self) -> Query:
        query: Query = self._select_core()
        while self._check_keyword("union", "intersect", "except"):
            operator = self._advance().text.lower()
            distinct = True
            if self._match_keyword("all"):
                distinct = False
            else:
                self._match_keyword("distinct")
            right = self._select_core()
            query = CompoundQuery(operator=operator, left=query, right=right,
                                  distinct=distinct)
        order_by, limit, offset = self._order_limit()
        if order_by or limit is not None or offset:
            if isinstance(query, SelectQuery):
                query.order_by = order_by
                query.limit = limit
                query.offset = offset
            else:
                query.order_by = order_by
                query.limit = limit
                query.offset = offset
        return query

    def _order_limit(self) -> tuple[list[OrderItem], Optional[int], int]:
        order_by: list[OrderItem] = []
        limit: Optional[int] = None
        offset = 0
        if self._check_keyword("order"):
            self._advance()
            self._expect_keyword("by")
            while True:
                expression = self.parse_expression_internal()
                descending = False
                if self._match_keyword("desc"):
                    descending = True
                else:
                    self._match_keyword("asc")
                order_by.append(OrderItem(expression, descending))
                if not self._match(TokenType.COMMA):
                    break
        if self._match_keyword("limit"):
            limit_token = self._expect(TokenType.NUMBER, "a number after LIMIT")
            limit = int(limit_token.value)
            if self._match_keyword("offset"):
                offset_token = self._expect(TokenType.NUMBER, "a number after OFFSET")
                offset = int(offset_token.value)
        return order_by, limit, offset

    def _select_core(self) -> SelectQuery:
        self._expect_keyword("select")
        query = SelectQuery()
        if self._match_keyword("possible"):
            query.quantifier = "possible"
        elif self._match_keyword("certain"):
            query.quantifier = "certain"
        if self._match_keyword("distinct"):
            query.distinct = True
        elif self._match_keyword("all"):
            query.distinct = False
        if self._check_keyword("conf"):
            self._advance()
            query.conf = True
            self._match(TokenType.COMMA)
        query.select_items = self._select_list()
        if self._match_keyword("from"):
            query.from_clause = self._table_refs()
        if self._match_keyword("where"):
            query.where = self.parse_expression_internal()
        if self._check_keyword("group") and self._peek().is_keyword("by"):
            self._advance()
            self._advance()
            while True:
                query.group_by.append(self.parse_expression_internal())
                if not self._match(TokenType.COMMA):
                    break
            if self._match_keyword("having"):
                query.having = self.parse_expression_internal()
        if self._match_keyword("assert"):
            query.assert_condition = self.parse_expression_internal()
        if self._check_keyword("group") and self._peek().is_keyword("worlds"):
            self._advance()  # group
            self._advance()  # worlds
            self._expect_keyword("by")
            self._expect(TokenType.LPAREN, "'(' before the world-grouping query")
            grouping_query = self._query()
            self._expect(TokenType.RPAREN, "')' after the world-grouping query")
            query.group_worlds_by = GroupWorldsByClause(grouping_query)
        # ASSERT may also legally follow the world grouping clause.
        if query.assert_condition is None and self._match_keyword("assert"):
            query.assert_condition = self.parse_expression_internal()
        return query

    def _select_list(self) -> list[SelectItem]:
        items: list[SelectItem] = []
        if self._check_keyword("from") or self._at_end():
            return items  # e.g. "SELECT CONF FROM ..." has an empty list here.
        while True:
            items.append(self._select_item())
            if not self._match(TokenType.COMMA):
                break
        return items

    def _select_item(self) -> SelectItem:
        if self._check(TokenType.STAR):
            self._advance()
            return SelectItem(Star())
        # alias.* form
        if (self._check(TokenType.IDENTIFIER)
                and self._peek().type is TokenType.DOT
                and self._peek(2).type is TokenType.STAR):
            qualifier = self._advance().value
            self._advance()  # dot
            self._advance()  # star
            return SelectItem(Star(qualifier=qualifier))
        expression = self.parse_expression_internal()
        alias: Optional[str] = None
        if self._match_keyword("as"):
            alias = self._identifier("an alias after AS")
        elif self._check(TokenType.IDENTIFIER):
            alias = self._advance().value
        return SelectItem(expression, alias)

    def _table_refs(self) -> list[TableRef]:
        refs = [self._table_ref()]
        while self._match(TokenType.COMMA):
            refs.append(self._table_ref())
        return refs

    def _table_ref(self) -> TableRef:
        if self._match(TokenType.LPAREN):
            query = self._query()
            self._expect(TokenType.RPAREN, "')' after derived table")
            self._match_keyword("as")
            alias = self._identifier("an alias for the derived table")
            return DerivedTableRef(query=query, alias=alias,
                                   decoration=self._table_decoration())
        name = self._identifier("a table name")
        alias: Optional[str] = None
        if self._match_keyword("as"):
            alias = self._identifier("an alias after AS")
        elif self._check(TokenType.IDENTIFIER):
            alias = self._advance().value
        return NamedTableRef(name=name, alias=alias,
                             decoration=self._table_decoration())

    def _table_decoration(self
                          ) -> Optional[RepairByKeyClause | ChoiceOfClause]:
        """Parse an optional REPAIR BY KEY or CHOICE OF decoration."""
        if self._check_keyword("repair"):
            self._advance()
            self._expect_keyword("by")
            self._expect_keyword("key")
            attributes = self._identifier_list("a key attribute")
            weight = None
            if self._match_keyword("weight"):
                weight = self._identifier("a weight attribute")
            return RepairByKeyClause(attributes=attributes, weight=weight)
        if self._check_keyword("choice"):
            self._advance()
            self._expect_keyword("of")
            attributes = self._identifier_list("a choice attribute")
            weight = None
            if self._match_keyword("weight"):
                weight = self._identifier("a weight attribute")
            return ChoiceOfClause(attributes=attributes, weight=weight)
        return None

    def _identifier(self, description: str) -> str:
        if self._check(TokenType.IDENTIFIER):
            return self._advance().value
        # Allow non-reserved keywords in identifier position where unambiguous
        # (e.g. a column named "key" or "of").
        if self._check(TokenType.KEYWORD) and self._current().text.lower() in (
                "key", "of", "weight", "worlds", "conf"):
            return self._advance().text
        raise self._error(f"expected {description}")

    def _identifier_list(self, description: str) -> list[str]:
        names = [self._identifier(description)]
        while self._match(TokenType.COMMA):
            names.append(self._identifier(description))
        return names

    # -- DDL -----------------------------------------------------------------------------

    def _create(self) -> Statement:
        self._expect_keyword("create")
        or_replace = False
        if self._check(TokenType.IDENTIFIER) and self._current().value.lower() == "or":
            # "OR REPLACE" — OR is a keyword, so this branch never triggers;
            # kept for clarity, real handling below.
            pass
        if self._check_keyword("or"):
            self._advance()
            replace_token = self._advance()
            if replace_token.text.lower() != "replace":
                raise self._error("expected REPLACE after OR")
            or_replace = True
        if self._match_keyword("view"):
            name = self._identifier("a view name")
            self._expect_keyword("as")
            parameters_before = self.parameter_count
            query = self._query()
            if self.parameter_count != parameters_before:
                # A view body evaluates later, under whatever statement is
                # querying it — a '?' here would silently rebind to *that*
                # statement's arguments.  Reject it at parse time.
                raise self._error(
                    "parameters ('?') are not allowed in CREATE VIEW; "
                    "inline the value or create the view per binding")
            return CreateView(name=name, query=query, or_replace=or_replace)
        self._expect_keyword("table")
        name = self._identifier("a table name")
        if self._match_keyword("as"):
            query = self._query()
            return CreateTableAs(name=name, query=query, or_replace=or_replace)
        self._expect(TokenType.LPAREN, "'(' or AS after the table name")
        columns: list[ColumnDefinition] = []
        primary_key: list[str] = []
        while True:
            if self._check_keyword("primary"):
                self._advance()
                self._expect_keyword("key")
                self._expect(TokenType.LPAREN, "'(' after PRIMARY KEY")
                primary_key = self._identifier_list("a key column")
                self._expect(TokenType.RPAREN, "')' after the key columns")
            else:
                column_name = self._identifier("a column name")
                type_name = "any"
                if self._check(TokenType.IDENTIFIER) or self._check_keyword("key"):
                    type_name = self._advance().text
                definition = ColumnDefinition(name=column_name, type_name=type_name)
                if self._check_keyword("primary"):
                    self._advance()
                    self._expect_keyword("key")
                    definition.primary_key = True
                    primary_key.append(column_name)
                columns.append(definition)
            if not self._match(TokenType.COMMA):
                break
        self._expect(TokenType.RPAREN, "')' after the column definitions")
        return CreateTable(name=name, columns=columns, primary_key=primary_key)

    def _drop(self) -> Statement:
        self._expect_keyword("drop")
        is_view = bool(self._match_keyword("view"))
        if not is_view:
            self._expect_keyword("table")
        if_exists = False
        if self._match_keyword("if"):
            exists_token = self._advance()
            if exists_token.text.lower() != "exists":
                raise self._error("expected EXISTS after IF")
            if_exists = True
        name = self._identifier("a relation name")
        if is_view:
            return DropView(name=name, if_exists=if_exists)
        return DropTable(name=name, if_exists=if_exists)

    # -- DML -----------------------------------------------------------------------------

    def _insert(self) -> Statement:
        self._expect_keyword("insert")
        self._expect_keyword("into")
        table = self._identifier("a table name")
        columns: list[str] = []
        if self._match(TokenType.LPAREN):
            columns = self._identifier_list("a column name")
            self._expect(TokenType.RPAREN, "')' after the column list")
        if self._match_keyword("values"):
            rows: list[list[Expression]] = []
            while True:
                self._expect(TokenType.LPAREN, "'(' before a VALUES row")
                row = [self.parse_expression_internal()]
                while self._match(TokenType.COMMA):
                    row.append(self.parse_expression_internal())
                self._expect(TokenType.RPAREN, "')' after a VALUES row")
                rows.append(row)
                if not self._match(TokenType.COMMA):
                    break
            return Insert(table=table, columns=columns, rows=rows)
        query = self._query()
        return Insert(table=table, columns=columns, query=query)

    def _update(self) -> Statement:
        self._expect_keyword("update")
        table = self._identifier("a table name")
        self._expect_keyword("set")
        assignments = []
        while True:
            column = self._identifier("a column name")
            if not self._current().is_operator("="):
                raise self._error("expected '=' in SET assignment")
            self._advance()
            assignments.append(Assignment(column, self.parse_expression_internal()))
            if not self._match(TokenType.COMMA):
                break
        where = None
        if self._match_keyword("where"):
            where = self.parse_expression_internal()
        return Update(table=table, assignments=assignments, where=where)

    def _delete(self) -> Statement:
        self._expect_keyword("delete")
        self._expect_keyword("from")
        table = self._identifier("a table name")
        where = None
        if self._match_keyword("where"):
            where = self.parse_expression_internal()
        return Delete(table=table, where=where)

    # -- expressions -----------------------------------------------------------------------

    def parse_expression_internal(self) -> Expression:
        """Parse an expression starting at the current token."""
        return self._or_expression()

    def _or_expression(self) -> Expression:
        left = self._and_expression()
        while self._match_keyword("or"):
            right = self._and_expression()
            left = BinaryOp("or", left, right)
        return left

    def _and_expression(self) -> Expression:
        left = self._not_expression()
        while self._match_keyword("and"):
            right = self._not_expression()
            left = BinaryOp("and", left, right)
        return left

    def _not_expression(self) -> Expression:
        if self._match_keyword("not"):
            return UnaryOp("not", self._not_expression())
        return self._comparison()

    def _comparison(self) -> Expression:
        left = self._additive()
        while True:
            token = self._current()
            if token.is_operator("=", "==", "<>", "!=", "<", "<=", ">", ">="):
                operator = self._advance().text
                operator = "=" if operator == "==" else operator
                if self._check_keyword("any", "some", "all"):
                    quantifier = self._advance().text.lower()
                    quantifier = "any" if quantifier == "some" else quantifier
                    self._expect(TokenType.LPAREN, "'(' after the quantifier")
                    query = self._query()
                    self._expect(TokenType.RPAREN, "')' after the subquery")
                    left = QuantifiedComparison(operator, left, query, quantifier)
                else:
                    right = self._additive()
                    left = BinaryOp(operator, left, right)
                continue
            if token.is_keyword("is"):
                self._advance()
                negated = bool(self._match_keyword("not"))
                self._expect_keyword("null")
                left = IsNull(left, negated=negated)
                continue
            negated = False
            if token.is_keyword("not") and self._peek().is_keyword("in", "between",
                                                                   "like"):
                self._advance()
                negated = True
                token = self._current()
            if token.is_keyword("in"):
                self._advance()
                self._expect(TokenType.LPAREN, "'(' after IN")
                if self._check_keyword("select"):
                    query = self._query()
                    self._expect(TokenType.RPAREN, "')' after the subquery")
                    left = InSubquery(left, query, negated=negated)
                else:
                    values = [self.parse_expression_internal()]
                    while self._match(TokenType.COMMA):
                        values.append(self.parse_expression_internal())
                    self._expect(TokenType.RPAREN, "')' after the IN list")
                    left = InList(left, values, negated=negated)
                continue
            if token.is_keyword("between"):
                self._advance()
                low = self._additive()
                self._expect_keyword("and")
                high = self._additive()
                left = Between(left, low, high, negated=negated)
                continue
            if token.is_keyword("like"):
                self._advance()
                pattern = self._additive()
                left = Like(left, pattern, negated=negated)
                continue
            return left

    def _additive(self) -> Expression:
        left = self._multiplicative()
        while self._current().is_operator("+", "-", "||"):
            operator = self._advance().text
            right = self._multiplicative()
            left = BinaryOp(operator, left, right)
        return left

    def _multiplicative(self) -> Expression:
        left = self._unary()
        while (self._current().is_operator("/", "%")
               or self._check(TokenType.STAR)):
            token = self._advance()
            operator = "*" if token.type is TokenType.STAR else token.text
            right = self._unary()
            left = BinaryOp(operator, left, right)
        return left

    def _unary(self) -> Expression:
        if self._current().is_operator("-", "+"):
            operator = self._advance().text
            return UnaryOp(operator, self._unary())
        return self._primary()

    def _primary(self) -> Expression:
        token = self._current()
        if token.type is TokenType.NUMBER:
            self._advance()
            return Literal(token.value)
        if token.type is TokenType.STRING:
            self._advance()
            return Literal(token.value)
        if token.is_keyword("null"):
            self._advance()
            return Literal(None)
        if token.is_keyword("true"):
            self._advance()
            return Literal(True)
        if token.is_keyword("false"):
            self._advance()
            return Literal(False)
        if token.type is TokenType.PARAMETER:
            self._advance()
            parameter = Parameter(self.parameter_count)
            self.parameter_count += 1
            return parameter
        if token.is_keyword("case"):
            return self._case_expression()
        if token.is_keyword("exists"):
            self._advance()
            self._expect(TokenType.LPAREN, "'(' after EXISTS")
            query = self._query()
            self._expect(TokenType.RPAREN, "')' after the subquery")
            return ExistsSubquery(query)
        if token.is_keyword("not") and self._peek().is_keyword("exists"):
            self._advance()
            self._advance()
            self._expect(TokenType.LPAREN, "'(' after NOT EXISTS")
            query = self._query()
            self._expect(TokenType.RPAREN, "')' after the subquery")
            return ExistsSubquery(query, negated=True)
        if token.type is TokenType.LPAREN:
            self._advance()
            if self._check_keyword("select"):
                query = self._query()
                self._expect(TokenType.RPAREN, "')' after the subquery")
                return ScalarSubquery(query)
            expression = self.parse_expression_internal()
            self._expect(TokenType.RPAREN, "')' after the expression")
            return expression
        if token.type is TokenType.IDENTIFIER or token.is_keyword("conf", "key",
                                                                  "of", "weight"):
            return self._identifier_expression()
        raise self._error("expected an expression")

    def _identifier_expression(self) -> Expression:
        name_token = self._advance()
        name = name_token.value if name_token.value is not None else name_token.text
        # Function or aggregate call.
        if self._check(TokenType.LPAREN):
            self._advance()
            distinct = bool(self._match_keyword("distinct"))
            if self._check(TokenType.STAR):
                self._advance()
                self._expect(TokenType.RPAREN, "')' after '*'")
                if name.lower() not in AGGREGATE_NAMES:
                    raise self._error(f"{name}(*) is not a valid call")
                return AggregateCall(name.lower(), None, distinct=distinct)
            arguments: list[Expression] = []
            if not self._check(TokenType.RPAREN):
                arguments.append(self.parse_expression_internal())
                while self._match(TokenType.COMMA):
                    arguments.append(self.parse_expression_internal())
            self._expect(TokenType.RPAREN, "')' after the argument list")
            if name.lower() in AGGREGATE_NAMES:
                if len(arguments) != 1:
                    raise self._error(
                        f"aggregate {name} takes exactly one argument")
                return AggregateCall(name.lower(), arguments[0], distinct=distinct)
            return FunctionCall(name, arguments)
        # Qualified column reference.
        if self._check(TokenType.DOT):
            self._advance()
            column_token = self._advance()
            if column_token.type not in (TokenType.IDENTIFIER, TokenType.KEYWORD):
                raise self._error("expected a column name after '.'")
            column_name = (column_token.value if column_token.value is not None
                           else column_token.text)
            return ColumnRef(column_name, qualifier=name)
        return ColumnRef(name)

    def _case_expression(self) -> Expression:
        self._expect_keyword("case")
        operand: Optional[Expression] = None
        if not self._check_keyword("when"):
            operand = self.parse_expression_internal()
        branches: list[tuple[Expression, Expression]] = []
        while self._match_keyword("when"):
            condition = self.parse_expression_internal()
            self._expect_keyword("then")
            result = self.parse_expression_internal()
            branches.append((condition, result))
        otherwise: Optional[Expression] = None
        if self._match_keyword("else"):
            otherwise = self.parse_expression_internal()
        self._expect_keyword("end")
        if not branches:
            raise self._error("CASE requires at least one WHEN branch")
        return CaseExpression(operand, branches, otherwise)


# -- module-level convenience functions -------------------------------------------------------


def parse_statement(text: str) -> Statement:
    """Parse a single SQL / I-SQL statement from *text*."""
    return Parser(text).parse_statement()


def parse_prepared(text: str) -> tuple[Statement, int]:
    """Parse one statement that may contain ``?`` parameter placeholders.

    Returns ``(statement, parameter_count)`` — the count is how many
    positional arguments an execution of the statement must bind.
    """
    parser = Parser(text)
    statement = parser.parse_statement()
    return statement, parser.parameter_count


def parse_statements(text: str) -> list[Statement]:
    """Parse a semicolon-separated script into a list of statements."""
    return Parser(text).parse_statements()


def split_statements(text: str) -> list[str]:
    """Split a script into the source text of its individual statements.

    Token-aware (semicolons inside string literals or comments do not
    split), so each returned piece is one complete statement's original
    text, terminator included.  The durable session executes scripts piece
    by piece so every statement becomes its own commit — and its own WAL
    record — instead of one unreplayable blob.
    """
    tokens = tokenize(text)
    line_starts = [0]
    for index, char in enumerate(text):
        if char == "\n":
            line_starts.append(index + 1)

    def offset(token: Token) -> int:
        return line_starts[token.line - 1] + token.column - 1

    pieces: list[str] = []
    start = 0
    seen_content = False
    for token in tokens:
        if token.type is TokenType.EOF:
            break
        if token.type is TokenType.SEMICOLON:
            if seen_content:
                pieces.append(text[start:offset(token) + 1])
            start = offset(token) + 1
            seen_content = False
        else:
            seen_content = True
    if seen_content:
        pieces.append(text[start:])
    return pieces


def parse_query(text: str) -> Query:
    """Parse *text* and require it to be a query (SELECT or compound)."""
    statement = parse_statement(text)
    if not isinstance(statement, Query):
        raise ParseError("expected a query, got a "
                         + type(statement).__name__)
    return statement


def parse_expression(text: str) -> Expression:
    """Parse *text* as a standalone scalar expression."""
    parser = Parser(text)
    expression = parser.parse_expression_internal()
    if not parser._at_end():
        raise parser._error("unexpected trailing input after expression")
    return expression
