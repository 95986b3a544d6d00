"""Abstract syntax tree nodes for SQL and I-SQL statements.

Scalar expressions reuse the node classes from
:mod:`repro.relational.expressions`; this module adds the statement-level and
clause-level nodes: queries, table references (with the I-SQL ``repair by
key`` and ``choice of`` decorations), DDL and DML statements.

All nodes are plain dataclasses so tests can construct and compare them
structurally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..relational.expressions import Expression

__all__ = [
    "Statement",
    "Query",
    "SelectQuery",
    "CompoundQuery",
    "SelectItem",
    "OrderItem",
    "TableRef",
    "NamedTableRef",
    "DerivedTableRef",
    "RepairByKeyClause",
    "ChoiceOfClause",
    "GroupWorldsByClause",
    "CreateTableAs",
    "CreateTable",
    "ColumnDefinition",
    "CreateView",
    "DropTable",
    "DropView",
    "Insert",
    "Update",
    "Assignment",
    "Delete",
    "ExplainStatement",
]


class Statement:
    """Base class of every executable statement.

    ``bound_to`` identifies the schemas the binder last resolved the
    statement against (:meth:`repro.core.binder.Binder.bind_statement`).
    """

    bound_to: object = None


class Query(Statement):
    """Base class of query statements (plain and compound selects)."""


class TableRef:
    """Base class of items in a FROM clause."""


@dataclass
class RepairByKeyClause:
    """``REPAIR BY KEY a1, a2 [WEIGHT w]`` attached to a table reference.

    Creates one possible world per maximal repair of the key constraint; when
    ``weight`` is given the worlds are weighted by the named numeric column as
    described in Example 2.4 of the paper.
    """

    attributes: list[str]
    weight: Optional[str] = None


@dataclass
class ChoiceOfClause:
    """``CHOICE OF a1, a2 [WEIGHT w]`` attached to a table reference.

    Creates one possible world per distinct value of the named attributes
    (Examples 2.6 and 2.7 of the paper).
    """

    attributes: list[str]
    weight: Optional[str] = None


@dataclass
class NamedTableRef(TableRef):
    """A base table (or view) reference, optionally aliased and decorated."""

    name: str
    alias: Optional[str] = None
    decoration: Optional[RepairByKeyClause | ChoiceOfClause] = None

    def effective_alias(self) -> str:
        """The qualifier under which the table's columns are visible."""
        return self.alias or self.name


@dataclass
class DerivedTableRef(TableRef):
    """A parenthesised subquery used as a table, with a mandatory alias.

    Like named references, a derived table may carry a ``repair by key`` or
    ``choice of`` decoration, which applies to the subquery's result.
    """

    query: "Query"
    alias: str
    decoration: Optional[RepairByKeyClause | ChoiceOfClause] = None

    def effective_alias(self) -> str:
        return self.alias


@dataclass
class SelectItem:
    """One item of a select list: an expression and an optional alias."""

    expression: Expression
    alias: Optional[str] = None


@dataclass
class OrderItem:
    """One ORDER BY item."""

    expression: Expression
    descending: bool = False


@dataclass
class GroupWorldsByClause:
    """``GROUP WORLDS BY (subquery)``: partition the world-set by the answer
    of the subquery before evaluating possible / certain (Section 2, last
    paragraph, and the whale-tracking scenario of the paper)."""

    query: "Query"


@dataclass
class SelectQuery(Query):
    """A single SELECT block, including every I-SQL extension.

    Attributes
    ----------
    quantifier:
        ``None`` for a plain per-world SELECT, ``"possible"`` or ``"certain"``
        for the cross-world collection operators.
    conf:
        True when the select list starts with the ``CONF`` keyword.
    select_items:
        The remaining select list (may be empty for a bare ``SELECT CONF``).
    assert_condition:
        The world-level condition of an ``ASSERT`` clause, or None.
    group_worlds_by:
        The world-grouping subquery, or None.

    The binder (:mod:`repro.core.binder`) fills the remaining fields:
    ``outputs`` is the select list with ``*`` expanded and output names
    made unique, ``order_keys`` the ORDER BY as sort keys over the output
    row, ``order_extras`` the expressions of ORDER BY items that are not
    selected (sorted on as hidden trailing columns) and ``correlated`` marks
    a block that references an enclosing block's columns.
    """

    select_items: list[SelectItem] = field(default_factory=list)
    from_clause: list[TableRef] = field(default_factory=list)
    where: Optional[Expression] = None
    group_by: list[Expression] = field(default_factory=list)
    having: Optional[Expression] = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None
    offset: int = 0
    distinct: bool = False
    quantifier: Optional[str] = None
    conf: bool = False
    assert_condition: Optional[Expression] = None
    group_worlds_by: Optional[GroupWorldsByClause] = None
    outputs: list = field(default_factory=list, compare=False, repr=False)
    order_keys: list = field(default_factory=list, compare=False, repr=False)
    order_extras: list = field(default_factory=list, compare=False,
                               repr=False)
    correlated: bool = field(default=False, compare=False, repr=False)


@dataclass
class CompoundQuery(Query):
    """Two queries combined with UNION / INTERSECT / EXCEPT."""

    operator: str  # "union", "intersect" or "except"
    left: Query
    right: Query
    distinct: bool = True
    order_by: list[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None
    offset: int = 0
    order_keys: list = field(default_factory=list, compare=False, repr=False)


@dataclass
class CreateTableAs(Statement):
    """``CREATE TABLE name AS query`` — materialise the query in every world.

    ``columns`` is the typed result schema the binder derives from the
    declared schemas; the new table is stored with it.
    """

    name: str
    query: Query
    or_replace: bool = False
    columns: Optional[list] = field(default=None, compare=False, repr=False)


@dataclass
class ColumnDefinition:
    """A column definition in ``CREATE TABLE``: name, type name, key flag."""

    name: str
    type_name: str = "any"
    primary_key: bool = False


@dataclass
class CreateTable(Statement):
    """``CREATE TABLE name (col type, ..., [PRIMARY KEY (cols)])``."""

    name: str
    columns: list[ColumnDefinition] = field(default_factory=list)
    primary_key: list[str] = field(default_factory=list)


@dataclass
class CreateView(Statement):
    """``CREATE VIEW name AS query`` — a stored query, re-evaluated on use."""

    name: str
    query: Query
    or_replace: bool = False


@dataclass
class DropTable(Statement):
    """``DROP TABLE [IF EXISTS] name``."""

    name: str
    if_exists: bool = False


@dataclass
class DropView(Statement):
    """``DROP VIEW [IF EXISTS] name``."""

    name: str
    if_exists: bool = False


@dataclass
class Insert(Statement):
    """``INSERT INTO name [(cols)] VALUES (...), (...)`` or ``INSERT ... query``."""

    table: str
    columns: list[str] = field(default_factory=list)
    rows: list[list[Expression]] = field(default_factory=list)
    query: Optional[Query] = None


@dataclass
class Assignment:
    """One ``SET column = expression`` item of an UPDATE."""

    column: str
    expression: Expression


@dataclass
class Update(Statement):
    """``UPDATE name SET col = expr, ... [WHERE condition]``."""

    table: str
    assignments: list[Assignment] = field(default_factory=list)
    where: Optional[Expression] = None


@dataclass
class Delete(Statement):
    """``DELETE FROM name [WHERE condition]``."""

    table: str
    where: Optional[Expression] = None


@dataclass
class ExplainStatement(Statement):
    """``EXPLAIN statement`` — show the plan instead of executing it."""

    statement: Statement
