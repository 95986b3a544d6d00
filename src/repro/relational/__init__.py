"""The relational substrate: schemas, relations, expressions and operators.

This package is a small but complete in-memory relational engine with bag
semantics, SQL NULL handling, aggregates, and an SQLite bridge.  The
I-SQL engine (:mod:`repro.core`) evaluates the per-world part of every query
through this substrate.
"""

from .aggregates import create_aggregator, AGGREGATE_NAMES
from .catalog import Catalog
from .constraints import check_key, key_repair_groups, key_violations
from .expressions import (
    AggregateCall,
    Between,
    BinaryOp,
    CaseExpression,
    ColumnRef,
    EvalContext,
    ExistsSubquery,
    Expression,
    FunctionCall,
    InList,
    InSubquery,
    IsNull,
    Like,
    Literal,
    QuantifiedComparison,
    ScalarSubquery,
    Star,
    UnaryOp,
    contains_aggregate,
    expression_columns,
)
from .relation import Relation
from .schema import Column, Schema
from .sqlite_io import relation_from_sqlite, relation_to_sqlite
from .types import SqlType, format_value, is_null, sql_compare, sql_equal

__all__ = [
    "AGGREGATE_NAMES",
    "AggregateCall",
    "Between",
    "BinaryOp",
    "CaseExpression",
    "Catalog",
    "Column",
    "ColumnRef",
    "EvalContext",
    "ExistsSubquery",
    "Expression",
    "FunctionCall",
    "InList",
    "InSubquery",
    "IsNull",
    "Like",
    "Literal",
    "QuantifiedComparison",
    "Relation",
    "ScalarSubquery",
    "Schema",
    "SqlType",
    "Star",
    "UnaryOp",
    "check_key",
    "contains_aggregate",
    "create_aggregator",
    "expression_columns",
    "format_value",
    "is_null",
    "key_repair_groups",
    "key_violations",
    "relation_from_sqlite",
    "relation_to_sqlite",
    "sql_compare",
    "sql_equal",
]
