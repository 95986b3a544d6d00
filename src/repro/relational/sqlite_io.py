"""Import and export between the in-memory engine and SQLite databases.

The original MayBMS is an extension of PostgreSQL; this reproduction keeps the
whole engine in memory but offers an SQLite bridge (standard library
``sqlite3``) so complete relations can be loaded from and persisted to a real
on-disk database, and so external tools can inspect the results.  The durable
store (:mod:`repro.storage`) builds its snapshots on this bridge: plain
relations become real SQLite tables, so a snapshot file is an ordinary
database any SQLite client can open.

Round-trip contract (checked by the property test in
``tests/test_sqlite_roundtrip.py``): a relation written with
:func:`relation_to_sqlite` and read back with :func:`relation_from_sqlite`
reproduces the schema's declared types and every row exactly, for all
:class:`~repro.relational.types.SqlType` columns including ``BOOLEAN``
(declared as ``BOOLEAN`` in SQLite and decoded back to Python bools) and
``NULL`` cells.  Two storage-level caveats are inherent to SQLite and are
*excluded* from the contract: ``NaN`` floats are stored as ``NULL``, and
integers outside the signed 64-bit range do not fit an SQLite ``INTEGER``.
"""

from __future__ import annotations

import sqlite3

from ..errors import SchemaError, UnknownRelationError
from .relation import Relation
from .schema import Column, Schema
from .types import SqlType

__all__ = [
    "sqlite_type_name",
    "quote_identifier",
    "relation_to_sqlite",
    "relation_from_sqlite",
]

_TYPE_TO_SQLITE = {
    SqlType.INTEGER: "INTEGER",
    SqlType.REAL: "REAL",
    SqlType.TEXT: "TEXT",
    # Declared as BOOLEAN (NUMERIC affinity): SQLite stores the 0/1 the
    # bool adapts to, and the declared type tells the reader to decode the
    # integers back into Python bools — the round-trip that was lossy when
    # BOOLEAN columns were declared plain INTEGER.
    SqlType.BOOLEAN: "BOOLEAN",
    SqlType.ANY: "",
}

_SQLITE_TO_TYPE = {
    "INTEGER": SqlType.INTEGER,
    "INT": SqlType.INTEGER,
    "BIGINT": SqlType.INTEGER,
    "REAL": SqlType.REAL,
    "FLOAT": SqlType.REAL,
    "DOUBLE": SqlType.REAL,
    "NUMERIC": SqlType.REAL,
    "TEXT": SqlType.TEXT,
    "VARCHAR": SqlType.TEXT,
    "CHAR": SqlType.TEXT,
    "BOOLEAN": SqlType.BOOLEAN,
    "BOOL": SqlType.BOOLEAN,
    "": SqlType.ANY,
}


def sqlite_type_name(sql_type: SqlType) -> str:
    """Return the SQLite column type used to store *sql_type*."""
    return _TYPE_TO_SQLITE[sql_type]


def quote_identifier(name: str) -> str:
    """Quote *name* for use as an SQLite identifier (doubling ``\"``)."""
    return '"' + name.replace('"', '""') + '"'


def relation_to_sqlite(relation: Relation, connection: sqlite3.Connection,
                       table_name: str | None = None,
                       replace: bool = True,
                       commit: bool = True) -> str:
    """Write *relation* into *connection* as a table; return the table name.

    Rows are inserted in relation order, so :func:`relation_from_sqlite`
    with ``ordered=True`` reads them back in the same order.  Pass
    ``commit=False`` to leave the write inside the caller's transaction
    (the snapshot writer commits many tables atomically).
    """
    name = table_name or relation.name
    if not name:
        raise SchemaError("relation_to_sqlite requires a table name")
    quoted = quote_identifier(name)
    if replace:
        connection.execute(f"DROP TABLE IF EXISTS {quoted}")
    column_defs = ", ".join(
        f"{quote_identifier(column.name)} {sqlite_type_name(column.type)}".strip()
        for column in relation.schema)
    connection.execute(f"CREATE TABLE {quoted} ({column_defs})")
    placeholders = ", ".join("?" for _ in relation.schema)
    prepared_rows = [
        tuple(int(value) if isinstance(value, bool) else value for value in row)
        for row in relation.rows
    ]
    connection.executemany(
        f"INSERT INTO {quoted} VALUES ({placeholders})", prepared_rows)
    if commit:
        connection.commit()
    return name


def _decode_row(row: tuple, booleans: list[int]) -> tuple:
    if not booleans:
        return row
    values = list(row)
    for index in booleans:
        if values[index] is not None:
            values[index] = bool(values[index])
    return tuple(values)


def relation_from_sqlite(connection: sqlite3.Connection, table_name: str,
                         name: str | None = None,
                         ordered: bool = False) -> Relation:
    """Read the SQLite table *table_name* into an in-memory relation.

    Declared column types map back onto :class:`SqlType` (``BOOLEAN``
    columns decode their stored 0/1 integers into Python bools); unknown
    declarations fall back to ``ANY``.  With ``ordered=True`` rows come
    back in ``rowid`` order — insertion order for tables written by
    :func:`relation_to_sqlite` — which is what the durable store's
    snapshots rely on.
    """
    quoted = quote_identifier(table_name)
    cursor = connection.execute(f"PRAGMA table_info({quoted})")
    columns_info = cursor.fetchall()
    if not columns_info:
        raise UnknownRelationError(table_name)
    columns = []
    booleans: list[int] = []
    for index, (_, column_name, declared, *_rest) in enumerate(columns_info):
        base = (declared or "").split("(")[0].strip().upper()
        sql_type = _SQLITE_TO_TYPE.get(base, SqlType.ANY)
        if sql_type is SqlType.BOOLEAN:
            booleans.append(index)
        columns.append(Column(column_name, sql_type))
    schema = Schema(columns)
    query = f"SELECT * FROM {quoted}"
    if ordered:
        try:
            rows = connection.execute(query + " ORDER BY rowid").fetchall()
        except sqlite3.OperationalError:
            # WITHOUT ROWID tables have no rowid; fall back to table order.
            rows = connection.execute(query).fetchall()
    else:
        rows = connection.execute(query).fetchall()
    rows = [_decode_row(row, booleans) for row in rows]
    return Relation(schema, rows, name=name or table_name)
