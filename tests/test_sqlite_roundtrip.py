"""Round-trip property test for :mod:`repro.relational.sqlite_io`.

The contract: ``relation_to_sqlite`` followed by ``relation_from_sqlite``
reproduces the schema's declared types and every row *exactly* — for all
:class:`SqlType` columns (including ``BOOLEAN``, which historically decayed
to 0/1 integers), ``NULL`` cells, empty relations, reserved-word and
awkward column names, and insertion order.

Excluded by SQLite itself (documented in the module): ``NaN`` floats
(stored as ``NULL``) and integers outside the signed 64-bit range.
"""

from __future__ import annotations

import sqlite3

import pytest
from hypothesis import given, settings, strategies as st

from repro import MayBMS
from repro.errors import SchemaError, UnknownRelationError
from repro.relational.relation import Relation
from repro.relational.schema import Column, Schema
from repro.relational.sqlite_io import (
    relation_from_sqlite,
    relation_to_sqlite,
)
from repro.relational.types import SqlType

#: SQL reserved words and otherwise awkward identifiers — all must survive
#: as quoted column / table names.
_AWKWARD_NAMES = st.sampled_from([
    "select", "order", "group", "where", "table", "index", "from",
    "primary", "key", 'quo"te', "with space", "mixedCase", "tüple", "a.b",
])

_IDENTIFIERS = st.one_of(
    _AWKWARD_NAMES,
    st.text(alphabet="abcdefgXYZ_09", min_size=1, max_size=8),
)

_INT64 = st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1)

_VALUE_FOR_TYPE = {
    SqlType.INTEGER: _INT64,
    SqlType.REAL: st.floats(allow_nan=False, allow_infinity=True,
                            width=64),
    SqlType.TEXT: st.text(max_size=12),
    SqlType.BOOLEAN: st.booleans(),
}
#: ANY columns may hold any storable scalar.
_VALUE_FOR_TYPE[SqlType.ANY] = st.one_of(
    _INT64, _VALUE_FOR_TYPE[SqlType.REAL], st.text(max_size=12))


@st.composite
def typed_relations(draw):
    """A relation with 1–6 typed columns and 0–8 rows (NULLs included)."""
    count = draw(st.integers(min_value=1, max_value=6))
    names: list[str] = []
    seen = set()
    while len(names) < count:
        name = draw(_IDENTIFIERS)
        if name.lower() not in seen:  # column names are case-insensitive
            seen.add(name.lower())
            names.append(name)
    types = [draw(st.sampled_from(list(SqlType))) for _ in names]
    columns = [Column(name, sql_type)
               for name, sql_type in zip(names, types)]
    row = st.tuples(*(st.one_of(st.none(), _VALUE_FOR_TYPE[sql_type])
                      for sql_type in types))
    rows = draw(st.lists(row, max_size=8))
    return Relation(Schema(columns), rows, name=draw(_IDENTIFIERS))


def assert_identical(original: Relation, loaded: Relation) -> None:
    assert [c.name for c in loaded.schema] == \
        [c.name for c in original.schema]
    assert [c.type for c in loaded.schema] == \
        [c.type for c in original.schema]
    assert len(loaded.rows) == len(original.rows)
    for want, got in zip(original.rows, loaded.rows):
        for w, g in zip(want, got):
            # type-aware equality: True == 1 in Python, so compare the
            # classes too — the historical BOOLEAN round-trip bug returned
            # ints that compared equal but were not bools.
            assert type(w) is type(g), (want, got)
            assert w == g or (w != w and g != g), (want, got)


@settings(max_examples=200, deadline=None)
@given(typed_relations())
def test_sqlite_round_trip_is_exact(relation):
    connection = sqlite3.connect(":memory:")
    try:
        relation_to_sqlite(relation, connection, table_name="t")
        loaded = relation_from_sqlite(connection, "t", ordered=True)
        assert_identical(relation, loaded)
    finally:
        connection.close()


def test_empty_relation_round_trips():
    connection = sqlite3.connect(":memory:")
    schema = Schema([Column("select", SqlType.BOOLEAN),
                     Column("order", SqlType.ANY)])
    relation_to_sqlite(Relation(schema, [], name="where"), connection)
    loaded = relation_from_sqlite(connection, "where")
    assert loaded.rows == []
    assert [c.type for c in loaded.schema] == [SqlType.BOOLEAN, SqlType.ANY]
    connection.close()


def test_boolean_columns_decode_to_bools():
    connection = sqlite3.connect(":memory:")
    schema = Schema([Column("flag", SqlType.BOOLEAN)])
    relation_to_sqlite(
        Relation(schema, [(True,), (False,), (None,)], name="b"),
        connection)
    loaded = relation_from_sqlite(connection, "b", ordered=True)
    assert loaded.rows == [(True,), (False,), (None,)]
    assert all(isinstance(row[0], bool) for row in loaded.rows
               if row[0] is not None)
    connection.close()


def test_relation_round_trip(relation_r):
    connection = sqlite3.connect(":memory:")
    relation_to_sqlite(relation_r, connection)
    back = relation_from_sqlite(connection, "R")
    assert back.bag_equal(relation_r)
    assert back.schema.types()[:2] == [SqlType.TEXT, SqlType.INTEGER]


def test_boolean_values_stored_as_integers():
    relation = Relation([Column("Flag", SqlType.BOOLEAN)], [(True,), (False,)],
                        name="Flags")
    connection = sqlite3.connect(":memory:")
    relation_to_sqlite(relation, connection)
    stored = connection.execute('SELECT "Flag" FROM "Flags"').fetchall()
    assert stored == [(1,), (0,)]


def test_unknown_table():
    connection = sqlite3.connect(":memory:")
    with pytest.raises(UnknownRelationError):
        relation_from_sqlite(connection, "missing")


def test_unnamed_relation_needs_table_name():
    connection = sqlite3.connect(":memory:")
    with pytest.raises(SchemaError):
        relation_to_sqlite(Relation(["A"], []), connection)


@pytest.mark.parametrize("backend", ["explicit", "wsd"])
def test_checkpoint_round_trips_the_figure1_catalog(tmp_path, backend,
                                                    figure1_catalog):
    """A checkpoint writes every table to the SQLite snapshot; reopening
    the data directory reads each one back unchanged."""
    db = MayBMS(figure1_catalog, backend=backend, data_dir=str(tmp_path))
    db.checkpoint()
    db.close()
    reopened = MayBMS(backend=backend, data_dir=str(tmp_path))
    try:
        assert reopened.recovery.replayed_records == 0
        assert sorted(reopened.table_names()) == ["R", "S"]
        for name in ("R", "S"):
            assert reopened.relation(name).bag_equal(figure1_catalog.get(name))
    finally:
        reopened.close()
