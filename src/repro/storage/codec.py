"""Value and cell encodings shared by the WAL records and the snapshots.

Everything the durable store writes is JSON at the framing level; the
payloads inside need to carry arbitrary engine values (cells, statement
parameters, template fields).  The encoding is a small tagged union so the
decoder never guesses:

``["v", value]``
    a JSON-native scalar (``None`` / bool / int / float / str) stored as
    itself (the store reads its own files with Python's ``json``, whose
    default non-strict mode round-trips ``NaN`` / ``Infinity`` too);
``["F", relation, tuple_id, attribute]``
    a :class:`~repro.wsd.fields.Field` placeholder in a template cell.

Engine values are JSON scalars, so any other value is refused when written;
the ``["p", ...]`` cells of earlier formats (serialised Python objects) are
refused when read.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..errors import StorageError
from ..relational.schema import Column
from ..relational.types import SqlType
from ..wsd.fields import Field

__all__ = [
    "encode_value", "decode_value", "encode_cell", "decode_cell",
    "encode_field", "decode_field", "encode_row", "decode_row",
    "encode_columns", "decode_columns",
]

_SCALARS = (bool, int, float, str)


def encode_value(value: Any) -> list:
    """Encode one plain value (no :class:`Field` placeholders)."""
    if value is None or isinstance(value, _SCALARS):
        return ["v", value]
    raise StorageError(f"cannot store the non-scalar value {value!r}")


def decode_value(tagged: Sequence) -> Any:
    tag = tagged[0]
    if tag == "v":
        return tagged[1]
    if tag == "p":
        raise StorageError("a 'p' cell (a serialised Python object, a "
                           "legacy format) is not readable; rebuild the "
                           "data directory")
    raise ValueError(f"unknown value tag {tag!r}")


def encode_field(field: Field) -> list:
    return [field.relation, field.tuple_id, field.attribute]


def decode_field(encoded: Sequence) -> Field:
    return Field(encoded[0], encoded[1], encoded[2])


def encode_cell(cell: Any) -> list:
    """Encode one template cell: a constant or a :class:`Field`."""
    if isinstance(cell, Field):
        return ["F", cell.relation, cell.tuple_id, cell.attribute]
    return encode_value(cell)


def decode_cell(tagged: Sequence) -> Any:
    if tagged[0] == "F":
        return Field(tagged[1], tagged[2], tagged[3])
    return decode_value(tagged)


def encode_row(row: Sequence[Any]) -> list:
    return [encode_value(value) for value in row]


def decode_row(encoded: Sequence) -> tuple:
    return tuple(decode_value(value) for value in encoded)


def encode_columns(columns: Sequence) -> list:
    """Encode a column list as accepted by ``create_table`` (str | Column)."""
    encoded = []
    for column in columns:
        if isinstance(column, Column):
            encoded.append([column.name, column.type.value, column.qualifier])
        else:
            encoded.append([str(column), None, None])
    return encoded


def decode_columns(encoded: Sequence) -> list:
    columns: list = []
    for name, type_name, qualifier in encoded:
        if type_name is None:
            columns.append(name)
        else:
            columns.append(Column(name, SqlType(type_name), qualifier))
    return columns
