"""Relation schemas: ordered, typed, optionally qualified column lists.

A :class:`Schema` is an immutable ordered sequence of :class:`Column` objects.
Columns may carry a *qualifier* (usually the relation name or an alias used in
a query), which is how the engine resolves references like ``i2.Id`` in the
whale-tracking queries of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

from ..errors import AmbiguousColumnError, SchemaError, UnknownColumnError
from .types import SqlType

__all__ = ["Column", "Schema"]


@dataclass(frozen=True)
class Column:
    """A single column: ``name``, declared ``type`` and optional ``qualifier``."""

    name: str
    type: SqlType = SqlType.ANY
    qualifier: str | None = None

    def qualified_name(self) -> str:
        """Return ``qualifier.name`` when qualified, else just ``name``."""
        if self.qualifier:
            return f"{self.qualifier}.{self.name}"
        return self.name

    def with_qualifier(self, qualifier: str | None) -> "Column":
        """Return a copy of this column carrying *qualifier*."""
        return replace(self, qualifier=qualifier)

    def with_name(self, name: str) -> "Column":
        """Return a copy of this column renamed to *name*."""
        return replace(self, name=name)

    def matches(self, name: str, qualifier: str | None = None) -> bool:
        """Case-insensitive match of a (possibly qualified) reference."""
        if name.lower() != self.name.lower():
            return False
        if qualifier is None:
            return True
        return (self.qualifier or "").lower() == qualifier.lower()

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.qualified_name()


class Schema:
    """An ordered collection of :class:`Column` objects.

    The schema is immutable; all "modifying" operations return a new schema.
    Column lookup is case-insensitive, mirroring SQL identifier rules.
    """

    __slots__ = ("_columns",)

    def __init__(self, columns: Iterable[Column | str]) -> None:
        normalized: list[Column] = []
        for column in columns:
            if isinstance(column, str):
                normalized.append(Column(column))
            elif isinstance(column, Column):
                normalized.append(column)
            else:
                raise SchemaError(
                    f"schema entries must be Column or str, got {column!r}")
        self._columns: tuple[Column, ...] = tuple(normalized)
        self._check_no_duplicates()

    def _check_no_duplicates(self) -> None:
        seen: set[tuple[str, str]] = set()
        for column in self._columns:
            key = ((column.qualifier or "").lower(), column.name.lower())
            if key in seen:
                raise SchemaError(
                    f"duplicate column {column.qualified_name()!r} in schema")
            seen.add(key)

    # -- basic container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self._columns)

    def __getitem__(self, index: int) -> Column:
        return self._columns[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._columns == other._columns

    def __hash__(self) -> int:
        return hash(self._columns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cols = ", ".join(str(c) for c in self._columns)
        return f"Schema({cols})"

    # -- accessors -----------------------------------------------------------------

    @property
    def columns(self) -> tuple[Column, ...]:
        """The tuple of columns, in order."""
        return self._columns

    def names(self) -> list[str]:
        """The list of unqualified column names, in order."""
        return [column.name for column in self._columns]

    def qualified_names(self) -> list[str]:
        """The list of qualified column names, in order."""
        return [column.qualified_name() for column in self._columns]

    def types(self) -> list[SqlType]:
        """The list of declared column types, in order."""
        return [column.type for column in self._columns]

    # -- lookup --------------------------------------------------------------------

    def find(self, name: str, qualifier: str | None = None) -> list[int]:
        """Return the indexes of all columns matching the reference."""
        return [index for index, column in enumerate(self._columns)
                if column.matches(name, qualifier)]

    def index_of(self, name: str, qualifier: str | None = None) -> int:
        """Return the index of the unique column matching the reference.

        Raises :class:`UnknownColumnError` when no column matches and
        :class:`AmbiguousColumnError` when several do.
        """
        matches = self.find(name, qualifier)
        reference = f"{qualifier}.{name}" if qualifier else name
        if not matches:
            raise UnknownColumnError(reference, tuple(self.qualified_names()))
        if len(matches) > 1:
            matched = tuple(self._columns[i].qualified_name() for i in matches)
            raise AmbiguousColumnError(reference, matched)
        return matches[0]

    def has(self, name: str, qualifier: str | None = None) -> bool:
        """Return True when exactly one column matches the reference."""
        return len(self.find(name, qualifier)) == 1

    def column(self, name: str, qualifier: str | None = None) -> Column:
        """Return the unique column matching the reference."""
        return self._columns[self.index_of(name, qualifier)]

    # -- construction of derived schemas --------------------------------------------

    def with_qualifier(self, qualifier: str | None) -> "Schema":
        """Return a schema where every column carries *qualifier*."""
        return Schema([column.with_qualifier(qualifier)
                       for column in self._columns])

    def without_qualifiers(self) -> "Schema":
        """Return a schema where no column carries a qualifier."""
        return self.with_qualifier(None)

    def project(self, indexes: Sequence[int]) -> "Schema":
        """Return the schema consisting of the columns at *indexes*, in order."""
        try:
            return Schema([self._columns[i] for i in indexes])
        except IndexError as exc:
            raise SchemaError(f"projection index out of range: {indexes}") from exc

    def concat(self, other: "Schema") -> "Schema":
        """Return the concatenation of this schema and *other* (for joins).

        Duplicate qualified names are disambiguated by keeping qualifiers; a
        genuine duplicate (same qualifier and name on both sides) raises.
        """
        return Schema(list(self._columns) + list(other._columns))

    def union_compatible_with(self, other: "Schema") -> bool:
        """Return True when the two schemas have the same arity."""
        return len(self) == len(other)

    def require_union_compatible(self, other: "Schema") -> None:
        """Raise :class:`SchemaError` unless the two schemas have equal arity."""
        if not self.union_compatible_with(other):
            raise SchemaError(
                f"schemas are not union-compatible: {len(self)} vs {len(other)} columns")
