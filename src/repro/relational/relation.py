"""In-memory relations with bag semantics and the classic relational operations.

A :class:`Relation` is a schema plus an ordered list of tuples.  Relations are
treated as immutable by the query engine: every operation returns a new
relation.  (Mutating helpers such as :meth:`Relation.insert` exist for the DML
layer and for building test fixtures; they mutate in place and are documented
as doing so.)

Bag semantics is the default, matching SQL; :meth:`Relation.distinct` removes
duplicates.  Equality of relations is checked under bag semantics, which the
world-set layer uses when comparing possible worlds.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Iterable, Iterator, Sequence

from ..errors import SchemaError, TypeMismatchError
from .schema import Column, Schema
from .types import coerce_value, ordering_key

__all__ = ["Relation"]


class Relation:
    """A named or anonymous relation: a :class:`Schema` and a list of tuples."""

    __slots__ = ("schema", "rows", "name")

    def __init__(self, schema: Schema | Sequence[Column | str],
                 rows: Iterable[Sequence[Any]] = (),
                 name: str | None = None,
                 coerce: bool = True) -> None:
        if not isinstance(schema, Schema):
            schema = Schema(schema)
        self.schema = schema
        self.name = name
        self.rows: list[tuple] = []
        for row in rows:
            self.rows.append(self._prepare_row(row, coerce=coerce))

    # -- construction helpers -----------------------------------------------------

    def _prepare_row(self, row: Sequence[Any], coerce: bool = True) -> tuple:
        values = tuple(row)
        if len(values) != len(self.schema):
            raise SchemaError(
                f"row has {len(values)} values but schema has "
                f"{len(self.schema)} columns: {values!r}")
        if not coerce:
            return values
        coerced = []
        for value, column in zip(values, self.schema):
            try:
                coerced.append(coerce_value(value, column.type))
            except TypeMismatchError as exc:
                raise TypeMismatchError(
                    f"column {column.qualified_name()!r}: {exc}") from exc
        return tuple(coerced)

    # -- container protocol -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __bool__(self) -> bool:
        # A relation with no rows is still a valid object; truthiness follows
        # "has rows", which is what the engine's emptiness checks expect.
        return bool(self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or "<anonymous>"
        return f"Relation({label}, {len(self.schema)} cols, {len(self.rows)} rows)"

    # -- equality under bag and set semantics --------------------------------------

    def bag_equal(self, other: "Relation") -> bool:
        """True when both relations contain the same tuples with equal counts."""
        if len(self.schema) != len(other.schema):
            return False
        return Counter(self.rows) == Counter(other.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self.schema.names() == other.schema.names() and self.bag_equal(other)

    def __hash__(self) -> int:
        return hash((tuple(self.schema.names()), tuple(sorted(
            self.rows, key=lambda row: tuple(ordering_key(v) for v in row)))))

    def fingerprint(self) -> tuple:
        """A hashable canonical form (sorted rows); used by world-set grouping."""
        return tuple(sorted(self.rows, key=lambda row: tuple(
            ordering_key(value) for value in row)))

    # -- mutation (DML layer only) --------------------------------------------------

    def insert(self, row: Sequence[Any]) -> None:
        """Append *row* (coerced to the schema) in place."""
        self.rows.append(self._prepare_row(row))

    def delete_where(self, predicate: Callable[[tuple], bool]) -> int:
        """Delete rows satisfying *predicate* in place; return the count removed."""
        kept = [row for row in self.rows if not predicate(row)]
        removed = len(self.rows) - len(kept)
        self.rows = kept
        return removed

    def update_where(self, predicate: Callable[[tuple], bool],
                     updater: Callable[[tuple], Sequence[Any]]) -> int:
        """Replace rows satisfying *predicate* using *updater*; return the count."""
        changed = 0
        new_rows = []
        for row in self.rows:
            if predicate(row):
                new_rows.append(self._prepare_row(updater(row)))
                changed += 1
            else:
                new_rows.append(row)
        self.rows = new_rows
        return changed

    # -- core relational operations -------------------------------------------------

    def copy(self, name: str | None = None) -> "Relation":
        """Return a shallow copy (rows are immutable tuples, so this is safe)."""
        clone = Relation(self.schema, [], name=name or self.name)
        clone.rows = list(self.rows)
        return clone

    def with_name(self, name: str | None) -> "Relation":
        """Return a copy of this relation carrying *name* and qualified columns."""
        renamed = Relation(self.schema.with_qualifier(name), [], name=name)
        renamed.rows = list(self.rows)
        return renamed

    def with_schema(self, schema: Schema) -> "Relation":
        """Return a copy with *schema* (must have the same arity)."""
        if len(schema) != len(self.schema):
            raise SchemaError("replacement schema has a different arity")
        clone = Relation(schema, [], name=self.name, coerce=False)
        clone.rows = list(self.rows)
        return clone

    def project_columns(self, names: Sequence[str]) -> "Relation":
        """Project onto the columns named *names* (in the given order)."""
        indexes = [self.schema.index_of(name) for name in names]
        result = Relation(self.schema.project(indexes), [], coerce=False)
        result.rows = [tuple(row[i] for i in indexes) for row in self.rows]
        return result

    def distinct(self) -> "Relation":
        """Remove duplicate rows, keeping first occurrences in order."""
        seen: set[tuple] = set()
        result = Relation(self.schema, [], coerce=False)
        for row in self.rows:
            if row not in seen:
                seen.add(row)
                result.rows.append(row)
        return result

    def cross_join(self, other: "Relation") -> "Relation":
        """Cartesian product; schemas are concatenated."""
        schema = self.schema.concat(other.schema)
        result = Relation(schema, [], coerce=False)
        result.rows = [left + right for left in self.rows for right in other.rows]
        return result

    def union(self, other: "Relation", distinct: bool = True) -> "Relation":
        """Bag or set union; the result uses this relation's schema."""
        self.schema.require_union_compatible(other.schema)
        result = Relation(self.schema, [], coerce=False)
        result.rows = list(self.rows) + list(other.rows)
        return result.distinct() if distinct else result

    def intersect(self, other: "Relation", distinct: bool = True) -> "Relation":
        """Bag or set intersection; the result uses this relation's schema."""
        self.schema.require_union_compatible(other.schema)
        result = Relation(self.schema, [], coerce=False)
        if distinct:
            other_set = set(other.rows)
            seen: set[tuple] = set()
            for row in self.rows:
                if row in other_set and row not in seen:
                    seen.add(row)
                    result.rows.append(row)
        else:
            counts = Counter(other.rows)
            for row in self.rows:
                if counts[row] > 0:
                    counts[row] -= 1
                    result.rows.append(row)
        return result

    def difference(self, other: "Relation", distinct: bool = True) -> "Relation":
        """Bag or set difference (``EXCEPT``)."""
        self.schema.require_union_compatible(other.schema)
        result = Relation(self.schema, [], coerce=False)
        if distinct:
            other_set = set(other.rows)
            seen: set[tuple] = set()
            for row in self.rows:
                if row not in other_set and row not in seen:
                    seen.add(row)
                    result.rows.append(row)
        else:
            counts = Counter(other.rows)
            for row in self.rows:
                if counts[row] > 0:
                    counts[row] -= 1
                else:
                    result.rows.append(row)
        return result

    def limit(self, count: int | None, offset: int = 0) -> "Relation":
        """Return at most *count* rows starting at *offset*."""
        result = Relation(self.schema, [], coerce=False)
        end = None if count is None else offset + count
        result.rows = self.rows[offset:end]
        return result

    # -- display --------------------------------------------------------------------

    def pretty(self, max_rows: int | None = None) -> str:
        """Return an ASCII-art table rendering of the relation."""
        from .types import format_value

        names = self.schema.names()
        rows = self.rows if max_rows is None else self.rows[:max_rows]
        rendered = [[format_value(value) for value in row] for row in rows]
        widths = [len(name) for name in names]
        for row in rendered:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = []
        header = " | ".join(name.ljust(widths[i]) for i, name in enumerate(names))
        separator = "-+-".join("-" * width for width in widths)
        lines.append(header)
        lines.append(separator)
        for row in rendered:
            lines.append(" | ".join(cell.ljust(widths[i])
                                    for i, cell in enumerate(row)))
        if max_rows is not None and len(self.rows) > max_rows:
            lines.append(f"... ({len(self.rows) - max_rows} more rows)")
        return "\n".join(lines)
