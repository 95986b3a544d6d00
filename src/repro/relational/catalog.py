"""A named collection of relations (tables) and view definitions.

The catalog is the unit of state that a possible world carries around: each
world in a world-set owns its own catalog of relations, while view definitions
(which are just stored queries) live at the session level because the paper's
views are re-evaluated against the current world-set.
"""

from __future__ import annotations

from typing import Iterator

from ..errors import DuplicateRelationError, UnknownRelationError
from .relation import Relation

__all__ = ["Catalog"]


class Catalog:
    """Case-insensitive mapping from relation names to :class:`Relation`."""

    __slots__ = ("_tables",)

    def __init__(self, tables: dict[str, Relation] | None = None) -> None:
        self._tables: dict[str, Relation] = {}
        if tables:
            for name, relation in tables.items():
                self.create(name, relation)

    # -- mapping protocol -----------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._tables

    def __len__(self) -> int:
        return len(self._tables)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Catalog):
            return NotImplemented
        if set(self._tables) != set(other._tables):
            return False
        return all(self._tables[name] == other._tables[name]
                   for name in self._tables)

    def __hash__(self) -> int:
        return hash(tuple(sorted(
            (name, relation.fingerprint())
            for name, relation in self._tables.items())))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Catalog({', '.join(sorted(self._tables))})"

    # -- accessors ------------------------------------------------------------------

    def names(self) -> list[str]:
        """Return the stored relation names (original casing), sorted."""
        return sorted(relation.name or key
                      for key, relation in self._tables.items())

    def get(self, name: str) -> Relation:
        """Return the relation called *name* or raise :class:`UnknownRelationError`."""
        key = name.lower()
        if key not in self._tables:
            raise UnknownRelationError(name)
        return self._tables[key]

    def maybe_get(self, name: str) -> Relation | None:
        """Return the relation called *name* or ``None``."""
        return self._tables.get(name.lower())

    # -- mutation -------------------------------------------------------------------

    def create(self, name: str, relation: Relation,
               replace: bool = False) -> None:
        """Store *relation* under *name*.

        Raises :class:`DuplicateRelationError` unless *replace* is true.
        """
        key = name.lower()
        if key in self._tables and not replace:
            raise DuplicateRelationError(name)
        stored = relation.copy(name=name)
        self._tables[key] = stored

    def drop(self, name: str, if_exists: bool = False) -> None:
        """Remove the relation called *name*."""
        key = name.lower()
        if key not in self._tables:
            if if_exists:
                return
            raise UnknownRelationError(name)
        del self._tables[key]

    # -- copying --------------------------------------------------------------------

    def copy(self) -> "Catalog":
        """Return an independent copy (relations themselves are copied shallowly)."""
        clone = Catalog()
        for key, relation in self._tables.items():
            clone._tables[key] = relation.copy()
        return clone
