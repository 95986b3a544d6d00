"""A single possible world: a catalog of relations plus an optional probability.

Worlds are the unit of the possible-worlds semantics of I-SQL: every query and
update is evaluated in each world independently (Section 2 of the paper).
Worlds also carry a human-readable *label* so the reproduction can refer to
the paper's worlds A, B, C, D by name in tests and printed output.
"""

from __future__ import annotations

from typing import Any, Iterable

from ..relational.catalog import Catalog
from ..relational.relation import Relation

__all__ = ["World"]

#: Sentinel meaning "keep the current value" in :meth:`World.copy`.
_UNCHANGED = object()


class World:
    """One possible world.

    Attributes
    ----------
    catalog:
        The relations present in this world.
    probability:
        ``None`` for a non-probabilistic world, otherwise a number in
        ``[0, 1]``.
    label:
        Optional identifier (the paper names its worlds A, B, C, ...).
    """

    __slots__ = ("catalog", "probability", "label")

    def __init__(self, catalog: Catalog | dict[str, Relation] | None = None,
                 probability: float | None = None,
                 label: str | None = None) -> None:
        if catalog is None:
            catalog = Catalog()
        elif isinstance(catalog, dict):
            catalog = Catalog(catalog)
        self.catalog = catalog
        self.probability = probability
        self.label = label

    # -- convenience accessors -------------------------------------------------------

    def relation(self, name: str) -> Relation:
        """Return the relation called *name* in this world."""
        return self.catalog.get(name)

    def has_relation(self, name: str) -> bool:
        """True when this world contains a relation called *name*."""
        return name in self.catalog

    # -- derivation --------------------------------------------------------------------

    def copy(self, probability: Any = _UNCHANGED,
             label: Any = _UNCHANGED) -> "World":
        """Return an independent copy of this world.

        The sentinel default keeps the current probability / label; pass an
        explicit value (including ``None``) to change them.
        """
        new_probability = (self.probability if probability is _UNCHANGED
                           else probability)
        new_label = self.label if label is _UNCHANGED else label
        return World(self.catalog.copy(), new_probability, new_label)

    def with_relation(self, name: str, relation: Relation,
                      replace: bool = True) -> "World":
        """Return a copy of this world with *relation* stored under *name*."""
        clone = self.copy()
        clone.catalog.create(name, relation, replace=replace)
        return clone

    def without_relation(self, name: str) -> "World":
        """Return a copy of this world lacking the relation called *name*."""
        clone = self.copy()
        clone.catalog.drop(name, if_exists=True)
        return clone

    # -- comparison ----------------------------------------------------------------------

    def same_contents(self, other: "World",
                      relations: Iterable[str] | None = None) -> bool:
        """True when the two worlds contain the same relations with equal rows.

        When *relations* is given only those names are compared.
        """
        if relations is None:
            if set(name.lower() for name in self.catalog.names()) != \
                    set(name.lower() for name in other.catalog.names()):
                return False
            relations = self.catalog.names()
        for name in relations:
            mine = self.catalog.maybe_get(name)
            theirs = other.catalog.maybe_get(name)
            if mine is None or theirs is None:
                return False
            if not mine.bag_equal(theirs):
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.label or "?"
        probability = ("" if self.probability is None
                       else f", p={self.probability:.4f}")
        return f"World({label}: {', '.join(self.catalog.names())}{probability})"

    # -- display -----------------------------------------------------------------------

    def describe(self, relation_names: Iterable[str] | None = None,
                 max_rows: int | None = None) -> str:
        """Return a printable description of (some of) this world's relations."""
        names = list(relation_names) if relation_names is not None \
            else self.catalog.names()
        header = f"World {self.label or ''}".strip()
        if self.probability is not None:
            header += f"  P = {self.probability:.4f}"
        blocks = [header]
        for name in names:
            relation = self.catalog.maybe_get(name)
            if relation is None:
                blocks.append(f"-- {name}: (absent)")
                continue
            blocks.append(f"-- {name}")
            blocks.append(relation.pretty(max_rows=max_rows))
        return "\n".join(blocks)
