"""Fields: the atomic units of a world-set decomposition.

Following the companion papers ("World-set Decompositions: Expressiveness and
Efficient Algorithms", ICDT 2007, and the MayBMS ICDE 2007 demonstrations), an
incomplete database is viewed as a *template* of tuples whose cells either
hold a constant or are *fields* whose value varies across worlds.  A
:class:`Field` identifies one such cell by relation name, template tuple id
and attribute name.

A special attribute name, :data:`EXISTS_ATTRIBUTE`, marks a boolean field that
decides whether the template tuple is present in a world at all; this is how
tuple-level uncertainty (``choice of``, tuple-independent tables) is encoded
on top of attribute-level fields.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Field", "EXISTS_ATTRIBUTE"]

#: Pseudo-attribute used for tuple-presence fields.
EXISTS_ATTRIBUTE = "__exists__"


@dataclass(frozen=True, order=True)
class Field:
    """One uncertain cell of the template: ``(relation, tuple id, attribute)``."""

    relation: str
    tuple_id: int
    attribute: str

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.relation}[{self.tuple_id}].{self.attribute}"
