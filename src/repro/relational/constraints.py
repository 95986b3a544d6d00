"""Key constraints: violation checking and key-repair choices.

The I-SQL operations of the paper revolve around constraint violations:
``repair by key`` enumerates the maximal consistent subsets of a relation with
respect to a key, and ``assert`` is routinely used to enforce functional
dependencies across worlds (Section 3.2 of the paper; see
:func:`repro.cleaning.enforce_functional_dependency`).  This module checks
declared keys and enumerates the key-repair choices shared by the explicit
world-set backend and the WSD backend.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import ConstraintViolationError
from .relation import Relation

__all__ = [
    "check_key",
    "key_violations",
    "key_repair_groups",
]


def key_violations(relation: Relation,
                   key: Sequence[str]) -> dict[tuple, list[tuple]]:
    """Return the key groups of *relation* that contain more than one tuple.

    The result maps each violating key value to the list of rows sharing it.
    """
    indexes = [relation.schema.index_of(name) for name in key]
    groups: dict[tuple, list[tuple]] = {}
    for row in relation.rows:
        groups.setdefault(tuple(row[i] for i in indexes), []).append(row)
    return {value: rows for value, rows in groups.items() if len(rows) > 1}


def check_key(relation: Relation, key: Sequence[str],
              raise_on_violation: bool = False) -> bool:
    """Return True when *key* holds in *relation*."""
    violations = key_violations(relation, key)
    if violations and raise_on_violation:
        value, rows = next(iter(violations.items()))
        raise ConstraintViolationError(
            f"key ({', '.join(key)}) violated by value {value!r}: "
            f"{len(rows)} tuples share it")
    return not violations


def key_repair_groups(relation: Relation,
                      key: Sequence[str]) -> list[tuple[tuple, list[tuple]]]:
    """Group the rows of *relation* by their key value, preserving order.

    Each group is one independent choice point of ``repair by key``: a repair
    picks exactly one tuple from every group.  The groups are returned in the
    order their key values first appear in the relation, which keeps world
    enumeration deterministic and reproducible.
    """
    indexes = [relation.schema.index_of(name) for name in key]
    order: list[tuple] = []
    groups: dict[tuple, list[tuple]] = {}
    for row in relation.rows:
        value = tuple(row[i] for i in indexes)
        if value not in groups:
            order.append(value)
            groups[value] = []
        groups[value].append(row)
    return [(value, groups[value]) for value in order]
