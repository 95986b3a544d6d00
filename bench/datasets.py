"""Seeded datasets for the benchmark.

One schema at three sizes.  ``Dirty(K, P1, B, W)`` has ``groups`` key values
with ``options`` conflicting tuples each; ``I`` is its weighted key repair
(``options ** groups`` worlds, never enumerated).  ``P1`` is wide-domain and
distinct per tuple (selective filters, correlated joins); ``B`` stays in
0..9 so aggregate convolutions keep few states; ``W`` in 1..10 weights the
repair; ``L(A, B)`` links neighbouring keys for the correlated ``conf``
self-join; ``Obs(K, V)`` is a certain relation of ``groups / 4`` rows and
the DML target.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro import MayBMS, ResourceBudgets
from repro.relational.relation import Relation
from repro.relational.schema import Column, Schema
from repro.relational.types import SqlType

REPAIR = "create table I as select K, P1, B from Dirty repair by key K weight W;"
APPROX_REPAIR = "create table I as select K, P1 from Dirty repair by key K weight W;"

#: The anytime class runs under budgets that force every exact tier over.
APPROX_BUDGETS = ResourceBudgets(enumeration_limit=64, dtree_nodes=16)
APPROX_GROUPS = 16


@dataclass(frozen=True)
class Size:
    name: str
    groups: int
    options: int


SIZE_S = Size("S", 40, 12)     # prepared read 0.4-0.6 ms
SIZE_M = Size("M", 200, 6)     # re-ground after a commit ~15 ms
SIZE_TINY = Size("tiny", 8, 2)  # 256 worlds: the explicit backend can enumerate


def _relation(name: str, columns: list[str], rows: list[tuple]) -> Relation:
    schema = Schema([Column(column, SqlType.INTEGER) for column in columns])
    return Relation(schema, rows, name=name)


#: Spacing of consecutive P1 values; ``P1`` spans ``[0, p1_range(size))``.
P1_STEP = 50


def p1_range(size: Size) -> int:
    return size.groups * size.options * P1_STEP


def catalog(size: Size, seed: int) -> dict[str, Relation]:
    """The three base relations; a pure function of (size, seed).

    The seed decides *where* each value goes, not *which* values exist:
    ``P1`` is a permutation of evenly spaced values, ``B`` and ``W`` are
    permutations of a fixed multiset.  Selectivities, convolution state
    counts and snapshot sizes are therefore the same for every seed, and a
    metric that moves between seeds is measuring the program, not the dice.
    """
    rng = random.Random(f"dataset:{seed}:{size.name}")
    count = size.groups * size.options
    ranks = list(range(count))
    payloads = [index % 10 for index in range(count)]
    weights = [1 + index % 10 for index in range(count)]
    for values in (ranks, payloads, weights):
        rng.shuffle(values)
    dirty = [(index // size.options,
              ranks[index] * P1_STEP + rng.randrange(P1_STEP),
              payloads[index], weights[index]) for index in range(count)]
    link = [(key, key + 1) for key in range(size.groups - 1)]
    # Obs starts on keys divisible by four; the write stream only ever
    # inserts (and later deletes) other keys, so it stays near groups / 4.
    keys = range(0, size.groups, 4)
    values = [index * 100 // len(keys) for index in range(len(keys))]
    rng.shuffle(values)
    return {"Dirty": _relation("Dirty", ["K", "P1", "B", "W"], dirty),
            "L": _relation("L", ["A", "B"], link),
            "Obs": _relation("Obs", ["K", "V"], list(zip(keys, values)))}


def user_bytes(size: Size, seed: int) -> int:
    """Bytes of the base relations rendered as comma-separated text."""
    return sum(len(",".join(map(str, row))) + 1
               for relation in catalog(size, seed).values()
               for row in relation.rows)


def session(size: Size, seed: int, backend: str = "wsd", **options) -> MayBMS:
    """A freshly built session with ``I`` repaired (``data_dir=`` persists)."""
    db = MayBMS(catalog(size, seed), backend=backend, **options)
    db.execute(REPAIR)
    return db


def persist(size: Size, seed: int, data_dir: str) -> None:
    """Build, repair, snapshot and close: a directory ``serve`` recovers."""
    db = session(size, seed, data_dir=data_dir)
    db.checkpoint()
    db.close()


def approx_catalog() -> dict[str, Relation]:
    """The APPROX1 chain: one 99:1 weighted choice per key group."""
    dirty = []
    for key in range(APPROX_GROUPS):
        dirty.append((key, 0, 99))
        dirty.append((key, 1, 1))
    link = [(key, key + 1) for key in range(APPROX_GROUPS - 1)]
    return {"Dirty": _relation("Dirty", ["K", "P1", "W"], dirty),
            "L": _relation("L", ["A", "B"], link)}


def approx_session(tight: bool) -> MayBMS:
    """The anytime-class session; ``tight=False`` answers exactly."""
    options = {"budgets": APPROX_BUDGETS} if tight else {}
    db = MayBMS(approx_catalog(), backend="wsd", **options)
    db.execute(APPROX_REPAIR)
    return db
