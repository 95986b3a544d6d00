"""Explicit world-sets vs. world-set decompositions as uncertainty grows.

The demonstration paper builds on the companion papers' observation that
real dirty data induces astronomically many possible repairs ("10^(10^6)
worlds and beyond") — far too many to enumerate.  This example shows the two
representations side by side on growing synthetic workloads:

* the explicit backend enumerates every repair (feasible only for small
  inputs);
* the world-set decomposition represents the same world-set with one
  component per key group, growing linearly with the input.

Both answer the same confidence queries, with identical results where the
explicit backend is feasible.

Run with:  python examples/scaling_representations.py
"""

from __future__ import annotations

import time

from repro import MayBMS
from repro.workloads import DirtyRelationSpec, dirty_key_relation
from repro.worldset import WorldSet, repair_by_key
from repro.wsd import from_key_repair, normalize


def measure_point(groups: int, options: int, explicit_limit: int = 5000) -> dict:
    spec = DirtyRelationSpec(groups=groups, options=options, seed=17)
    relation = dirty_key_relation(spec)
    point = {
        "groups": groups,
        "options": options,
        "worlds": spec.expected_world_count(),
        "input rows": len(relation),
    }

    start = time.perf_counter()
    wsd = from_key_repair(relation, ["K"], weight="W", target_name="I")
    point["wsd cells"] = wsd.storage_size()
    point["wsd build ms"] = (time.perf_counter() - start) * 1000
    db = MayBMS(backend="wsd")
    db.decomposition = wsd
    where = " and ".join(f"{column.name} = ?" for column in relation.schema)
    point["wsd conf"] = db.execute(f"select conf from I where {where};",
                                   list(relation.rows[0])).scalar()

    if spec.expected_world_count() <= explicit_limit:
        start = time.perf_counter()
        explicit = repair_by_key(WorldSet.single({"Dirty": relation}), "Dirty",
                                 ["K"], weight="W", target_name="I")
        point["explicit tuples"] = sum(len(world.relation("I"))
                                       for world in explicit)
        point["explicit build ms"] = (time.perf_counter() - start) * 1000
        point["explicit conf"] = sum(
            world.probability for world in explicit
            if relation.rows[0] in set(world.relation("I").rows))
    else:
        point["explicit tuples"] = None
        point["explicit build ms"] = None
        point["explicit conf"] = None
    return point


def main() -> None:
    print(f"{'point':>18} | {'worlds':>12} | {'explicit':>10} | {'WSD cells':>9} "
          f"| {'conf agrees':>11}")
    print("-" * 74)
    for groups in (2, 4, 6, 8, 10, 12, 20, 40):
        point = measure_point(groups=groups, options=2)
        explicit = (str(point["explicit tuples"])
                    if point["explicit tuples"] is not None else "infeasible")
        if point["explicit conf"] is None:
            agreement = "n/a"
        else:
            agreement = ("yes" if abs(point["explicit conf"] - point["wsd conf"])
                         < 1e-9 else "NO")
        print(f"groups={groups:>3} opt=2    | {point['worlds']:>12} | "
              f"{explicit:>10} | {point['wsd cells']:>9} | {agreement:>11}")

    print("\nNormalisation demo: converting an enumerated world-set back into a")
    print("compact decomposition recovers the independent components:")
    relation = dirty_key_relation(DirtyRelationSpec(groups=6, options=2, seed=17))
    explicit = repair_by_key(WorldSet.single({"Dirty": relation}), "Dirty",
                             ["K"], weight="W", target_name="I")
    from repro.wsd import from_worldset

    raw = from_worldset(explicit, "I")
    compact = normalize(raw)
    print(f"  enumerated worlds: {len(explicit)}")
    print(f"  unnormalised WSD:  1 component, {raw.storage_size()} cells")
    print(f"  normalised WSD:    {len(compact.components)} components, "
          f"{compact.storage_size()} cells")


if __name__ == "__main__":
    main()
