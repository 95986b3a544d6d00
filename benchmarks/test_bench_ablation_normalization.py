"""ABL-1 — ablation: WSD normalisation (component factorisation) on/off.

DESIGN.md calls out normalisation as a design choice worth measuring: an
unnormalised decomposition (one component holding every field) stores the full
cross product of the independent choices, while the normalised form stores the
factors separately.  The benchmark converts explicitly enumerated world-sets
of increasing size into WSDs and reports the storage with and without
normalisation.
"""

from __future__ import annotations

import pytest

from repro import MayBMS
from repro.workloads import DirtyRelationSpec, dirty_key_relation
from repro.worldset import WorldSet, repair_by_key
from repro.wsd import from_worldset, is_normalized, normalize

from conftest import print_table, row_confidences

SPECS = [DirtyRelationSpec(groups=g, options=2, seed=11) for g in (2, 4, 6, 8)]


def build_unnormalised():
    """One unnormalised WSD (single component) per sweep point."""
    results = []
    for spec in SPECS:
        relation = dirty_key_relation(spec, name="Dirty")
        explicit = repair_by_key(WorldSet.single({"Dirty": relation}), "Dirty",
                                 ["K"], weight="W", target_name="I")
        results.append((spec, explicit, from_worldset(explicit, "I")))
    return results


def test_abl1_normalisation_reduces_storage():
    rows = []
    for spec, explicit, raw in build_unnormalised():
        normalised = normalize(raw)
        assert normalised.world_count() == raw.world_count()
        assert normalised.equivalent_to_worldset(explicit, relations=["I"])
        assert is_normalized(normalised)
        assert len(normalised.components) >= len(raw.components)
        rows.append((f"groups={spec.groups}", raw.world_count(),
                     raw.storage_size(), normalised.storage_size(),
                     len(normalised.components)))
    # Shape: the gap must widen as the number of independent groups grows.
    gaps = [raw_size / norm_size for _, _, raw_size, norm_size, _ in rows]
    assert gaps[-1] > gaps[0], "normalisation must pay off more on larger inputs"
    print_table("ABL-1: storage with and without normalisation",
                ["point", "worlds", "unnormalised cells", "normalised cells",
                 "components"], rows)


def test_abl1_confidence_cost_unnormalised_vs_normalised():
    spec = SPECS[-1]
    relation = dirty_key_relation(spec, name="Dirty")
    explicit = repair_by_key(WorldSet.single({"Dirty": relation}), "Dirty",
                             ["K"], weight="W", target_name="I")
    raw = from_worldset(explicit, "I")
    normalised = normalize(raw)
    probe = explicit.worlds[0].relation("I").rows[0]

    sessions = []
    for decomposition in (normalised, raw):
        db = MayBMS(backend="wsd")
        db.decomposition = decomposition
        sessions.append(db)
    fast, slow = [row_confidences(db, "I", [probe])[0] for db in sessions]
    assert fast == pytest.approx(slow)
    for db in sessions:
        assert db.backend.confidence_stats.enumeration_fallbacks == 0
    print_table("ABL-1: tuple confidence agrees across representations",
                ["representation", "components", "conf"],
                [("unnormalised", len(raw.components), round(slow, 4)),
                 ("normalised", len(normalised.components), round(fast, 4))])
