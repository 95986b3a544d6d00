"""Unit tests for WSD constructors and normalisation (factorisation)."""

from __future__ import annotations

import pytest

from repro import MayBMS
from repro.errors import DecompositionError
from repro.relational.relation import Relation
from repro.worldset import WorldSet, repair_by_key
from repro.wsd import (
    Alternative,
    Component,
    Field,
    from_choice_of,
    from_key_repair,
    from_worldset,
    factorize_component,
    is_normalized,
    normalize,
)


class TestFromKeyRepair:
    def test_matches_figure2_worlds_and_probabilities(self, relation_r,
                                                      figure2_worlds):
        wsd = from_key_repair(relation_r, ["A"], weight="D", target_name="I",
                              output_columns=["A", "B", "C"])
        assert wsd.world_count() == 4
        assert wsd.equivalent_to_worldset(figure2_worlds, relations=["I"])

    def test_component_per_violating_key_group(self, relation_r):
        wsd = from_key_repair(relation_r, ["A"], target_name="I")
        # Three key groups; the a3 group has a single tuple and still gets a
        # (one-alternative) component for its non-key fields.
        assert len(wsd.components) == 3
        assert sorted(len(c) for c in wsd.components) == [1, 2, 2]

    def test_storage_grows_linearly_not_exponentially(self):
        rows = [(group, option, 1) for group in range(12) for option in range(2)]
        relation = Relation(["K", "V", "W"], rows, name="Dirty")
        wsd = from_key_repair(relation, ["K"], weight="W")
        assert wsd.world_count() == 2 ** 12
        assert wsd.storage_size() < 200

    def test_row_confidence_from_repair(self, relation_r):
        wsd = from_key_repair(relation_r, ["A"], weight="D", target_name="I",
                              output_columns=["A", "B", "C"])
        db = MayBMS(backend="wsd")
        db.decomposition = wsd
        assert db.execute("select conf from I where A = 'a1' and B = 10 "
                          "and C = 'c1';").scalar() == pytest.approx(0.25)
        assert db.execute("select conf from I where A = 'a3' and B = 20 "
                          "and C = 'c5';").scalar() == pytest.approx(1.0)

    def test_extra_certain_relations_present_in_every_world(self, relation_r,
                                                            relation_s):
        wsd = from_key_repair(relation_r, ["A"], target_name="I",
                              extra_certain=[relation_s])
        world_set = wsd.to_worldset()
        assert all(len(world.relation("S")) == 3 for world in world_set)

    def test_empty_relation_rejected(self):
        with pytest.raises(DecompositionError):
            from_key_repair(Relation(["A", "B"], []), ["A"])


class TestFromChoiceOf:
    def test_matches_explicit_choice(self, relation_s):
        wsd = from_choice_of(relation_s, ["E"])
        assert wsd.world_count() == 2
        worlds = wsd.to_worldset()
        sizes = sorted(len(world.relation("S")) for world in worlds)
        assert sizes == [1, 2]

    def test_weighted_choice_probabilities(self, relation_r):
        wsd = from_choice_of(relation_r, ["A"], weight="D")
        worlds = wsd.to_worldset()
        assert sorted(round(w.probability, 2) for w in worlds) == [0.26, 0.35, 0.39]

    def test_single_component_controls_all_presence_fields(self, relation_s):
        wsd = from_choice_of(relation_s, ["E"])
        assert len(wsd.components) == 1
        assert wsd.components[0].arity() == 3


class TestFromWorldSetAndNormalize:
    def test_round_trip_explicit_to_wsd(self, figure1_catalog):
        explicit = repair_by_key(WorldSet.single(figure1_catalog), "R", ["A"],
                                 weight="D", target_name="I",
                                 output_columns=["A", "B", "C"])
        wsd = from_worldset(explicit, "I")
        assert wsd.world_count() == len(explicit)
        assert wsd.equivalent_to_worldset(explicit, relations=["I"])

    def test_normalize_factorises_product_worldsets(self, figure1_catalog):
        explicit = repair_by_key(WorldSet.single(figure1_catalog), "R", ["A"],
                                 weight="D", target_name="I",
                                 output_columns=["A", "B", "C"])
        wsd = from_worldset(explicit, "I")
        assert len(wsd.components) == 1
        normalised = normalize(wsd)
        # The repair of R on A has two independent choices (a1 and a2 groups);
        # the a3 group is certain, so normalisation finds >= 2 components.
        assert len(normalised.components) >= 2
        assert normalised.storage_size() < wsd.storage_size()
        assert normalised.equivalent_to_worldset(explicit, relations=["I"])
        assert is_normalized(normalised)

    def test_normalize_preserves_world_count(self):
        fields = [Field("T", 0, "A"), Field("T", 0, "B"), Field("T", 0, "C")]
        alternatives = []
        for a in (0, 1):
            for b in (0, 1):
                for c in (0, 1):
                    alternatives.append(Alternative((a, b, c), 1 / 8))
        component = Component(fields, alternatives)
        factors = factorize_component(component)
        assert len(factors) == 3
        assert all(len(factor) == 2 for factor in factors)

    def test_correlated_component_not_split(self):
        fields = [Field("T", 0, "A"), Field("T", 0, "B")]
        component = Component(fields, [Alternative((0, 0), 0.5),
                                       Alternative((1, 1), 0.5)])
        assert factorize_component(component) == [component]

    def test_probability_dependence_blocks_split(self):
        # Values form a full product but the probabilities are correlated, so
        # the component must not be split.
        fields = [Field("T", 0, "A"), Field("T", 0, "B")]
        component = Component(fields, [
            Alternative((0, 0), 0.4), Alternative((0, 1), 0.1),
            Alternative((1, 0), 0.1), Alternative((1, 1), 0.4)])
        assert len(factorize_component(component)) == 1

    def test_empty_worldset_rejected(self):
        with pytest.raises(DecompositionError):
            from_worldset(WorldSet([]), "I")
