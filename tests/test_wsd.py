"""Unit tests for world-set decompositions: components, templates, WSDs.

Value and confidence questions about a decomposition are asked in I-SQL, on
a ``wsd`` session holding it and on an explicit session holding its
enumeration; the explicit answer is the reference.
"""

from __future__ import annotations

import pytest

from repro import MayBMS
from repro.errors import DecompositionError, ProbabilityError
from repro.relational.schema import Schema
from repro.wsd import (
    Alternative,
    Component,
    Field,
    Template,
    WorldSetDecomposition,
)


def make_field(i, attribute="V", relation="T"):
    return Field(relation, i, attribute)


def single_field_wsd(component):
    """T(V) with one template tuple whose cell is *component*'s field."""
    template = Template()
    template.add_relation("T", Schema(["V"]))
    template.add_tuple("T", [component.fields[0]])
    return WorldSetDecomposition(template, [component])


def answers(wsd, sql):
    """The rows of *sql* on both backends; asserts that they agree."""
    compact = MayBMS(backend="wsd")
    compact.decomposition = wsd
    explicit = MayBMS()
    explicit.world_set = wsd.to_worldset()
    reference = rounded(explicit.execute(sql).rows())
    assert rounded(compact.execute(sql).rows()) == reference
    return reference


def rounded(rows):
    return sorted(tuple(round(value, 9) if isinstance(value, float) else value
                        for value in row) for row in rows)


def confidences(wsd):
    """``{value: conf}`` of the single column of T."""
    return dict(answers(wsd, "select conf, V from T;"))


class TestComponent:
    def test_construction_and_size(self):
        component = Component([make_field(0)], [(1,), (2,), (3,)])
        assert len(component) == 3
        assert component.arity() == 1
        assert component.storage_size() == 3
        assert not component.is_probabilistic()

    def test_arity_mismatch_rejected(self):
        with pytest.raises(DecompositionError):
            Component([make_field(0)], [(1, 2)])

    def test_empty_fields_or_alternatives_rejected(self):
        with pytest.raises(DecompositionError):
            Component([], [(1,)])
        with pytest.raises(DecompositionError):
            Component([make_field(0)], [])

    def test_duplicate_fields_rejected(self):
        with pytest.raises(DecompositionError):
            Component([make_field(0), make_field(0)], [(1, 2)])

    def test_probability_validation(self):
        Component([make_field(0)], [Alternative((1,), 0.5), Alternative((2,), 0.5)])
        with pytest.raises(ProbabilityError):
            Component([make_field(0)],
                      [Alternative((1,), 0.5), Alternative((2,), 0.2)])
        with pytest.raises(ProbabilityError):
            Component([make_field(0)],
                      [Alternative((1,), -0.5), Alternative((2,), 1.5)])
        # A partially-weighted component is allowed: the None alternatives
        # share the residual mass — but the explicit weights must leave some.
        with pytest.raises(ProbabilityError):
            Component([make_field(0)],
                      [Alternative((1,), 0.7), Alternative((2,), 0.7),
                       Alternative((3,))])

    def test_partially_weighted_residual_mass_is_uniform(self):
        component = Component([make_field(0)],
                              [Alternative((1,), 0.5), Alternative((2,)),
                               Alternative((3,))])
        assert component.is_probabilistic()
        assert component.effective_probabilities() == \
            pytest.approx([0.5, 0.25, 0.25])
        assert confidences(single_field_wsd(component)) == \
            pytest.approx({1: 0.5, 2: 0.25, 3: 0.25})

    def test_values_and_marginal(self):
        component = Component([make_field(0)],
                              [Alternative((1,), 0.25), Alternative((2,), 0.75)])
        assert confidences(single_field_wsd(component)) == \
            pytest.approx({1: 0.25, 2: 0.75})

    def test_marginal_uniform_when_unweighted(self):
        component = Component([make_field(0)], [(1,), (2,), (1,)])
        marginal = confidences(single_field_wsd(component))
        assert marginal[1] == pytest.approx(2 / 3)

    def test_condition_renormalises(self):
        component = Component([make_field(0)],
                              [Alternative((1,), 0.25), Alternative((2,), 0.75)])
        conditioned = component.condition(lambda a: a[make_field(0)] == 2)
        assert conditioned.alternatives[0].probability == pytest.approx(1.0)
        with pytest.raises(DecompositionError):
            component.condition(lambda a: False)

    def test_project_merges_duplicates(self):
        f0, f1 = make_field(0), make_field(1)
        component = Component([f0, f1], [Alternative((1, "x"), 0.5),
                                         Alternative((1, "y"), 0.25),
                                         Alternative((2, "x"), 0.25)])
        projected = component.project([f0])
        assert [alternative.values for alternative in projected.alternatives] \
            == [(1,), (2,)]
        assert projected.effective_probabilities() == \
            pytest.approx([0.75, 0.25])

    def test_merge_requires_disjoint_fields(self):
        first = Component([make_field(0)], [Alternative((1,), 1.0)])
        second = Component([make_field(1)], [Alternative((2,), 0.5),
                                             Alternative((3,), 0.5)])
        merged = first.merge(second)
        assert merged.arity() == 2 and len(merged) == 2
        with pytest.raises(DecompositionError):
            first.merge(first)


class TestTemplate:
    def test_add_relation_and_tuple(self):
        template = Template()
        template.add_relation("T", Schema(["A", "B"]))
        field = make_field(0, "B")
        template.add_tuple("T", ["a", field])
        assert template.all_fields() == {field}
        assert template.constant_cell_count() == 1

    def test_arity_checked(self):
        template = Template()
        template.add_relation("T", Schema(["A"]))
        with pytest.raises(DecompositionError):
            template.add_tuple("T", ["a", "b"])

    def test_unknown_relation_rejected(self):
        with pytest.raises(DecompositionError):
            Template().add_tuple("T", ["a"])


class TestWorldSetDecomposition:
    def build_simple(self):
        """Two independent binary fields -> four worlds."""
        template = Template()
        template.add_relation("T", Schema(["A", "B"]))
        f_a = Field("T", 0, "A")
        f_b = Field("T", 0, "B")
        template.add_tuple("T", [f_a, f_b])
        components = [
            Component([f_a], [Alternative((1,), 0.5), Alternative((2,), 0.5)]),
            Component([f_b], [Alternative(("x",), 0.25), Alternative(("y",), 0.75)]),
        ]
        return WorldSetDecomposition(template, components), f_a, f_b

    def test_world_count_and_storage(self):
        wsd, _, _ = self.build_simple()
        assert wsd.world_count() == 4
        assert wsd.storage_size() == 4
        assert wsd.is_probabilistic()

    def test_field_covered_once(self):
        template = Template()
        template.add_relation("T", Schema(["A"]))
        f = Field("T", 0, "A")
        template.add_tuple("T", [f])
        with pytest.raises(DecompositionError):
            WorldSetDecomposition(template, [
                Component([f], [(1,)]), Component([f], [(2,)])])
        with pytest.raises(DecompositionError):
            WorldSetDecomposition(template, [])  # field not covered

    def test_enumeration_and_probabilities(self):
        wsd, f_a, f_b = self.build_simple()
        worlds = list(wsd.iter_assignments())
        assert len(worlds) == 4
        total = sum(probability for _, probability in worlds)
        assert total == pytest.approx(1.0)
        world_set = wsd.to_worldset()
        assert len(world_set) == 4

    def test_enumeration_limit_guard(self):
        wsd, _, _ = self.build_simple()
        with pytest.raises(DecompositionError):
            wsd.to_worldset(limit=2)

    def test_world_probability(self):
        wsd, f_a, f_b = self.build_simple()
        assert answers(wsd, "select conf from T where A = 1 and B = 'y';") \
            == [(pytest.approx(0.375),)]
        assert answers(wsd, "select conf from T where A = 99 and B = 'y';") \
            == [(0.0,)]

    def test_possible_and_certain_values(self):
        wsd, f_a, f_b = self.build_simple()
        assert answers(wsd, "select possible A from T;") == [(1,), (2,)]
        assert answers(wsd, "select certain A from T;") == []
        single = Component([Field("T", 1, "A")], [Alternative((7,), 1.0)])
        template = wsd.template
        template.add_tuple("T", [Field("T", 1, "A"), "const"])
        bigger = WorldSetDecomposition(template, wsd.components + [single])
        assert answers(bigger, "select certain A from T;") == [(7,)]

    def test_row_confidence(self):
        wsd, f_a, f_b = self.build_simple()
        confidence = {(a, b): conf for a, b, conf
                      in answers(wsd, "select conf, A, B from T;")}
        assert confidence[(1, "x")] == pytest.approx(0.125)
        assert confidence[(2, "y")] == pytest.approx(0.375)
        assert (9, "z") not in confidence
        assert answers(wsd, "select conf from T where A = 9 and B = 'z';") \
            == [(0.0,)]

    def test_event_confidence_matches_explicit(self):
        wsd, f_a, f_b = self.build_simple()
        assert answers(wsd, "select conf from T where A = 2;") == \
            [(pytest.approx(0.5),)]

    def test_condition_merges_components(self):
        wsd, f_a, f_b = self.build_simple()
        conditioned = wsd.condition(
            lambda a: not (a[f_a] == 1 and a[f_b] == "x"), [f_a, f_b])
        assert conditioned.world_count() == 3
        assert len(conditioned.components) == 1
        total = sum(p for _, p in conditioned.iter_assignments())
        assert total == pytest.approx(1.0)

    def test_instantiate_respects_presence_fields(self):
        template = Template()
        template.add_relation("T", Schema(["A"]))
        presence = Field("T", 0, "__exists__")
        template.add_tuple("T", ["a"], presence=presence)
        wsd = WorldSetDecomposition(template, [
            Component([presence], [Alternative((True,), 0.6),
                                   Alternative((False,), 0.4)])])
        worlds = wsd.to_worldset()
        sizes = sorted(len(world.relation("T")) for world in worlds)
        assert sizes == [0, 1]
        assert answers(wsd, "select conf, A from T;") == \
            [("a", pytest.approx(0.6))]
