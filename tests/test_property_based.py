"""Property-based tests (Hypothesis) for the core invariants.

The key invariants:

* ``repair by key`` produces exactly ``prod(group sizes)`` worlds and, when
  weighted, probabilities that sum to one;
* the WSD built by :func:`from_key_repair` is semantically equivalent to the
  explicitly enumerated world-set (same worlds, same probabilities);
* WSD normalisation never changes the represented world-set;
* ``possible`` is the union and ``certain`` the intersection of the per-world
  answers, and both are consistent with tuple confidence;
* ``assert`` renormalisation keeps probabilities summing to one.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro import MayBMS
from repro.relational.relation import Relation
from repro.relational.schema import Column, Schema
from repro.relational.types import SqlType
from repro.worldset import WorldSet, repair_by_key
from repro.wsd import from_key_repair, from_worldset, normalize


# -- workload strategy ---------------------------------------------------------------------


@st.composite
def dirty_relations(draw, max_groups=4, max_options=3):
    """A small relation with key violations and positive integer weights."""
    groups = draw(st.integers(min_value=1, max_value=max_groups))
    rows = []
    for key in range(groups):
        options = draw(st.integers(min_value=1, max_value=max_options))
        values = draw(st.lists(st.integers(min_value=0, max_value=50),
                               min_size=options, max_size=options, unique=True))
        for position, value in enumerate(values):
            weight = draw(st.integers(min_value=1, max_value=9))
            rows.append((key, value, weight))
    schema = Schema([Column("K", SqlType.INTEGER), Column("V", SqlType.INTEGER),
                     Column("W", SqlType.INTEGER)])
    return Relation(schema, rows, name="D")


# -- repair-by-key invariants -----------------------------------------------------------------


class TestRepairInvariants:
    @given(relation=dirty_relations())
    @settings(max_examples=40, deadline=None)
    def test_world_count_is_product_of_group_sizes(self, relation):
        db = MayBMS({"D": relation})
        db.execute("create table I as select * from D repair by key K;")
        group_sizes = db.execute(
            "select certain K, count(*) from D group by K;").rows()
        assert db.world_count() == math.prod(size for _, size in group_sizes)

    @given(relation=dirty_relations())
    @settings(max_examples=40, deadline=None)
    def test_weighted_probabilities_sum_to_one(self, relation):
        world_set = repair_by_key(WorldSet.single({"D": relation}), "D", ["K"],
                                  weight="W", target_name="I")
        assert sum(world.probability for world in world_set) == pytest.approx(1.0)
        assert all(world.probability > 0 for world in world_set)

    @given(relation=dirty_relations())
    @settings(max_examples=40, deadline=None)
    def test_every_repair_satisfies_the_key(self, relation):
        world_set = repair_by_key(WorldSet.single({"D": relation}), "D", ["K"],
                                  target_name="I")
        for world in world_set:
            keys = [row[0] for row in world.relation("I").rows]
            assert len(keys) == len(set(keys))


# -- WSD equivalence and normalisation ----------------------------------------------------------


class TestWsdInvariants:
    @given(relation=dirty_relations())
    @settings(max_examples=30, deadline=None)
    def test_wsd_equivalent_to_explicit_enumeration(self, relation):
        explicit = repair_by_key(WorldSet.single({"D": relation}), "D", ["K"],
                                 weight="W", target_name="I")
        wsd = from_key_repair(relation, ["K"], weight="W", target_name="I")
        assert wsd.world_count() == len(explicit)
        assert wsd.equivalent_to_worldset(explicit, relations=["I"])

    @given(relation=dirty_relations())
    @settings(max_examples=30, deadline=None)
    def test_wsd_storage_never_exceeds_explicit_tuple_count(self, relation):
        explicit = repair_by_key(WorldSet.single({"D": relation}), "D", ["K"],
                                 target_name="I")
        wsd = from_key_repair(relation, ["K"], target_name="I")
        explicit_cells = sum(
            len(world.relation("I")) * len(world.relation("I").schema)
            for world in explicit)
        assert wsd.storage_size() <= explicit_cells

    @given(relation=dirty_relations(max_groups=3, max_options=2))
    @settings(max_examples=25, deadline=None)
    def test_normalisation_preserves_the_world_set(self, relation):
        explicit = repair_by_key(WorldSet.single({"D": relation}), "D", ["K"],
                                 weight="W", target_name="I")
        unnormalised = from_worldset(explicit, "I")
        normalised = normalize(unnormalised)
        assert normalised.world_count() == unnormalised.world_count()
        assert normalised.equivalent_to_worldset(explicit, relations=["I"])
        assert normalised.storage_size() <= unnormalised.storage_size()

    @given(relation=dirty_relations())
    @settings(max_examples=30, deadline=None)
    def test_row_confidence_matches_explicit_count(self, relation):
        explicit = repair_by_key(WorldSet.single({"D": relation}), "D", ["K"],
                                 weight="W", target_name="I")
        db = MayBMS(backend="wsd")
        db.decomposition = from_key_repair(relation, ["K"], weight="W",
                                           target_name="I")
        some_row = relation.rows[0]
        expected = sum(world.probability for world in explicit
                       if some_row in set(world.relation("I").rows))
        key, value, weight = some_row
        confidence = db.execute(
            f"select conf from I where K = {key} and V = {value} "
            f"and W = {weight};").scalar()
        assert confidence == pytest.approx(expected)


# -- I-SQL semantics invariants ------------------------------------------------------------------


class TestQuerySemanticsInvariants:
    @given(relation=dirty_relations(max_groups=3, max_options=3))
    @settings(max_examples=25, deadline=None)
    def test_possible_is_union_and_certain_is_intersection(self, relation):
        db = MayBMS({"D": relation})
        db.execute("create table I as select K, V from D repair by key K weight W;")
        per_world = db.execute("select K, V from I;")
        union = set()
        intersection = None
        for answer in per_world.world_answers:
            rows = set(answer.relation.rows)
            union |= rows
            intersection = rows if intersection is None else intersection & rows
        possible = set(map(tuple, db.execute("select possible K, V from I;").rows()))
        certain = set(map(tuple, db.execute("select certain K, V from I;").rows()))
        assert possible == union
        assert certain == intersection

    @given(relation=dirty_relations(max_groups=3, max_options=3))
    @settings(max_examples=25, deadline=None)
    def test_confidences_lie_in_unit_interval_and_match_quantifiers(self, relation):
        db = MayBMS({"D": relation})
        db.execute("create table I as select K, V from D repair by key K weight W;")
        conf_rows = db.execute("select conf, K, V from I;").rows()
        possible = set(map(tuple, db.execute("select possible K, V from I;").rows()))
        for *row, confidence in conf_rows:
            assert 0.0 < confidence <= 1.0 + 1e-9
            assert tuple(row) in possible

    @given(relation=dirty_relations(max_groups=3, max_options=2),
           threshold=st.integers(min_value=0, max_value=60))
    @settings(max_examples=25, deadline=None)
    def test_assert_renormalises_to_one_or_raises(self, relation, threshold):
        db = MayBMS({"D": relation})
        db.execute("create table I as select K, V from D repair by key K weight W;")
        from repro.errors import WorldSetError

        try:
            db.execute("create table J as select * from I assert exists "
                       f"(select * from I where V >= {threshold});")
        except WorldSetError:
            return  # the assert dropped every world, which is a legal outcome
        assert sum(world.probability for world in db.world_set) == pytest.approx(1.0)
