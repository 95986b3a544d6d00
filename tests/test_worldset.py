"""Unit tests for the explicit world-set backend (worlds, world-sets, probability).

Questions about a world-set (``possible``, ``certain``, ``conf``,
``assert``, ``group worlds by``) are asked in I-SQL through a session whose
world-set is the one under test.
"""

from __future__ import annotations

import pytest

from repro import MayBMS
from repro.errors import ProbabilityError, WorldSetError
from repro.relational.relation import Relation
from repro.worldset import World, WorldSet, normalize


def make_world(value, probability=None, label=None):
    return World({"T": Relation(["V"], [(value,)])}, probability, label)


def session(*worlds):
    """An explicit-backend session holding exactly *worlds*."""
    db = MayBMS()
    db.world_set = WorldSet(worlds)
    return db


class TestProbabilityHelpers:
    def test_normalize(self):
        assert normalize([1, 3]) == [0.25, 0.75]
        with pytest.raises(ProbabilityError):
            normalize([0.0, 0.0])


@pytest.mark.parametrize("backend", ["explicit", "wsd"])
class TestRepairWeights:
    """``repair by key ... weight`` turns each key group's weights into
    world probabilities, on both backends."""

    @staticmethod
    def repair(backend, weights):
        db = MayBMS({"R": Relation(["K", "V", "W"], [
            (1, value, weight) for value, weight in enumerate(weights)])},
            backend=backend)
        db.execute("create table I as select K, V from R "
                   "repair by key K weight W;")
        return db

    def test_weights_are_normalised(self, backend):
        db = self.repair(backend, [2, 6])
        confidences = dict(db.execute("select conf, V from I;").rows())
        assert confidences == pytest.approx({0: 0.25, 1: 0.75})

    def test_negative_weight_rejected(self, backend):
        with pytest.raises(ProbabilityError):
            self.repair(backend, [-1, 2])

    def test_zero_weight_sum_rejected(self, backend):
        with pytest.raises(ProbabilityError):
            self.repair(backend, [0, 0])


class TestWorld:
    def test_relation_access(self):
        world = make_world(1, label="A")
        assert world.has_relation("T")
        assert world.relation("T").rows == [(1,)]

    def test_copy_is_independent_and_keeps_probability(self):
        world = make_world(1, probability=0.5, label="A")
        clone = world.copy()
        clone.catalog.get("T").insert((2,))
        assert len(world.relation("T")) == 1
        assert clone.probability == 0.5
        assert world.copy(probability=None).probability is None

    def test_with_and_without_relation(self):
        world = make_world(1)
        extended = world.with_relation("U", Relation(["X"], [(9,)]))
        assert extended.has_relation("U") and not world.has_relation("U")
        assert not extended.without_relation("U").has_relation("U")

    def test_same_contents(self):
        assert make_world(1).same_contents(make_world(1, probability=0.3))
        assert not make_world(1).same_contents(make_world(2))

    def test_describe_mentions_label_and_probability(self):
        text = make_world(1, 0.25, "B").describe()
        assert "B" in text and "0.25" in text


class TestWorldSetBasics:
    def test_single(self):
        world_set = WorldSet.single({"T": Relation(["V"], [(1,)])}, label="A")
        assert len(world_set) == 1
        assert world_set[0].label == "A"

    def test_probabilities_and_labels(self):
        world_set = WorldSet([make_world(1, 0.5, "A"), make_world(2, 0.5, "B")])
        assert world_set.is_probabilistic()
        assert world_set.probabilities() == [0.5, 0.5]
        assert world_set.labels() == ["A", "B"]
        assert world_set.world_by_label("B").relation("T").rows == [(2,)]
        with pytest.raises(WorldSetError):
            world_set.world_by_label("Z")

    def test_relabel(self):
        world_set = WorldSet([make_world(i) for i in range(30)])
        world_set.relabel()
        assert world_set.labels()[0] == "A"
        assert world_set.labels()[26] == "A1"

class TestWorldSetOperations:
    def test_create_table_as_extends_every_world(self):
        db = session(make_world(1, label="A"), make_world(2, label="B"))
        before = db.world_set
        db.execute("create table Doubled as select V * 2 as V from T;")
        assert [w.relation("Doubled").rows for w in db.world_set] == \
            [[(2,)], [(4,)]]
        # Input worlds untouched.
        assert not before[0].has_relation("Doubled")

    def test_expand_with_weights_multiplies_probabilities(self):
        world_set = WorldSet([make_world(0, probability=1.0, label="A")])

        def splitter(world):
            return [(world.with_relation("T", Relation(["V"], [(1,)])), 0.25),
                    (world.with_relation("T", Relation(["V"], [(2,)])), 0.75)]

        expanded = world_set.expand(splitter)
        assert expanded.probabilities() == [0.25, 0.75]
        assert expanded.labels() == ["A", "B"]

    def test_expand_without_weights_keeps_non_probabilistic(self):
        world_set = WorldSet([make_world(0)])
        expanded = world_set.expand(
            lambda world: [(world.copy(), None), (world.copy(), None)])
        assert expanded.probabilities() == [None, None]

    def test_expand_rejects_empty_split(self):
        world_set = WorldSet([make_world(0)])
        with pytest.raises(WorldSetError):
            world_set.expand(lambda world: [])

    def test_assert_renormalises(self):
        db = session(make_world(1, 0.25, "A"), make_world(2, 0.25, "B"),
                     make_world(3, 0.5, "C"))
        db.execute("create table U as select * from T "
                   "assert exists (select * from T where V >= 2);")
        assert db.world_set.labels() == ["B", "C"]
        assert db.world_set.probabilities() == pytest.approx([1 / 3, 2 / 3])

    def test_assert_dropping_all_worlds_raises(self):
        db = session(make_world(1, 1.0))
        with pytest.raises(WorldSetError):
            db.execute("create table U as select * from T "
                       "assert exists (select * from T where V > 1);")

    def test_possible_and_certain(self):
        db = session(make_world(1), make_world(2))
        assert sorted(db.execute("select possible V from T;").rows()) == \
            [(1,), (2,)]
        assert db.execute("select certain V from T;").rows() == []

    def test_certain_keeps_shared_tuples(self):
        db = session(World({"T": Relation(["V"], [(1,), (7,)])}),
                     World({"T": Relation(["V"], [(7,)])}))
        assert db.execute("select certain V from T;").rows() == [(7,)]

    def test_row_confidence_uniform_when_non_probabilistic(self):
        db = session(make_world(1), make_world(1), make_world(2))
        confidences = dict(db.execute("select conf, V from T;").rows())
        assert confidences[1] == pytest.approx(2 / 3)
        assert confidences[2] == pytest.approx(1 / 3)

    def test_event_confidence(self):
        db = session(make_world(1, 0.25), make_world(2, 0.75))
        probability = db.execute("select conf from T where V = 2;").scalar()
        assert probability == pytest.approx(0.75)

    def test_group_worlds_by(self):
        db = session(make_world(1, label="A"), make_world(2, label="B"),
                     make_world(3, label="C"))
        answers = db.execute(
            "select possible V from T "
            "group worlds by (select 'big' from T where V > 1);"
        ).answers_by_label()
        assert answers["A"].rows == [(1,)]
        assert sorted(answers["B"].rows) == sorted(answers["C"].rows) == \
            [(2,), (3,)]

    def test_same_world_contents_order_insensitive(self):
        first = WorldSet([make_world(1, 0.5), make_world(2, 0.5)])
        second = WorldSet([make_world(2, 0.5), make_world(1, 0.5)])
        assert first.same_world_contents(second, compare_probabilities=True)
        third = WorldSet([make_world(1, 0.5), make_world(3, 0.5)])
        assert not first.same_world_contents(third)
