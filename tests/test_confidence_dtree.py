"""The exact d-tree confidence engine (:mod:`repro.wsd.confidence`).

Covers the three d-tree rules (independence partitioning, exclusive-clause
summation, Shannon expansion with alternative blocks), memoisation, the node
budget with its guarded-enumeration fallback, the rungs of
:class:`~repro.wsd.ConfidenceLadder` (closed form → d-tree → enumeration)
with their stats counters, the factored ``assert not exists``
conditioning, and the partially-weighted component semantics.
"""

from __future__ import annotations

from itertools import product
from unittest import mock

import pytest

from repro import MayBMS
from repro.errors import EnumerationLimitError, ProbabilityError, WorldSetError
from repro.relational.relation import Relation
from repro.relational.schema import Column, Schema
from repro.relational.types import SqlType
from repro.workloads import DirtyRelationSpec, dirty_key_relation
from repro.wsd import (
    Alternative,
    Component,
    ConfidenceLadder,
    ConfidenceStats,
    DTreeBudgetExceededError,
    DTreeEngine,
    Field,
    normalise_clauses,
)


def make_components(*specs):
    """Components from specs: either an int (size, unweighted) or a list of
    probabilities."""
    components = []
    for index, spec in enumerate(specs):
        f = Field("T", index, "a")
        if isinstance(spec, int):
            components.append(Component([f], [Alternative((v,))
                                              for v in range(spec)]))
        else:
            components.append(Component(
                [f], [Alternative((v,), p) for v, p in enumerate(spec)]))
    return components


def wsd_session(decomposition):
    """A wsd session holding the hand-built *decomposition*."""
    db = MayBMS(backend="wsd")
    db.decomposition = decomposition
    return db


def row_conf(db, name, row):
    """``conf`` of *row* being in relation *name*, asked in I-SQL."""
    columns = db.decomposition.template.schemas[name].columns
    where = " and ".join(f"{column.name} = ?" for column in columns)
    return db.execute(f"select conf from {name} where {where};",
                      list(row)).scalar()


def brute_force(components, clauses):
    """Reference DNF probability by full joint enumeration."""
    total = 0.0
    covers = True
    masses = [c.effective_probabilities() for c in components]
    for combo in product(*(range(len(c)) for c in components)):
        holds = any(all(combo[index] in allowed for index, allowed in clause)
                    for clause in clauses)
        if holds:
            weight = 1.0
            for index, alt in enumerate(combo):
                weight *= masses[index][alt]
            total += weight
        else:
            covers = False
    return total, covers


class TestNormaliseClauses:
    def test_full_atoms_dropped_and_tautology_detected(self):
        sizes = [2, 3]
        # Atom covering the whole component is dropped; the clause becomes
        # empty -> tautology -> None.
        assert normalise_clauses([[(0, frozenset({0, 1}))]], sizes) is None

    def test_unsatisfiable_clause_dropped(self):
        sizes = [2, 2]
        out = normalise_clauses(
            [[(0, frozenset({0})), (0, frozenset({1}))],
             [(1, frozenset({0}))]], sizes)
        assert out == frozenset({((1, frozenset({0})),)})

    def test_repeated_atoms_intersect(self):
        sizes = [3]
        out = normalise_clauses(
            [[(0, frozenset({0, 1})), (0, frozenset({1, 2}))]], sizes)
        assert out == frozenset({((0, frozenset({1})),)})


class TestDTreeRules:
    def test_independent_clauses_multiply_out(self):
        components = make_components([0.3, 0.7], [0.4, 0.6])
        stats = ConfidenceStats()
        engine = DTreeEngine(components, stats=stats)
        clauses = [[(0, frozenset({0}))], [(1, frozenset({0}))]]
        expected = 1.0 - (1.0 - 0.3) * (1.0 - 0.4)
        assert engine.probability(clauses) == pytest.approx(expected)
        assert stats.independence_partitions == 1
        assert stats.shannon_expansions == 0

    def test_exclusive_clauses_add(self):
        components = make_components([0.2, 0.3, 0.5], [0.5, 0.5])
        stats = ConfidenceStats()
        engine = DTreeEngine(components, stats=stats)
        # Both clauses pin component 0 to disjoint sets: P = 0.2*0.5 + 0.3*0.5
        clauses = [[(0, frozenset({0})), (1, frozenset({0}))],
                   [(0, frozenset({1})), (1, frozenset({0}))]]
        assert engine.probability(clauses) == pytest.approx(0.25)
        assert stats.exclusive_sums == 1
        assert stats.shannon_expansions == 0

    def test_shannon_expansion_on_shared_component(self):
        components = make_components([0.5, 0.5], [0.3, 0.3, 0.4], [0.5, 0.5])
        stats = ConfidenceStats()
        engine = DTreeEngine(components, stats=stats)
        # Overlapping (non-exclusive) clauses sharing component 1: a chain.
        clauses = [[(0, frozenset({0})), (1, frozenset({0}))],
                   [(1, frozenset({0, 1})), (2, frozenset({0}))]]
        expected, _ = brute_force(components, [tuple(c) for c in clauses])
        assert engine.probability(clauses) == pytest.approx(expected)
        assert stats.shannon_expansions >= 1

    def test_matches_brute_force_on_a_dense_overlap(self):
        components = make_components(3, [0.1, 0.2, 0.3, 0.4], 2)
        engine = DTreeEngine(components)
        clauses = [
            [(0, frozenset({0, 1})), (1, frozenset({1, 2}))],
            [(1, frozenset({0, 3})), (2, frozenset({1}))],
            [(0, frozenset({2})), (2, frozenset({0}))],
        ]
        expected, _ = brute_force(components, [tuple(c) for c in clauses])
        assert engine.probability(clauses) == pytest.approx(expected, abs=1e-12)

    def test_memoisation_shares_subtrees(self):
        components = make_components(*([2] * 8))
        stats = ConfidenceStats()
        engine = DTreeEngine(components, stats=stats)
        # A chain: clause i links components i and i+1.  Shannon branches
        # share their suffixes, so the memo must get hits.
        clauses = [[(i, frozenset({0})), (i + 1, frozenset({0}))]
                   for i in range(7)]
        expected, _ = brute_force(components, [tuple(c) for c in clauses])
        assert engine.probability(clauses) == pytest.approx(expected)
        assert stats.memo_hits > 0

    def test_tautology_detection(self):
        components = make_components(2, 2)
        engine = DTreeEngine(components)
        # {c0=0} or {c0=1} covers every world.
        assert engine.is_tautology([[(0, frozenset({0}))],
                                    [(0, frozenset({1}))]])
        assert not engine.is_tautology([[(0, frozenset({0}))],
                                        [(1, frozenset({0}))]])
        # Covering component 0 only under c1=0 does not cover.
        assert not engine.is_tautology(
            [[(0, frozenset({0}))],
             [(0, frozenset({1})), (1, frozenset({0}))]])
        # ... but adding the c1=1 side does.
        assert engine.is_tautology(
            [[(0, frozenset({0}))],
             [(0, frozenset({1})), (1, frozenset({0}))],
             [(0, frozenset({1})), (1, frozenset({1}))]])

    def test_zero_probability_alternative_does_not_make_certain(self):
        # Probability can be 1.0 while the event fails in a
        # zero-probability world: tautology must stay logical.
        components = make_components([1.0, 0.0])
        engine = DTreeEngine(components)
        clauses = [[(0, frozenset({0}))]]
        assert engine.probability(clauses) == pytest.approx(1.0)
        assert not engine.is_tautology(clauses)

    def test_node_budget_raises(self):
        components = make_components(*([2] * 12))
        engine = DTreeEngine(components, node_budget=3)
        # A clique-ish DNF that cannot be answered in three nodes.
        clauses = [[(i, frozenset({0})), (j, frozenset({1}))]
                   for i in range(6) for j in range(6) if i < j]
        with pytest.raises(DTreeBudgetExceededError):
            engine.probability(clauses)


# -- executor tiers and modes ------------------------------------------------------------


GROUPS = 14  # 2^14 worlds: over the explicit limit once squared, fine for wsd

LINK_SCHEMA = Schema([Column("A", SqlType.INTEGER),
                      Column("B", SqlType.INTEGER)])

REPAIR = "create table I as select K, P1, P2 from Dirty repair by key K weight W;"
CHAIN_CONF = ("select conf from I i1, L, I i2 "
              "where i1.K = L.A and i2.K = L.B and i1.P1 > i2.P1;")


def chain_session(groups=GROUPS, seed=3):
    relation = dirty_key_relation(
        DirtyRelationSpec(groups=groups, options=2, seed=seed))
    link = Relation(LINK_SCHEMA, [(k, k + 1) for k in range(groups - 1)],
                    name="L")
    db = MayBMS({"Dirty": relation, "L": link}, backend="wsd")
    db.execute(REPAIR)
    return db


class TestExecutorTiers:
    def test_correlated_conf_uses_dtree_not_enumeration(self):
        db = chain_session(groups=20)
        result = db.execute(CHAIN_CONF)
        assert 0.0 <= result.rows()[0][0] <= 1.0 + 1e-9
        stats = db.backend.confidence_stats
        assert stats.dtree >= 1
        assert stats.enumeration_fallbacks == 0

    def test_dtree_agrees_with_enumeration_and_explicit(self):
        groups = 7
        db = chain_session(groups=groups)
        asked = []
        probability = ConfidenceLadder.probability

        def recording(ladder, clauses):
            asked.append((ladder.components, list(clauses)))
            return probability(ladder, clauses)

        with mock.patch.object(ConfidenceLadder, "probability", recording):
            expected = db.execute(CHAIN_CONF).rows()[0][0]
        assert db.backend.confidence_stats.dtree >= 1
        assert db.backend.confidence_stats.enumeration_fallbacks == 0
        # The ladder's enumeration rung (a zero node budget skips the
        # d-tree) reproduces the d-tree's mass on the same disjunction.
        [(components, clauses)] = asked
        stats = ConfidenceStats()
        ladder = ConfidenceLadder(components, stats=stats, node_budget=0)
        mass, approximation = ladder.probability(clauses)
        assert mass == pytest.approx(expected, abs=1e-9)
        assert approximation is None
        assert stats.enumeration_fallbacks == 1
        relation = dirty_key_relation(
            DirtyRelationSpec(groups=groups, options=2, seed=3))
        link = Relation(LINK_SCHEMA, [(k, k + 1) for k in range(groups - 1)],
                        name="L")
        explicit = MayBMS({"Dirty": relation, "L": link})
        explicit.execute(REPAIR)
        assert explicit.execute(CHAIN_CONF).rows()[0][0] == \
            pytest.approx(expected, abs=1e-9)

    def test_per_row_conf_with_multi_atom_conditions(self):
        groups = 6
        relation = dirty_key_relation(
            DirtyRelationSpec(groups=groups, options=2, seed=5))
        link = Relation(LINK_SCHEMA, [(k, k + 1) for k in range(groups - 1)],
                        name="L")
        query = ("select conf, i1.K from I i1, L, I i2 "
                 "where i1.K = L.A and i2.K = L.B and i1.P1 > i2.P1;")
        sessions = {}
        for backend in ("explicit", "wsd"):
            db = MayBMS({"Dirty": relation, "L": link}, backend=backend)
            db.execute(REPAIR)
            sessions[backend] = sorted(
                tuple(round(v, 9) if isinstance(v, float) else v
                      for v in row)
                for row in db.execute(query).rows())
        assert sessions["wsd"] == sessions["explicit"]

    def test_certain_quantifier_via_tautology(self):
        db = MayBMS(backend="wsd")
        db.create_table("R", ["A", "B", "W"],
                        rows=[(1, "x", 1), (1, "y", 1), (2, "x", 1),
                              (2, "x", 2)])
        db.execute("create table I as select A, B from R repair by key A;")
        # B='x' appears in the (certain) group 2 in every world.
        rows = db.execute("select certain B from I;").rows()
        assert rows == [("x",)]
        # Multi-atom certain: the join row (x, x) exists in every world.
        joined = db.execute(
            "select certain i1.B, i2.B from I i1, I i2 "
            "where i1.A = 2 and i2.A = 2;").rows()
        assert joined == [("x", "x")]

    def test_budget_fallback_is_counted_and_guarded(self):
        db = chain_session(groups=6)
        components = db.decomposition.components
        clauses = [((i, frozenset({0})), (i + 1, frozenset({1})))
                   for i in range(5)]
        # Force a tiny budget so the enumeration rung runs.
        stats = ConfidenceStats()
        ladder = ConfidenceLadder(components, stats=stats, node_budget=1)
        mass, approximation = ladder.probability(clauses)
        expected_mass, expected_covers = brute_force(components, clauses)
        assert mass == pytest.approx(expected_mass, abs=1e-9)
        assert approximation is None
        assert stats.enumeration_fallbacks == 1
        # The certain/coverage question takes the same guarded rung.
        assert ladder.covers(clauses) == expected_covers
        assert stats.enumeration_fallbacks == 2
        # ... which refuses a joint over the enumeration limit.
        guarded = ConfidenceLadder(components, node_budget=1, limit=4)
        with pytest.raises(EnumerationLimitError):
            guarded.probability(clauses)
        with pytest.raises(EnumerationLimitError):
            guarded.covers(clauses)


class TestFactoredAssert:
    def test_not_exists_assert_conditions_per_group(self):
        groups = 20
        relation = dirty_key_relation(
            DirtyRelationSpec(groups=groups, options=2, seed=3))
        db = MayBMS({"Dirty": relation}, backend="wsd")
        db.execute(REPAIR)
        # P1 = payload * 2 + option, so P1 % 2 = 1 selects exactly one option
        # per key group: the event touches all 20 components (2^20 joint),
        # which the unfactored conditioning refused.  Factored conditioning
        # handles each group separately and leaves the single all-even world.
        db.execute("create table J as select K, P1 from I "
                   "assert not exists(select * from I where P1 % 2 = 1);")
        assert db.decomposition.world_count() == 1

    def test_factored_assert_matches_explicit(self):
        groups = 5
        relation = dirty_key_relation(
            DirtyRelationSpec(groups=groups, options=2, seed=3))
        statement = ("create table J as select K, P1 from I "
                     "assert not exists(select * from I where P1 % 2 = 1);")
        rows = {}
        for backend in ("explicit", "wsd"):
            db = MayBMS({"Dirty": relation}, backend=backend)
            db.execute(REPAIR)
            db.execute(statement)
            rows[backend] = sorted(
                tuple(round(v, 9) if isinstance(v, float) else v for v in row)
                for row in db.execute("select conf, K, P1 from J;").rows())
        assert rows["wsd"] == rows["explicit"]

    def test_assert_dropping_every_world_still_raises(self):
        db = MayBMS(backend="wsd")
        db.create_table("R", ["A", "B", "W"], rows=[(1, 2, 1), (1, 4, 1)])
        db.execute("create table I as select A, B from R repair by key A;")
        with pytest.raises(WorldSetError):
            db.execute("create table J as select * from I "
                       "assert not exists(select * from I where B % 2 = 0);")


class TestPartiallyWeightedParity:
    """Mixed weighting: None alternatives take uniform residual mass."""

    def mixed_decomposition(self):
        from repro.wsd import Template, WorldSetDecomposition

        template = Template()
        template.add_relation("T", Schema([Column("A"), Column("B")]))
        f = Field("T", 0, "B")
        template.add_tuple("T", ("x", f))
        component = Component(
            [f], [Alternative((1,), 0.5), Alternative((2,)),
                  Alternative((3,))])
        return WorldSetDecomposition(template, [component])

    def test_row_confidence_uses_residual_mass(self):
        db = wsd_session(self.mixed_decomposition())
        assert row_conf(db, "T", ("x", 1)) == pytest.approx(0.5)
        assert row_conf(db, "T", ("x", 2)) == pytest.approx(0.25)
        assert row_conf(db, "T", ("x", 3)) == pytest.approx(0.25)

    def test_materialised_world_weights_match(self):
        wsd = self.mixed_decomposition()
        world_set = wsd.to_worldset()
        weights = world_set._world_weights()
        assert weights == pytest.approx([0.5, 0.25, 0.25])
        # The explicit backend's tuple confidence, through the normalised
        # world weights, agrees with the decomposition's d-tree answer.
        db = MayBMS()
        db.world_set = world_set
        explicit = db.execute(
            "select conf from T where A = 'x' and B = 2;").scalar()
        assert explicit == pytest.approx(row_conf(wsd_session(wsd), "T",
                                                  ("x", 2)))

    def test_overcommitted_mixed_component_rejected(self):
        f = Field("T", 0, "B")
        with pytest.raises(ProbabilityError):
            Component([f], [Alternative((1,), 0.9), Alternative((2,), 0.9),
                            Alternative((3,))])

    def test_partially_weighted_component_still_factorises(self):
        from repro.wsd import factorize_component

        first, second = Field("T", 0, "A"), Field("T", 0, "B")
        # Effective masses are [0.25, 0.25, 0.25, 0.25] — a clean product of
        # two uniform binary factors — even though two alternatives carry
        # explicit probabilities and two carry None.
        component = Component(
            [first, second],
            [Alternative((0, 0), 0.25), Alternative((0, 1)),
             Alternative((1, 0)), Alternative((1, 1), 0.25)])
        factors = factorize_component(component)
        assert len(factors) == 2
        for factor in factors:
            assert factor.effective_probabilities() == \
                pytest.approx([0.5, 0.5])


class TestDnfConfidence:
    """ConfidenceLadder on raw DNFs: d-tree first, guarded enumeration."""

    def repair_wsd(self, groups=6):
        from repro.wsd import from_key_repair

        relation = dirty_key_relation(
            DirtyRelationSpec(groups=groups, options=2, seed=1))
        return from_key_repair(relation, ["K"], weight="W", target_name="I")

    def test_stats_are_plumbed_through(self):
        wsd = self.repair_wsd()
        stats = ConfidenceStats()
        clauses = [[(0, frozenset({0})), (1, frozenset({1}))],
                   [(1, frozenset({0})), (2, frozenset({1}))]]
        value, approximation = ConfidenceLadder(
            wsd.components, stats=stats).probability(clauses)
        assert 0.0 < value < 1.0
        assert approximation is None
        assert stats.dtree == 1
        assert stats.closed_form == 0
        assert stats.enumeration_fallbacks == 0

    def test_budget_fallback_is_guarded_and_counted(self):
        wsd = self.repair_wsd()
        stats = ConfidenceStats()
        clauses = [[(0, frozenset({0})), (1, frozenset({1}))],
                   [(1, frozenset({0})), (2, frozenset({1}))]]
        expected, _ = ConfidenceLadder(wsd.components).probability(clauses)
        with mock.patch.object(DTreeEngine, "probability",
                               side_effect=DTreeBudgetExceededError(1)):
            value, approximation = ConfidenceLadder(
                wsd.components, stats=stats).probability(clauses)
            assert stats.enumeration_fallbacks == 1
            assert value == pytest.approx(expected)
            assert approximation is None
            # ... and the enumeration rung honours the limit guard.
            with pytest.raises(EnumerationLimitError):
                ConfidenceLadder(wsd.components, limit=4).probability(clauses)


class TestRowConfidenceDTree:
    def test_shared_component_candidates(self):
        # Two template tuples whose presence is controlled by one component
        # (choice-of shape): clauses share the component, masses must add.
        from repro.wsd import from_choice_of

        relation = Relation(Schema([Column("C"), Column("V")]),
                            [("a", 1), ("a", 1), ("b", 1)], name="S")
        db = wsd_session(from_choice_of(relation, ["C"]))
        # ("a", 1) exists exactly when partition "a" is chosen: 1/2.
        assert row_conf(db, "S", ("a", 1)) == pytest.approx(0.5)
        assert row_conf(db, "S", ("b", 1)) == pytest.approx(0.5)
        assert row_conf(db, "S", ("z", 9)) == 0.0

    def test_no_enumeration_for_many_independent_candidates(self):
        from repro.wsd import from_key_repair

        groups = 30
        relation = dirty_key_relation(
            DirtyRelationSpec(groups=groups, options=2, seed=1))
        db = wsd_session(from_key_repair(relation, ["K"], weight="W",
                                         target_name="I"))
        value = row_conf(db, "I", relation.rows[0])
        assert 0.0 < value < 1.0
        assert db.backend.confidence_stats.enumeration_fallbacks == 0
