"""Property-based tests (Hypothesis) for the d-tree confidence engine.

The central invariant: for *any* decomposition shape (weighted, unweighted,
partially weighted, arbitrary component sizes) and *any* DNF over
(component, allowed-set) atoms, the d-tree engine computes exactly the same
probability and coverage as brute-force joint enumeration of all components,
to 1e-9.  The same holds for every rung of the confidence ladder on DNFs
shaped like the executor's conditions.  On top of these, a query-level
property runs a correlated self-join ``conf`` through the wsd backend
(d-tree) and the explicit backend (per-world reference) on random dirty
relations and demands identical confidences — the same parity discipline as
``tests/test_wsd_executor_parity.py``, pointed at the query class that used
to require joint enumeration.
"""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from repro import MayBMS
from repro.relational.relation import Relation
from repro.relational.schema import Column, Schema
from repro.relational.types import SqlType
from repro.wsd import (
    Alternative,
    Component,
    ConfidenceLadder,
    DTreeEngine,
    Field,
)


# -- strategies ---------------------------------------------------------------------------


@st.composite
def components_strategy(draw, max_components=5, max_alternatives=4):
    """A list of components: unweighted, weighted or partially weighted."""
    count = draw(st.integers(min_value=1, max_value=max_components))
    components = []
    for index in range(count):
        size = draw(st.integers(min_value=1, max_value=max_alternatives))
        kind = draw(st.sampled_from(["unweighted", "weighted", "mixed"]))
        f = Field("T", index, "a")
        if kind == "unweighted" or size == 1 and kind == "mixed":
            alternatives = [Alternative((v,)) for v in range(size)]
        else:
            raw = draw(st.lists(
                st.floats(min_value=0.01, max_value=1.0,
                          allow_nan=False, allow_infinity=False),
                min_size=size, max_size=size))
            total = sum(raw)
            probabilities = [value / total for value in raw]
            if kind == "mixed" and size > 1:
                # Drop some probabilities to None; the dropped ones share
                # the residual mass uniformly, so the reference enumeration
                # must use effective probabilities too.
                dropped = draw(st.sets(
                    st.integers(min_value=0, max_value=size - 1),
                    min_size=1, max_size=size - 1))
                probabilities = [None if i in dropped else p
                                 for i, p in enumerate(probabilities)]
            alternatives = [Alternative((v,), p)
                            for v, p in enumerate(probabilities)]
        components.append(Component([f], alternatives))
    return components


@st.composite
def dnf_strategy(draw, components, max_clauses=6, max_atoms=3):
    """A random DNF over the given components' indexes."""
    clause_count = draw(st.integers(min_value=0, max_value=max_clauses))
    clauses = []
    for _ in range(clause_count):
        arity = draw(st.integers(
            min_value=1, max_value=min(max_atoms, len(components))))
        indexes = draw(st.lists(
            st.integers(min_value=0, max_value=len(components) - 1),
            min_size=arity, max_size=arity, unique=True))
        clause = []
        for index in indexes:
            size = len(components[index])
            allowed = draw(st.sets(
                st.integers(min_value=0, max_value=size - 1),
                min_size=1, max_size=size))
            clause.append((index, frozenset(allowed)))
        clauses.append(clause)
    return clauses


@st.composite
def components_and_dnf(draw):
    components = draw(components_strategy())
    clauses = draw(dnf_strategy(components))
    return components, clauses


@st.composite
def components_and_condition_dnf(draw, max_clauses=6, max_atoms=3):
    """Components plus a DNF shaped like the executor's conditions: each
    clause restricts distinct components (in index order).  Atoms may also
    cover their whole component (the executor never stores one, but the
    ladder is exported and normalises its input)."""
    components = draw(components_strategy())
    eligible = list(range(len(components)))
    clauses = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_clauses))):
        indexes = draw(st.lists(st.sampled_from(eligible), min_size=1,
                                max_size=min(max_atoms, len(eligible)),
                                unique=True))
        clauses.append(tuple(
            (index, frozenset(draw(st.sets(
                st.integers(min_value=0,
                            max_value=len(components[index]) - 1),
                min_size=1, max_size=len(components[index])))))
            for index in sorted(indexes)))
    return components, clauses


def brute_force(components, clauses):
    """Reference DNF (probability, covers) by full joint enumeration."""
    masses = [component.effective_probabilities()
              for component in components]
    total = 0.0
    covers = True
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
    return total, covers and bool(clauses)


# -- engine vs. brute force ----------------------------------------------------------------


class TestEngineMatchesBruteForce:
    @given(case=components_and_dnf())
    @settings(max_examples=200, deadline=None)
    def test_probability_matches_joint_enumeration(self, case):
        components, clauses = case
        expected, _ = brute_force(components, clauses)
        engine = DTreeEngine(components)
        assert engine.probability(clauses) == pytest.approx(expected,
                                                            abs=1e-9)

    @given(case=components_and_dnf())
    @settings(max_examples=200, deadline=None)
    def test_tautology_matches_joint_enumeration(self, case):
        components, clauses = case
        _, expected = brute_force(components, clauses)
        engine = DTreeEngine(components)
        assert engine.is_tautology(clauses) is expected

    @given(case=components_and_dnf())
    @settings(max_examples=50, deadline=None)
    def test_memoised_reevaluation_is_stable(self, case):
        components, clauses = case
        engine = DTreeEngine(components)
        first = engine.probability(clauses)
        # Same engine, same DNF: the memo must return the identical value.
        assert engine.probability(clauses) == first


class TestLadderMatchesBruteForce:
    """Every rung of :class:`ConfidenceLadder` agrees with brute force.

    The default node budget lets the closed forms and the d-tree answer; a
    zero budget sends every DNF the closed forms miss to the enumeration
    rung.  The joints are far below the enumeration limit, so the anytime
    mode must never sample.
    """

    @pytest.mark.parametrize("node_budget", [None, 0])
    @given(case=components_and_condition_dnf())
    @settings(max_examples=200, deadline=None)
    def test_probability_and_covers_match_joint_enumeration(self, node_budget,
                                                            case):
        components, clauses = case
        expected_mass, expected_covers = brute_force(components, clauses)
        ladder = ConfidenceLadder(components, node_budget=node_budget,
                                  degradation="anytime")
        mass, approximation = ladder.probability(clauses)
        assert mass == pytest.approx(expected_mass, abs=1e-9)
        assert approximation is None
        assert ladder.covers(clauses) is expected_covers

    def test_a_full_atom_is_certain(self):
        components = [Component([Field("R", 0, "A")],
                                [Alternative((0,), 0.25),
                                 Alternative((1,), 0.75)])]
        full = [((0, frozenset({0, 1})),)]
        ladder = ConfidenceLadder(components)
        assert ladder.probability(full) == (1.0, None)
        assert ladder.covers(full) is True


# -- query-level parity on correlated conf --------------------------------------------------


@st.composite
def chain_workload(draw, max_groups=5, max_options=3):
    """A dirty relation plus a link table inducing multi-atom conditions."""
    groups = draw(st.integers(min_value=2, max_value=max_groups))
    options = draw(st.integers(min_value=1, max_value=max_options))
    rows = []
    for key in range(groups):
        payloads = draw(st.lists(st.integers(min_value=0, max_value=30),
                                 min_size=options, max_size=options,
                                 unique=True))
        for payload in payloads:
            weight = draw(st.integers(min_value=1, max_value=5))
            rows.append((key, payload, weight))
    schema = Schema([Column("K", SqlType.INTEGER),
                     Column("P1", SqlType.INTEGER),
                     Column("W", SqlType.INTEGER)])
    relation = Relation(schema, rows, name="Dirty")
    links = [(k, k + 1) for k in range(groups - 1)]
    link = Relation(Schema([Column("A", SqlType.INTEGER),
                            Column("B", SqlType.INTEGER)]), links, name="L")
    weighted = draw(st.booleans())
    return relation, link, weighted


class TestQueryParityOnCorrelatedConf:
    @given(workload=chain_workload())
    @settings(max_examples=30, deadline=None)
    def test_self_join_conf_matches_explicit_backend(self, workload):
        relation, link, weighted = workload
        repair = ("create table I as select K, P1 from Dirty "
                  "repair by key K" + (" weight W;" if weighted else ";"))
        query = ("select conf, i1.K from I i1, L, I i2 "
                 "where i1.K = L.A and i2.K = L.B and i1.P1 > i2.P1;")
        answers = {}
        for backend in ("explicit", "wsd"):
            db = MayBMS({"Dirty": relation, "L": link}, backend=backend)
            db.execute(repair)
            answers[backend] = sorted(
                tuple(round(value, 9) if isinstance(value, float) else value
                      for value in row)
                for row in db.execute(query).rows())
        assert answers["wsd"] == answers["explicit"]
