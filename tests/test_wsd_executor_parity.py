"""Differential tests: the WSD-native backend against the explicit backend.

Every query in the paper-example corpus (the queries exercised by
``tests/test_paper_examples.py``, plus joins, views, derived tables and
DISTINCT) is executed through both ``MayBMS(backend="explicit")`` and
``MayBMS(backend="wsd")`` on the same inputs, and the answers — rows,
confidences and per-world answer distributions — must be identical.  The
Section 3 demonstrations (the whale world-set of Figure 3 and the cleaning
flow of Figures 5-7) are run through both backends the same way.

While the WSD backend executes, explicit world enumeration
(:meth:`WorldSetDecomposition.to_worldset` / ``iter_assignments``) is patched
to raise, proving that the supported query classes are answered on the
decomposition itself; the backend's fallback counter must stay at zero.

The kept guarded fallbacks (enumeration on a d-tree budget overrun, the
component-joint aggregate path, per-joint grouping and compounds) are forced
over the same corpus — by zero budgets or by refusing the native engines —
and must agree with the explicit backend too.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import pytest

from repro import MayBMS
from repro.cleaning import CleaningPipeline
from repro.datasets import (
    cleaning_relation_r,
    figure1_database,
    figure3_whale_worlds,
)
from repro.errors import (
    AnalysisError,
    ExpressionError,
    ReproError,
    UnknownRelationError,
    UnsupportedFeatureError,
)
from repro.sqlparser.ast_nodes import CreateTableAs
from repro.sqlparser.parser import parse_statement
from repro.tracking import attack_possibility_sql, protective_cow_view_sql
from repro.tracking.queries import group_by_adult_position_sql
from repro.wsd import WorldSetDecomposition, from_worldset, normalize
from repro.wsd.grouping import GroupingUnsupportedError
from repro.wsd.setops import SetOpBudgetExceededError

#: Statements building the paper's session state (Example 2.4, weighted).
WEIGHTED_SETUP = [
    "create table I as select A, B, C from R repair by key A weight D;",
]

#: The same repair without weights (non-probabilistic worlds).
UNWEIGHTED_SETUP = [
    "create table I as select A, B, C from R repair by key A;",
]

#: The query corpus: every worked-example query shape of Section 2, plus the
#: relational extras both backends must agree on.
QUERY_CORPUS = [
    # Example 2.1: plain per-world selection.
    "select * from I where A = 'a3';",
    "select * from I;",
    # Examples 2.3 / 2.4: repair by key inside a query.
    "select A, B, C from R repair by key A weight D;",
    "select A, B, C from R repair by key A;",
    # Examples 2.6 / 2.7: choice-of partitions.
    "select * from S choice of E;",
    "select * from R choice of A weight D;",
    # Example 2.5: assert.
    "select * from I assert not exists(select * from I where C = 'c1');",
    "select certain C from I "
    "assert not exists(select * from I where C = 'c1');",
    # Example 2.8: per-world aggregates and possible aggregates.
    "select sum(B) from I;",
    "select possible sum(B) from I;",
    # Example 2.9: possible / certain over choice-of.
    "select certain E from S choice of C;",
    "select possible E from S choice of C;",
    # Example 2.10: confidence of world-level conditions.
    "select conf from I where 50 > (select sum(B) from I);",
    "select conf from I where 56 > (select sum(B) from I);",
    "select conf from I where 10 > (select sum(B) from I);",
    "select conf from I;",
    # Tuple confidences and their possible / certain counterparts.
    "select conf, A, B, C from I;",
    # Weighted repair queried over a possibly-unweighted session: weighting
    # must be decided per component, not for the whole decomposition.
    "select conf, A, B, C from R repair by key A weight D;",
    "select possible A, B, C from I;",
    "select certain A, B, C from I;",
    "select possible B from I where B > 12;",
    # Plain DISTINCT, joins, derived tables, ORDER BY / LIMIT.
    "select distinct A from I;",
    "select possible I.A, S.E from I, S where I.C = S.C;",
    "select conf, I.A, S.E from I, S where I.C = S.C;",
    "select possible x.B from (select B from I where B > 14) x;",
    "select possible B from I order by B desc limit 1;",
    "select possible i1.A, i2.A from I i1, I i2 "
    "where i1.B = i2.B and i1.A <> i2.A;",
    # Correlated self-joins: conditions conjoin atoms over several key-group
    # components, so these confidences exercise the d-tree engine (multi-atom
    # DNFs), not the single-atom closed form.
    "select conf, i1.A, i2.A from I i1, I i2 "
    "where i1.B < i2.B and i1.A <> i2.A;",
    "select conf from I i1, I i2 where i1.B < i2.B and i1.A <> i2.A;",
    "select conf, i1.A from I i1, I i2, I i3 "
    "where i1.B < i2.B and i2.B < i3.B;",
    "select certain i1.A, i2.A from I i1, I i2 "
    "where i1.B + i2.B > 20 and i1.A <> i2.A;",
]

#: Aggregate / HAVING / subquery corpus: every query below is answered by the
#: decomposed (convolution) aggregate engine — per-cluster local
#: distributions combined by sparse convolution — never by component-joint
#: enumeration; test_aggregate_queries_use_convolution_engine asserts the
#: strategy counters.
AGGREGATE_CORPUS = [
    "select count(*) from I;",
    "select A, count(*) from I group by A;",
    "select A, sum(B) from I group by A;",
    "select conf, A, count(*) from I group by A;",
    "select conf, A, sum(B) from I group by A;",
    "select possible A, sum(B) from I group by A;",
    "select certain A, count(*) from I group by A;",
    "select possible avg(B) from I;",
    "select conf, min(B) from I;",
    "select possible max(B) from I;",
    "select conf, count(*) from I where B > 12;",
    "select possible count(distinct C) from I;",
    "select possible sum(distinct B) from I;",
    "select possible sum(B) from R repair by key A weight D;",
    # HAVING reads off the same per-group distribution.
    "select possible A, sum(B) from I group by A having sum(B) >= 20;",
    "select conf, A, count(*) from I group by A having A <> 'a1';",
    # Aggregate comparisons in scalar subqueries: the joint
    # (answer-nonempty, aggregate value) distribution of one convolution.
    "select conf from I where 50 > (select sum(B) from I);",
    "select conf from I where (select count(*) from I where B > 12) >= 1;",
    "select conf from S where (select max(B) from I) > 14;",
    "select conf from I "
    "where (select sum(B) from I) > 40 and (select min(B) from I) >= 10;",
]

#: Grouping / compound corpus: every query below is answered by the native
#: world-grouping engine (:mod:`repro.wsd.grouping`) or the native
#: set-operation combination (:mod:`repro.wsd.setops`) — never by explicit
#: fallback, never by a counted group fallback;
#: test_grouping_corpus_is_native asserts the strategy counters.
GROUPING_CORPUS = [
    # group worlds by an aggregate value (the whale-scenario shape).
    "select possible B from I group worlds by (select sum(B) from I);",
    "select certain B from I group worlds by (select sum(B) from I);",
    "select B from I group worlds by (select sum(B) from I);",
    "select certain B from I group worlds by (select avg(B) from I);",
    "select possible B from I where B > 12 "
    "group worlds by (select max(B) from I);",
    # group worlds by a relational answer (symbolic world function).
    "select possible A, B from I "
    "group worlds by (select C from I where A = 'a1');",
    "select certain C from I "
    "group worlds by (select count(*) from I where C = 'c1');",
    "select possible B from I group worlds by (select distinct C from I);",
    "select possible s.E from S s "
    "group worlds by (select s2.E from S s2, I i where s2.C = i.C);",
    # aggregate-shaped main queries: one combined convolution carries
    # (main answer, grouping answer) jointly.
    "select possible A, count(*) from I group by A "
    "group worlds by (select sum(B) from I);",
    "select count(*) from I group worlds by (select B from I where A = 'a1');",
    "select possible A, sum(B) from I group by A "
    "group worlds by (select count(*) from I where B > 12);",
    # assert conditions the decomposition before grouping partitions it.
    "select possible B from I assert exists(select * from I where B > 12) "
    "group worlds by (select sum(B) from I);",
    # Compound queries: presence-condition algebra, set and bag semantics.
    "select B from I where B > 12 union select B from I where B < 20;",
    "select B from I union all select B from I where C = 'c1';",
    "select B from I intersect select B from I where C = 'c1';",
    "select B from I except select B from I where C = 'c1';",
    "select B from I except all select B from I where C = 'c1';",
    "select B from I intersect all select B from I;",
    "select A from I union select E from S;",
    "select B from I where B > 14 union select B from I where B < 12 "
    "union all select B from I where C = 'c1';",
    # Compound derived tables feed the conf / possible tiers unchanged.
    "select conf, x.B from "
    "(select B from I where B > 12 union select B from I where B < 14) x;",
    "select possible x.B from "
    "(select B from I union all select B from I) x;",
]

QUERY_CORPUS = QUERY_CORPUS + AGGREGATE_CORPUS + GROUPING_CORPUS

#: Figure 4's ``group worlds by`` over a self-join of ``I``.
WHALE_GROUPING_SELF_JOIN = (
    "select possible i2.Gender as G2, i3.Gender as G3 from I i2, I i3 "
    "where i2.Id = 2 and i3.Id = 3 "
    "group worlds by (select Pos from I where Id = 2);")

#: Section 3.1: the whale-tracking queries over the six worlds of Figure 3,
#: including Figure 4's group-worlds-by shapes.
WHALE_CORPUS = [
    attack_possibility_sql(),
    "select 'yes' from I where Id=1 and Pos='b';",
    "select possible 'yes' from I where Id=1 and Pos='a';",
    "select certain * from I;",
    "select possible * from I;",
    "select conf, Id, Pos from I;",
    WHALE_GROUPING_SELF_JOIN,
    "select certain i3.Gender as G3 from I i3 where i3.Id = 3 "
    "group worlds by (select Pos from I where Id = 2);",
]

#: Queries over the paper's view ``Valid`` (``assert``, drops worlds) or
#: ``Valid'`` (``where exists``, keeps them), both named ``Valid`` here.
WHALE_VIEW_CORPUS = [
    (True, "select possible 'yes' from Valid where Id=1 and Pos='b';"),
    (True, "select certain * from Valid;"),
    (True, "select possible * from Valid;"),
    (False, "select possible 'yes' from Valid where Id=1 and Pos='b';"),
    (False, "select certain * from Valid;"),
]

#: Section 3.2: the data-cleaning flow of Figures 5-7 — swap candidates S,
#: their repair T, and the worlds U satisfying the functional dependency.
CLEANING_CORPUS = [
    "select possible * from S;",
    "select * from T;",
    "select conf, SSN', TEL' from T;",
    "select * from U;",
    "select possible SSN', TEL' from U;",
    "select certain SSN', TEL' from U;",
    "select conf, SSN', TEL' from U;",
]


@contextlib.contextmanager
def force_guarded_grouping():
    """Refuse the native grouping and set-operation engines, so every
    ``group worlds by`` and compound query takes its counted guarded
    per-joint path (the test seam for the kept fallbacks)."""

    def refuse_grouping(*args, **kwargs):
        raise GroupingUnsupportedError("native grouping refused by the test")

    def refuse_setops(*args, **kwargs):
        raise SetOpBudgetExceededError(0, "native set operations refused "
                                          "by the test")

    with mock.patch("repro.wsd.execute.evaluate_group_worlds",
                    refuse_grouping), \
            mock.patch("repro.wsd.execute.evaluate_compound_entries",
                       refuse_setops):
        yield


@contextlib.contextmanager
def forbid_world_enumeration():
    """Patch explicit materialisation so any call fails the test."""

    def refuse(*args, **kwargs):
        raise AssertionError(
            "the WSD backend materialised explicit worlds for a query "
            "class that must be answered on the decomposition")

    with mock.patch.object(WorldSetDecomposition, "to_worldset", refuse), \
            mock.patch.object(WorldSetDecomposition, "iter_assignments",
                              refuse):
        yield


def build_sessions(setup, budgets=None):
    explicit = MayBMS(figure1_database(), backend="explicit")
    wsd = MayBMS(figure1_database(), backend="wsd", budgets=budgets)
    for statement in setup:
        explicit.execute(statement)
        wsd.execute(statement)
    return explicit, wsd


def whale_sessions():
    """Both backends holding the Figure 3 world-set (relation I)."""
    explicit = MayBMS(backend="explicit")
    explicit.world_set = figure3_whale_worlds()
    wsd = MayBMS(backend="wsd")
    wsd.decomposition = normalize(from_worldset(figure3_whale_worlds(), "I"))
    return explicit, wsd


def whale_views_sessions(drop_worlds=True):
    """:func:`whale_sessions` with the paper's view ``Valid`` (``assert``
    when *drop_worlds*, else ``where exists``) defined on both backends."""
    explicit, wsd = whale_sessions()
    view = protective_cow_view_sql("Valid", drop_worlds=drop_worlds)
    explicit.execute(view)
    wsd.execute(view)
    return explicit, wsd


def cleaning_sessions():
    """Both backends after the cleaning pipeline of Figures 5-7."""
    explicit = MayBMS({"R": cleaning_relation_r()}, backend="explicit")
    wsd = MayBMS({"R": cleaning_relation_r()}, backend="wsd")
    for statement in CleaningPipeline("R", "SSN", "TEL").statements():
        explicit.execute(statement)
        wsd.execute(statement)
    return explicit, wsd


def canonical_rows(rows):
    """Rows with floats rounded, as a sorted multiset."""
    normalised = []
    for row in rows:
        normalised.append(tuple(round(value, 9) if isinstance(value, float)
                                else value for value in row))
    return sorted(normalised, key=repr)


def answer_distribution(pairs):
    """``(probability, relation)`` pairs folded into fingerprint -> mass.

    Masses are normalised to sum to one: when a weighted ``repair by key`` /
    ``choice of`` splits probability-``None`` worlds, the explicit backend
    assigns each derived world its local weight without dividing by the
    number of parents, so raw masses can sum to the parent count.
    """
    weights = [probability for probability, _ in pairs]
    if any(weight is None for weight in weights):
        weights = [1.0 / len(pairs)] * len(pairs)
    total = sum(weights)
    weights = [weight / total for weight in weights]
    distribution: dict[tuple, float] = {}
    for weight, (_, relation) in zip(weights, pairs):
        fingerprint = (tuple(relation.schema.names()), relation.fingerprint())
        distribution[fingerprint] = distribution.get(fingerprint, 0.0) + weight
    return distribution


def assert_distributions_equal(actual, expected, context):
    assert set(actual) == set(expected), context
    for fingerprint, mass in expected.items():
        assert actual[fingerprint] == pytest.approx(mass), context


def explicit_distribution(result):
    return answer_distribution(
        [(answer.probability, answer.relation)
         for answer in result.world_answers])


def wsd_distribution(result):
    if result.is_world_rows():
        return answer_distribution(
            [(answer.probability, answer.relation)
             for answer in result.world_answers])
    assert result.is_wsd_rows()
    worlds = result.answer_decomposition().to_worldset()
    return answer_distribution(
        [(world.probability, world.relation(result.relation_name))
         for world in worlds])


def assert_answers_agree(actual, expected, query):
    if expected.is_rows():
        assert actual.is_rows(), f"result kind diverged for: {query}"
        assert canonical_rows(actual.rows()) == canonical_rows(expected.rows())
    else:
        assert expected.is_world_rows()
        assert_distributions_equal(wsd_distribution(actual),
                                   explicit_distribution(expected), query)


def assert_native_answer_agrees(explicit, wsd, query):
    """*query* is answered on the decomposition — no world enumeration, no
    counted fallback — exactly as the explicit backend answers it."""
    expected = explicit.execute(query)
    with forbid_world_enumeration():
        actual = wsd.execute(query)
    assert wsd.backend.stats.fallback == 0, \
        f"query fell back to world materialisation: {query}"
    assert wsd.backend.confidence_stats.enumeration_fallbacks == 0, \
        f"confidence fell back to joint enumeration: {query}"
    assert wsd.backend.stats.aggregate_fallbacks == 0, \
        f"aggregate engine fell back to joint enumeration: {query}"
    assert wsd.backend.stats.group_fallbacks == 0, \
        f"grouping/set-op engine fell back to joint enumeration: {query}"
    assert_answers_agree(actual, expected, query)


@pytest.mark.parametrize("setup", [WEIGHTED_SETUP, UNWEIGHTED_SETUP],
                         ids=["weighted", "unweighted"])
@pytest.mark.parametrize("query", QUERY_CORPUS)
def test_backends_agree(setup, query):
    assert_native_answer_agrees(*build_sessions(setup), query)


@pytest.mark.parametrize("query", WHALE_CORPUS)
def test_whale_scenario_backends_agree(query):
    assert_native_answer_agrees(*whale_sessions(), query)


@pytest.mark.parametrize("drop_worlds, query", WHALE_VIEW_CORPUS)
def test_whale_views_backends_agree(drop_worlds, query):
    """The Valid / Valid' views agree across backends, answered on the
    decomposition."""
    explicit, wsd = whale_views_sessions(drop_worlds)
    assert_native_answer_agrees(explicit, wsd, query)


@pytest.mark.parametrize("query", CLEANING_CORPUS)
def test_cleaning_scenario_backends_agree(query):
    assert_native_answer_agrees(*cleaning_sessions(), query)


@pytest.mark.parametrize("setup", [WEIGHTED_SETUP, UNWEIGHTED_SETUP],
                         ids=["weighted", "unweighted"])
@pytest.mark.parametrize("query", AGGREGATE_CORPUS)
def test_aggregate_queries_use_convolution_engine(setup, query):
    """The aggregate / HAVING / subquery corpus never enumerates component
    joints: the convolution engine answers, with zero counted fallbacks."""
    _, wsd = build_sessions(setup)
    with forbid_world_enumeration():
        wsd.execute(query)
    stats = wsd.backend.stats
    assert stats.aggregate >= 1, f"query skipped the aggregate engine: {query}"
    assert stats.component_joint == 0, \
        f"query enumerated component joints: {query}"
    assert stats.aggregate_fallbacks == 0, \
        f"aggregate engine fell back on: {query}"
    assert wsd.backend.aggregate_stats.queries >= 1


@pytest.mark.parametrize("setup", [WEIGHTED_SETUP, UNWEIGHTED_SETUP],
                         ids=["weighted", "unweighted"])
@pytest.mark.parametrize("query", GROUPING_CORPUS)
def test_grouping_corpus_is_native(setup, query):
    """The grouping / compound corpus never enumerates: the native grouping
    or set-operation engine answers, with zero counted fallbacks."""
    _, wsd = build_sessions(setup)
    with forbid_world_enumeration():
        wsd.execute(query)
    stats = wsd.backend.stats
    assert stats.grouping + stats.setops >= 1, \
        f"query skipped the grouping/set-op engines: {query}"
    assert stats.component_joint == 0, \
        f"query enumerated component joints: {query}"
    assert stats.group_fallbacks == 0, \
        f"grouping/set-op engine fell back on: {query}"
    assert stats.fallback == 0, \
        f"query fell back to world materialisation: {query}"


@pytest.mark.parametrize("setup", [WEIGHTED_SETUP, UNWEIGHTED_SETUP],
                         ids=["weighted", "unweighted"])
def test_corpus_confidences_survive_dtree_budget_overrun(setup):
    """With no d-tree node budget every d-tree call overruns, so the whole
    corpus answers through the counted guarded enumeration fallback — and
    still agrees with the explicit backend."""
    explicit, wsd = build_sessions(setup, budgets={"dtree_nodes": 0})
    for query in QUERY_CORPUS:
        expected = explicit.execute(query)
        with forbid_world_enumeration():
            actual = wsd.execute(query)
        assert_answers_agree(actual, expected, query)
    assert wsd.backend.confidence_stats.enumeration_fallbacks >= 1
    assert wsd.backend.stats.fallback == 0


@pytest.mark.parametrize("setup", [WEIGHTED_SETUP, UNWEIGHTED_SETUP],
                         ids=["weighted", "unweighted"])
@pytest.mark.parametrize("query", AGGREGATE_CORPUS)
def test_aggregate_corpus_agrees_through_component_joint_fallback(setup, query):
    """With no aggregate state budget the convolution engine overruns on
    every corpus query; the counted component-joint fallback answers like
    the explicit backend."""
    explicit, wsd = build_sessions(setup, budgets={"aggregate_states": 0})
    expected = explicit.execute(query)
    with forbid_world_enumeration():
        actual = wsd.execute(query)
    stats = wsd.backend.stats
    assert stats.aggregate == 0, f"convolution engine answered: {query}"
    assert stats.aggregate_fallbacks >= 1, f"overrun not counted: {query}"
    assert stats.component_joint >= 1, f"joint path not reached: {query}"
    assert stats.fallback == 0
    assert_answers_agree(actual, expected, query)


@pytest.mark.parametrize("setup", [WEIGHTED_SETUP, UNWEIGHTED_SETUP],
                         ids=["weighted", "unweighted"])
@pytest.mark.parametrize("query", GROUPING_CORPUS)
def test_grouping_corpus_agrees_through_guarded_fallback(setup, query):
    """With the native grouping and set-operation engines refused, the
    counted guarded per-joint paths answer the corpus like the explicit
    backend."""
    explicit, wsd = build_sessions(setup)
    expected = explicit.execute(query)
    with force_guarded_grouping(), forbid_world_enumeration():
        actual = wsd.execute(query)
    stats = wsd.backend.stats
    assert stats.grouping == 0
    assert stats.setops == 0
    assert stats.group_fallbacks >= 1, f"fallback not counted: {query}"
    assert stats.fallback == 0
    assert_answers_agree(actual, expected, query)


class TestGroundingCache:
    """The memoised symbolic grounding (keyed per relation version)."""

    def test_repeated_queries_reuse_grounding(self):
        _, wsd = build_sessions(WEIGHTED_SETUP)
        query = "select possible A, B, C from I;"
        wsd.execute(query)
        hits = wsd.backend.stats.ground_cache_hits
        misses = wsd.backend.stats.ground_cache_misses
        assert misses >= 1
        wsd.execute(query)
        assert wsd.backend.stats.ground_cache_hits > hits
        assert wsd.backend.stats.ground_cache_misses == misses

    def test_generation_bumps_invalidate_on_dml(self):
        _, wsd = build_sessions(WEIGHTED_SETUP)
        wsd.execute("select possible A from R;")
        versions = dict(wsd.decomposition.versions)
        wsd.execute("insert into R values ('a9', 1, 'c9', 1);")
        after = wsd.decomposition.versions
        # Only the written relation gets a new version.
        assert after["R"] != versions["R"]
        assert all(after[name] == version
                   for name, version in versions.items() if name != "R")
        # The fresh version misses the cache, then caches again.
        misses = wsd.backend.stats.ground_cache_misses
        result = wsd.execute("select possible A from R;")
        assert wsd.backend.stats.ground_cache_misses > misses
        assert ("a9",) in result.rows()

    def test_install_derives_fresh_generation(self):
        _, wsd = build_sessions(WEIGHTED_SETUP)
        before = dict(wsd.decomposition.versions)
        wsd.execute("create table K as select A, B from I where B >= 15;")
        # An install may renumber components, so every relation's version
        # is renewed.
        assert all(wsd.decomposition.versions[name] != version
                   for name, version in before.items())


class TestSessionStateParity:
    """CREATE TABLE AS must leave both backends in equivalent states."""

    def test_world_counts_match_after_repair(self):
        explicit, wsd = build_sessions(WEIGHTED_SETUP)
        assert wsd.world_count() == explicit.world_count() == 4

    def test_assert_install_renormalises_identically(self):
        explicit, wsd = build_sessions(WEIGHTED_SETUP)
        statement = ("create table J as select * from I "
                     "assert not exists(select * from I where C = 'c1');")
        explicit.execute(statement)
        with forbid_world_enumeration():
            wsd.execute(statement)
        assert wsd.world_count() == explicit.world_count() == 2
        query = "select conf, A, B, C from J;"
        assert canonical_rows(wsd.execute(query).rows()) == \
            canonical_rows(explicit.execute(query).rows())

    def test_materialised_aggregate_table(self):
        explicit, wsd = build_sessions(WEIGHTED_SETUP)
        statement = "create table T as select A, sum(B) as S from I group by A;"
        explicit.execute(statement)
        with forbid_world_enumeration():
            wsd.execute(statement)
        query = "select conf, A, S from T;"
        assert canonical_rows(wsd.execute(query).rows()) == \
            canonical_rows(explicit.execute(query).rows())

    def test_chained_derivations(self):
        explicit, wsd = build_sessions(WEIGHTED_SETUP)
        statements = [
            "create table D as select * from I where A = 'a3';",
            "create table K as select A, B from I where B >= 15;",
        ]
        for statement in statements:
            explicit.execute(statement)
            with forbid_world_enumeration():
                wsd.execute(statement)
        for query in ["select conf, A, B, C from D;",
                      "select possible A, B from K;",
                      "select certain A, B from K;"]:
            assert canonical_rows(wsd.execute(query).rows()) == \
                canonical_rows(explicit.execute(query).rows()), query

    def test_group_worlds_by_under_create_table_as(self):
        """CREATE TABLE AS over ``group worlds by`` installs each world's
        group answer (previously a bare unsupported error on the wsd
        backend), matching the explicit backend's materialisation."""
        explicit, wsd = build_sessions(WEIGHTED_SETUP)
        statement = ("create table G as select possible B from I "
                     "group worlds by (select sum(B) from I);")
        explicit.execute(statement)
        wsd.execute(statement)
        for query in ["select conf, B from G;",
                      "select possible B from G;",
                      "select certain B from G;"]:
            assert canonical_rows(wsd.execute(query).rows()) == \
                canonical_rows(explicit.execute(query).rows()), query

    def test_compound_under_create_table_as(self):
        explicit, wsd = build_sessions(WEIGHTED_SETUP)
        statement = ("create table U as select B from I where B > 12 "
                     "union select B from I where C = 'c1';")
        explicit.execute(statement)
        with forbid_world_enumeration():
            wsd.execute(statement)
        query = "select conf, B from U;"
        assert canonical_rows(wsd.execute(query).rows()) == \
            canonical_rows(explicit.execute(query).rows())

    def test_views_evaluate_identically(self):
        explicit, wsd = build_sessions(WEIGHTED_SETUP)
        view = "create view V as select A, B from I where B >= 20;"
        explicit.execute(view)
        wsd.execute(view)
        query = "select possible B from V;"
        expected = explicit.execute(query)
        with forbid_world_enumeration():
            actual = wsd.execute(query)
        assert canonical_rows(actual.rows()) == canonical_rows(expected.rows())


class TestWsdBackendBasics:
    """Backend-specific behaviour that has no explicit counterpart."""

    def test_backend_name_and_state_accessors(self):
        wsd = MayBMS(figure1_database(), backend="wsd")
        assert wsd.backend_name == "wsd"
        assert wsd.decomposition.world_count() == 1
        with pytest.raises(Exception):
            _ = wsd.world_set

    def test_unknown_backend_rejected(self):
        with pytest.raises(Exception):
            MayBMS(backend="turbo")

    def test_plain_select_returns_compact_answer(self):
        _, wsd = build_sessions(WEIGHTED_SETUP)
        result = wsd.execute("select * from I where A = 'a3';")
        assert result.is_wsd_rows()
        # The answer is certain, so the compact form needs exactly one world.
        assert result.answer_decomposition().world_count() == 1

    def test_group_worlds_by_is_native(self):
        _, wsd = build_sessions(WEIGHTED_SETUP)
        with forbid_world_enumeration():
            result = wsd.execute(
                "select possible B from I "
                "group worlds by (select sum(B) from I);")
        assert result.is_world_rows()
        assert wsd.backend.stats.fallback == 0
        assert wsd.backend.stats.group_fallbacks == 0
        assert wsd.backend.stats.grouping == 1
        # One (mass, answer) pair per world group, masses summing to one.
        assert sum(answer.probability
                   for answer in result.world_answers) == pytest.approx(1.0)

    def test_ordered_compound_preserves_row_order(self):
        """A compound with ORDER BY (no LIMIT) must come back *ordered* —
        the native entry algebra carries no row order, so ordered compounds
        take the guarded per-world path (counted, never silent)."""
        explicit, wsd = build_sessions(WEIGHTED_SETUP)
        query = ("select B from R where B > 12 union "
                 "select B from R where B < 15 order by B desc;")
        expected = explicit.execute(query)
        actual = wsd.execute(query)
        # R is certain, so there is exactly one world / one answer, and the
        # descending order must match the explicit backend row for row.
        assert len(actual.world_answers) == 1
        assert list(actual.world_answers[0].relation.rows) == \
            list(expected.world_answers[0].relation.rows)
        assert [row[0] for row in actual.world_answers[0].relation.rows] == \
            sorted([row[0] for row in actual.world_answers[0].relation.rows],
                   reverse=True)
        assert wsd.backend.stats.group_fallbacks == 1
        assert wsd.backend.stats.fallback == 0

    def test_limit_compound_escapes_guarded(self):
        explicit, wsd = build_sessions(WEIGHTED_SETUP)
        query = ("select B from I union select B from I where C = 'c1' "
                 "order by B desc limit 2;")
        expected = explicit.execute(query)
        actual = wsd.execute(query)
        assert wsd.backend.stats.group_fallbacks == 1
        assert wsd.backend.stats.fallback == 0
        assert_distributions_equal(wsd_distribution(actual),
                                   explicit_distribution(expected), query)
        # CREATE TABLE AS over a LIMIT compound installs the entries of the
        # guarded per-joint path (counted), and the installed table answers
        # like the explicit backend's.
        create = ("create table C as select B from I union "
                  "select B from I where C = 'c1' limit 2;")
        explicit.execute(create)
        wsd.execute(create)
        assert wsd.backend.stats.group_fallbacks == 2
        assert wsd.backend.stats.setops == 0
        assert wsd.backend.stats.fallback == 0
        conf = "select conf, B from C;"
        assert canonical_rows(wsd.execute(conf).rows()) == \
            canonical_rows(explicit.execute(conf).rows())

    def test_unsupported_grouping_shapes_escape_guarded(self):
        """A main query outside the native compilers still answers — through
        the guarded component-joint grouping, counted in group_fallbacks."""
        explicit, wsd = build_sessions(WEIGHTED_SETUP)
        query = ("select possible B from I "
                 "group worlds by (select sum(B) from I) order by B;")
        expected = explicit.execute(query)
        actual = wsd.execute(query)
        assert wsd.backend.stats.group_fallbacks == 1
        assert wsd.backend.stats.fallback == 0
        assert_distributions_equal(wsd_distribution(actual),
                                   explicit_distribution(expected), query)

    def test_dml_on_complete_relations(self):
        wsd = MayBMS(backend="wsd")
        wsd.create_table("T", ["A", "B"], rows=[("x", 1), ("y", 2)])
        wsd.execute("insert into T values ('z', 3);")
        wsd.execute("update T set B = B + 10 where A = 'x';")
        wsd.execute("delete from T where A = 'y';")
        assert sorted(wsd.relation("T").rows) == [("x", 11), ("z", 3)]

    def test_scales_past_explicit_enumeration(self):
        from repro.workloads import DirtyRelationSpec, dirty_key_relation

        relation = dirty_key_relation(
            DirtyRelationSpec(groups=40, options=4, seed=5))
        wsd = MayBMS({"Dirty": relation}, backend="wsd")
        with forbid_world_enumeration():
            wsd.execute("create table I as "
                        "select K, P1, P2 from Dirty repair by key K weight W;")
            assert wsd.decomposition.log10_world_count() > 20
            confidences = wsd.execute("select conf, K, P1 from I where K = 0;")
            assert len(confidences.rows()) == 4
            total = sum(row[-1] for row in confidences.rows())
            assert total == pytest.approx(1.0)
            possible = wsd.execute("select possible K from I;")
            assert len(possible.rows()) == 40
        assert wsd.backend.stats.fallback == 0


#: Self-joins of ``I`` outside the symbolic and aggregate engines (ORDER BY /
#: LIMIT mains), so they evaluate on the guarded per-joint path.
SELF_JOIN_GUARDED_CORPUS = [
    "select conf, i2.Gender as G2, i3.Gender as G3 from I i2, I i3 "
    "where i2.Id = 2 and i3.Id = 3 order by G2, G3;",
    "select i2.Gender as G2, i3.Gender as G3 from I i2, I i3 "
    "where i2.Id = 2 and i3.Id = 3 order by G2 limit 1;",
]


#: ORDER BY a qualified column, on one table and on a self-join: the key
#: sorts by the select item it names.  Each select list is exactly its sort
#: keys in one direction, so every answer must come out sorted.
QUALIFIED_ORDER_BY_CORPUS = [
    ("select i2.Id from I i2 order by i2.Id;", False),
    ("select Id from I order by I.Id;", False),
    ("select i2.Id as X from I i2 order by i2.Id;", False),
    ("select possible i2.Id, i3.Id from I i2, I i3 where i2.Id < i3.Id "
     "order by i2.Id, i3.Id;", False),
    ("select Id from I order by I.Id desc;", True),
    ("select possible i2.Id, i3.Id from I i2, I i3 where i2.Id < i3.Id "
     "order by i2.Id desc, i3.Id desc;", True),
]


class TestSelfJoins:
    """A FROM clause naming one relation under several aliases instantiates
    that relation once per joint alternative, and answers like the explicit
    backend on every guarded per-joint path."""

    def test_figure4_groups_table(self):
        explicit, wsd = whale_sessions()
        statement = group_by_adult_position_sql()
        explicit.execute(statement)
        wsd.execute(statement)
        for query in ["select * from Groups;",
                      "select conf, G2, G3 from Groups;",
                      "select possible G2, G3 from Groups;"]:
            assert_answers_agree(wsd.execute(query), explicit.execute(query),
                                 query)

    @pytest.mark.parametrize("query", SELF_JOIN_GUARDED_CORPUS)
    def test_component_joint_self_joins(self, query):
        explicit, wsd = whale_sessions()
        assert_answers_agree(wsd.execute(query), explicit.execute(query),
                             query)
        assert wsd.backend.stats.component_joint >= 1
        assert wsd.backend.stats.fallback == 0

    @pytest.mark.parametrize("query, descending", QUALIFIED_ORDER_BY_CORPUS)
    def test_order_by_qualified_column(self, query, descending):
        explicit, wsd = whale_sessions()
        expected = explicit.execute(query)
        actual = wsd.execute(query)
        assert_answers_agree(actual, expected, query)
        for result in (expected, actual):
            answers = ([result.relation] if result.is_rows()
                       else [answer.relation
                             for answer in result.world_answers])
            for answer in answers:
                assert answer.rows == sorted(answer.rows,
                                             reverse=descending), query

    def test_guarded_grouping_self_join(self):
        explicit, wsd = whale_sessions()
        query = WHALE_GROUPING_SELF_JOIN
        expected = explicit.execute(query)
        with force_guarded_grouping():
            actual = wsd.execute(query)
        assert wsd.backend.stats.group_fallbacks >= 1
        assert wsd.backend.stats.fallback == 0
        assert_answers_agree(actual, expected, query)


#: ``assert`` conditions over Figure 3 that compile to event factors: the
#: AND split, a negated EXISTS, an OR, and a negated OR.  Each keeps some
#: worlds.
WHALE_ASSERT_CONDITIONS = [
    "exists(select * from I where Gender='cow' and Pos='a') "
    "and exists(select * from I where Id=2 and Pos='b')",
    "not (exists(select * from I where Gender='cow' and Pos='a'))",
    "exists(select * from I where Gender='cow' and Pos='a') "
    "or exists(select * from I where Id=2 and Pos='b')",
    "not (exists(select * from I where Gender='cow' and Pos='a') "
    "or exists(select * from I where Id=2 and Pos='b'))",
]


@pytest.mark.parametrize("condition", WHALE_ASSERT_CONDITIONS)
@pytest.mark.parametrize("select", ["select possible * from I",
                                    "select conf, Id, Pos from I"])
def test_whale_assert_factors_agree(select, condition):
    assert_native_answer_agrees(*whale_sessions(),
                                f"{select} assert {condition};")


def run_on_both(explicit, wsd, statement):
    """Run *statement* on both backends: both succeed, or both raise the
    same error class."""
    outcomes = []
    for db in (explicit, wsd):
        try:
            db.execute(statement)
        except ReproError as exc:
            outcomes.append(type(exc))
        else:
            outcomes.append(None)
    assert outcomes[0] == outcomes[1], statement
    return outcomes[0]


def assert_queries_agree(explicit, wsd, queries):
    for query in queries:
        assert_answers_agree(wsd.execute(query), explicit.execute(query),
                             query)


class TestDdlDmlParity:
    """DROP TABLE, INSERT ... SELECT and CREATE TABLE AS over collected
    answers leave both backends answering alike.  Answers are compared,
    not world counts: after a drop the explicit backend keeps duplicate
    worlds that the wsd backend re-normalises away."""

    def test_drop_table(self):
        explicit, wsd = build_sessions(WEIGHTED_SETUP)
        run_on_both(explicit, wsd,
                    "create table J as select A, B from I where B > 12;")
        assert run_on_both(explicit, wsd, "drop table I;") is None
        assert_queries_agree(explicit, wsd, ["select * from J;",
                                             "select conf, A, B from J;"])
        assert run_on_both(explicit, wsd, "select * from I;") \
            is UnknownRelationError

    def test_drop_missing_table(self):
        explicit, wsd = build_sessions(WEIGHTED_SETUP)
        assert run_on_both(explicit, wsd,
                           "drop table if exists Nope;") is None
        assert run_on_both(explicit, wsd, "drop table Nope;") \
            is UnknownRelationError
        assert_queries_agree(explicit, wsd, ["select conf, A, B from I;"])

    def test_insert_select(self):
        explicit, wsd = build_sessions(WEIGHTED_SETUP)
        run_on_both(explicit, wsd, "create table T (A, B);")
        # From a certain relation, and from an uncertain one whose answer
        # is the same in every world: both insert.
        assert run_on_both(explicit, wsd, "insert into T select A, B "
                                          "from R where B > 12;") is None
        assert run_on_both(explicit, wsd, "insert into T select A, B "
                                          "from I where A = 'a3';") is None
        # A world-dependent answer: both refuse with the same error.
        assert run_on_both(explicit, wsd, "insert into T select A, B "
                                          "from I;") \
            is UnsupportedFeatureError
        assert_queries_agree(explicit, wsd, ["select * from T;"])

    @pytest.mark.parametrize("statement", [
        "create table P as select possible A, B from I;",
        "create table P as select certain A from I;",
        "create table P as select conf, A, B from I;",
        "create table P as select conf from I where B > 12;",
    ])
    def test_create_table_as_collected_answer(self, statement):
        explicit, wsd = build_sessions(WEIGHTED_SETUP)
        assert run_on_both(explicit, wsd, statement) is None
        assert_queries_agree(explicit, wsd, ["select * from P;"])


#: Views and derived tables the wsd backend answers through its one
#: query-to-entries routine, over Figure 3 with the view ``Valid`` defined:
#: ``assert``, ``conf`` and quantified inner queries, ``where exists``,
#: ORDER BY / LIMIT and aggregate inner queries (guarded per-joint path), a
#: self-join of a view and a view over a view.
DERIVED_TABLE_CORPUS = [
    "select possible * from (select * from I assert exists "
    "(select * from I where Gender='cow' and Pos='b')) v;",
    "select possible * from (select conf, Id from I where Gender='cow') d "
    "where conf > 0.3;",
    "select certain * from (select possible Id, Pos from I) d;",
    "select possible * from (select * from I where exists "
    "(select * from I where Gender='cow' and Pos='b')) d;",
    "select possible * from (select Id, Pos from I order by Id limit 2) d;",
    "select possible * from (select sum(Id) as S from I where Pos='b') d;",
    "select possible a.Id, b.Id from Valid a, Valid b where a.Id < b.Id;",
    "select conf, a.Pos from Valid a, Valid b "
    "where a.Id = 1 and b.Id = 2 and a.Pos <> b.Pos;",
    "select possible * from Cows;",
    "select conf, Id, Pos from Cows;",
]

#: A view over the view ``Valid``.
COWS_VIEW = "create view Cows as select Id, Pos from Valid where Gender='cow';"


class TestViewsAndDerivedTables:
    """Views and derived tables are answered on the decomposition — the
    wsd executor never enumerates worlds — exactly as the explicit backend
    answers them."""

    @pytest.mark.parametrize("query", DERIVED_TABLE_CORPUS)
    def test_answered_natively(self, query):
        explicit, wsd = whale_views_sessions()
        explicit.execute(COWS_VIEW)
        wsd.execute(COWS_VIEW)
        assert_native_answer_agrees(explicit, wsd, query)

    @pytest.mark.parametrize("drop_worlds", [True, False],
                             ids=["assert", "where-exists"])
    def test_create_table_as_from_view(self, drop_worlds):
        explicit, wsd = whale_views_sessions(drop_worlds)
        statement = "create table T as select * from Valid;"
        explicit.execute(statement)
        with forbid_world_enumeration():
            wsd.execute(statement)
        for query in ["select possible * from T;", "select certain * from T;",
                      "select conf, Id, Pos from T;"]:
            assert_native_answer_agrees(explicit, wsd, query)

    @pytest.mark.parametrize("inner", [
        "select * from I assert exists "
        "(select * from I where Gender='cow' and Pos='b')",
        "select Id, Pos from I where exists "
        "(select * from I where Gender='cow' and Pos='b')",
        "select conf, Id from I where Pos='b'",
        "select Id, Pos from I order by Id desc limit 2",
        "select Pos, sum(Id) as S from I group by Pos",
    ])
    @pytest.mark.parametrize("outer", ["possible", "certain"])
    def test_view_derived_table_and_create_table_as_agree(self, inner, outer):
        """Metamorphic: one inner query as a view, inlined as a derived
        table, and installed by CREATE TABLE AS gives one answer."""
        forms = [
            (f"create view Vw as {inner};", "Vw"),
            (None, f"({inner}) d"),
            (f"create table Tw as {inner};", "Tw"),
        ]
        answers = []
        for setup, source in forms:
            _, wsd = whale_sessions()
            with forbid_world_enumeration():
                if setup is not None:
                    wsd.execute(setup)
                result = wsd.execute(f"select {outer} * from {source};")
            answers.append(canonical_rows(result.rows()))
        assert answers[0] == answers[1] == answers[2], inner


def refused_statements(sql):
    """The select *sql* and ``CREATE TABLE T AS`` it, as parsed statements."""
    select = parse_statement(sql)
    return select, CreateTableAs("T", select)


class TestDecorationRefusals:
    """``repair by key`` / ``choice of`` FROM items that multiply worlds
    data-dependently are refused by the wsd backend — for SELECT and
    CREATE TABLE AS alike, with one message — because answering them would
    need world enumeration.  The explicit backend answers them: the tests
    document the gap."""

    @pytest.mark.parametrize("sql", [
        "select possible * from (select Pos from I repair by key Id) d;",
        "select possible * from (select Id, Pos from I) d repair by key Id;",
    ], ids=["uncertain-relation", "uncertain-derived-table"])
    def test_refused_on_wsd_answered_on_explicit(self, sql):
        explicit, wsd = whale_sessions()
        messages = []
        for statement in refused_statements(sql):
            with pytest.raises(UnsupportedFeatureError) as caught:
                wsd.execute_statement(statement)
            messages.append(str(caught.value))
            explicit.execute_statement(statement)
        assert messages[0] == messages[1]
        assert "multiplies worlds" in messages[0]
        assert explicit.execute("select possible * from T;").rows()


#: ``T(S, N)`` = ('a', 1), ('b', 0), ('c', 3), with declared types or with
#: none (every column ``ANY``).
BOOLEAN_CONTEXT_SETUP = {
    "declared": "create table T (S text, N integer);",
    "untyped": "create table T (S, N);",
}

#: Predicates over non-boolean values in every boolean context — WHERE,
#: AND / OR / NOT operands, CASE WHEN, HAVING and assert — plus boolean
#: controls.  A predicate must be boolean or NULL.
BOOLEAN_CONTEXT_CORPUS = [
    "select possible S from T where N;",
    "select possible S from T where N and N >= 0;",
    "select possible S from T where N or false;",
    "select possible S from T where not N;",
    "select possible S from T "
    "where case when N then true else false end;",
    "select possible S from T where S and N > 0;",
    "select possible S from T group by S, N having N;",
    "select possible S from T assert exists(select * from T where N);",
]

BOOLEAN_CONTEXT_CONTROLS = [
    ("select possible S from T where N > 0 and N >= 0;", {"a", "c"}),
    ("select possible S from T where not (N > 0) or false;", {"b"}),
    ("select possible S from T "
     "where case when N > 0 then true else false end;", {"a", "c"}),
    ("select possible S from T group by S, N having N > 0;", {"a", "c"}),
    ("select possible S from T assert exists(select * from T where N > 2);",
     {"a", "b", "c"}),
]


def boolean_context_sessions(kind):
    sessions = []
    for backend in ("explicit", "wsd"):
        db = MayBMS(backend=backend)
        db.execute(BOOLEAN_CONTEXT_SETUP[kind])
        db.execute("insert into T values ('a', 1), ('b', 0), ('c', 3);")
        sessions.append(db)
    return sessions


class TestBooleanContextParity:
    """One predicate rule on both backends (PostgreSQL's): a declared
    non-boolean type is refused by the binder before any world or component
    is touched, and a non-boolean value of an untyped column raises when it
    is evaluated — the same error class on both backends, and never rows
    that one backend keeps and the other drops."""

    @pytest.mark.parametrize("query", BOOLEAN_CONTEXT_CORPUS)
    def test_declared_non_boolean_is_refused_before_execution(self, query):
        from repro.core.executor import Executor
        from repro.wsd.execute import WSDExecutor

        untouched = AssertionError("the binder should have refused this")
        for db in boolean_context_sessions("declared"):
            with mock.patch.object(Executor, "evaluate_query",
                                   side_effect=untouched), \
                    mock.patch.object(WSDExecutor, "evaluate_query",
                                      side_effect=untouched), \
                    pytest.raises(AnalysisError):
                db.execute(query)

    @pytest.mark.parametrize("query", BOOLEAN_CONTEXT_CORPUS)
    def test_untyped_non_boolean_raises_on_both(self, query):
        explicit, wsd = boolean_context_sessions("untyped")
        assert run_on_both(explicit, wsd, query) is ExpressionError

    def test_a_row_leaves_at_its_first_conjunct_not_true(self):
        # `S = null` is NULL on every row, so no row reaches the untyped
        # bare `N` on either backend: the same empty answer, no error.
        for db in boolean_context_sessions("untyped"):
            assert db.execute("select possible S from T "
                              "where S = null and N;").rows() == []

    def test_join_conjuncts_filter_at_the_same_stage(self):
        # Both backends filter with a conjunct as soon as the joined prefix
        # holds its columns, so the bare untyped `A.N` is evaluated on A's
        # row (and raises) on both, although `B.M > 0` is NULL.
        sessions = []
        for backend in ("explicit", "wsd"):
            db = MayBMS(backend=backend)
            for statement in ("create table A (K, N);",
                              "create table B (K, M);",
                              "insert into A values (1, 1);",
                              "insert into B values (1, null);"):
                db.execute(statement)
            sessions.append(db)
        assert run_on_both(*sessions, "select possible A.K from A, B "
                                      "where B.M > 0 and A.N;") \
            is ExpressionError

    @pytest.mark.parametrize("kind", sorted(BOOLEAN_CONTEXT_SETUP))
    @pytest.mark.parametrize("query, expected", BOOLEAN_CONTEXT_CONTROLS)
    def test_boolean_predicates_answer_alike(self, kind, query, expected):
        explicit, wsd = boolean_context_sessions(kind)
        for db in (explicit, wsd):
            assert {row[0] for row in db.execute(query).rows()} == expected


class TestOrderByUnselectedColumn:
    """ORDER BY resolves against the select items first, then the input
    columns, so a column that is not selected still orders the answer."""

    @pytest.mark.parametrize("query, expected", [
        ("select S from T order by N;", [("b",), ("a",), ("c",)]),
        ("select S from T order by N desc;", [("c",), ("a",), ("b",)]),
        ("select S, N + 1 as M from T order by T.N desc limit 2;",
         [("c", 4), ("a", 2)]),
    ])
    def test_orders_by_an_input_column(self, query, expected):
        for db in boolean_context_sessions("declared"):
            result = db.execute(query)
            answers = ([result.relation] if result.is_rows()
                       else [answer.relation
                             for answer in result.world_answers])
            assert [answer.rows for answer in answers] == [expected]
            assert answers[0].schema.names() == \
                (["S"] if "M" not in query else ["S", "M"])

    def test_distinct_needs_the_order_key_selected(self):
        explicit, wsd = boolean_context_sessions("declared")
        assert run_on_both(explicit, wsd,
                           "select distinct S from T order by N;") \
            is AnalysisError


def test_ungrouped_column_of_an_empty_group_raises_alike():
    """A column outside any aggregate has no row to read in the one group
    a global aggregate keeps over an empty input."""
    explicit, wsd = boolean_context_sessions("declared")
    assert run_on_both(explicit, wsd,
                       "select S, count(*) from T where N > 5;") \
        is ExpressionError
