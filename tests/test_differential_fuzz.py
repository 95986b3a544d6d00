"""Cross-backend differential fuzzing: random i-SQL programs, two engines.

A Hypothesis-driven generator builds random i-SQL *programs* — repairs and
choices, self-joins, ``conf`` / ``possible`` / ``certain`` decorations,
aggregates with GROUP BY / HAVING, ``group worlds by``, compound queries
(UNION / INTERSECT / EXCEPT, bag and set), ``assert`` conditioning,
derived tables over plain, ``assert``, ``conf`` and grouped-``sum`` inner
selects (also run through a view, which must answer alike) and DML
interleavings (insert / delete / update on the base relation followed by
re-derivations) — and runs every program through both the explicit
possible-worlds backend and the WSD-native backend on the same small
world-sets.

The invariant: statement by statement, both backends produce identical
answers — rows, confidences and per-world answer distributions agree to
1e-9, DML reports the same affected-row count — or both refuse with an
engine error.  This is the standing safety
net for executor refactors: any rewriting of the symbolic, aggregate,
grouping or set-operation tiers that changes semantics on *any* generated
shape fails here before it lands.

The grammar deliberately stays inside the intersection of both backends'
supported surfaces (e.g. no DML on uncertain relations, which only the
explicit backend accepts), so a divergence is always a bug, never a known
capability gap.

A durability leg runs each program on a disk-backed session too
(snapshots every few commits), closes and reopens the store, and requires
the recovered state to answer identically to a session that never left
memory — the fuzzing counterpart of ``tests/test_crash_recovery.py``.

The example budget honours ``REPRO_FUZZ_EXAMPLES``: unset (the default) keeps
the quick PR budget, drawn the same way on every run (the derandomized
``tier1`` Hypothesis profile of ``conftest.py``); the nightly CI job sets it
to 1000+ under ``HYPOTHESIS_PROFILE=explore`` for an extended sweep of
fresh programs.  On a failure Hypothesis prints the falsifying program *and* the
``@reproduce_failure`` blob (``print_blob``), so a nightly catch is
reproducible locally with one decorator.
"""

from __future__ import annotations

import os
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro import MayBMS
from repro.errors import ReproError
from repro.relational.relation import Relation
from repro.relational.schema import Column, Schema
from repro.relational.types import SqlType
from repro.wsd.execute import WSDExecutor

from test_wsd_executor_parity import force_guarded_grouping


#: Example budget override for the nightly extended sweep (0 = defaults).
FUZZ_EXAMPLES = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "0") or 0)


def fuzz_examples(default: int) -> int:
    """The per-test example budget: the env override, or *default*."""
    return FUZZ_EXAMPLES if FUZZ_EXAMPLES > 0 else default


# -- workload generation -------------------------------------------------------------------

KEYS = (0, 1, 2)
VALUES = tuple(range(7))


@st.composite
def base_relation(draw):
    """A small dirty relation R(K, V, W): ≤3 key groups, ≤3 options each."""
    rows = []
    for key in draw(st.sets(st.sampled_from(KEYS), min_size=1, max_size=3)):
        options = draw(st.integers(min_value=1, max_value=3))
        payloads = draw(st.lists(st.sampled_from(VALUES), min_size=options,
                                 max_size=options, unique=True))
        for payload in payloads:
            rows.append((key, payload, draw(st.integers(min_value=1,
                                                        max_value=4))))
    schema = Schema([Column("K", SqlType.INTEGER),
                     Column("V", SqlType.INTEGER),
                     Column("W", SqlType.INTEGER)])
    return Relation(schema, rows, name="R")


def _setup_statement(draw) -> str:
    decoration = draw(st.sampled_from(
        ["repair by key K", "repair by key K weight W", "choice of K"]))
    return f"create table I as select K, V from R {decoration};"


@st.composite
def predicate(draw, alias: str = "") -> str:
    prefix = f"{alias}." if alias else ""
    column = draw(st.sampled_from(["K", "V"]))
    operator = draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]))
    value = draw(st.sampled_from(KEYS if column == "K" else VALUES))
    clause = f"{prefix}{column} {operator} {value}"
    if draw(st.booleans()):
        other_column = draw(st.sampled_from(["K", "V"]))
        other_operator = draw(st.sampled_from(["<", ">=", "="]))
        other_value = draw(st.sampled_from(
            KEYS if other_column == "K" else VALUES))
        connector = draw(st.sampled_from(["and", "or"]))
        clause = (f"{clause} {connector} "
                  f"{prefix}{other_column} {other_operator} {other_value}")
    return clause


@st.composite
def simple_select(draw, decorations=("", "possible ", "certain "),
                  columns=None) -> str:
    decoration = draw(st.sampled_from(list(decorations)))
    if columns is None:
        columns = draw(st.sampled_from(["V", "K", "K, V", "*"]))
    where = ""
    if draw(st.booleans()):
        where = f" where {draw(predicate())}"
    return f"select {decoration}{columns} from I{where}"


@st.composite
def conf_select(draw, columns=None) -> str:
    if columns is None:
        columns = draw(st.sampled_from(["V", "K", "K, V"]))
    where = ""
    if draw(st.booleans()):
        where = f" where {draw(predicate())}"
    return f"select conf, {columns} from I{where};"


@st.composite
def self_join_select(draw) -> str:
    decoration = draw(st.sampled_from(["possible ", "certain ", "conf, "]))
    comparison = draw(st.sampled_from(
        ["i1.V < i2.V", "i1.V = i2.V and i1.K <> i2.K", "i1.V + i2.V > 6"]))
    return (f"select {decoration}i1.V, i2.V from I i1, I i2 "
            f"where {comparison};")


@st.composite
def aggregate_select(draw) -> str:
    decoration = draw(st.sampled_from(["", "possible ", "certain ", "conf, "]))
    call = draw(st.sampled_from(
        ["count(*)", "sum(V)", "min(V)", "max(V)", "avg(V)",
         "count(distinct V)"]))
    where = f" where {draw(predicate())}" if draw(st.booleans()) else ""
    if draw(st.booleans()):
        having = ""
        if draw(st.booleans()):
            having = f" having {call} >= {draw(st.sampled_from(VALUES))}"
        return (f"select {decoration}K, {call} from I{where} "
                f"group by K{having};")
    return f"select {decoration}{call} from I{where};"


@st.composite
def conf_subquery_select(draw) -> str:
    call = draw(st.sampled_from(["sum(V)", "count(*)", "max(V)"]))
    operator = draw(st.sampled_from(["<", ">", "<=", ">="]))
    threshold = draw(st.integers(min_value=0, max_value=12))
    return (f"select conf from I where "
            f"(select {call} from I) {operator} {threshold};")


@st.composite
def grouping_query(draw) -> str:
    return draw(st.sampled_from([
        "select sum(V) from I",
        "select count(*) from I where V > 3",
        "select max(V) from I",
        "select V from I where K = 0",
        "select distinct V from I where V < 3",
    ]))


@st.composite
def group_worlds_select(draw) -> str:
    main = draw(simple_select())
    return f"{main} group worlds by ({draw(grouping_query())});"


@st.composite
def compound_select(draw) -> str:
    operator = draw(st.sampled_from(["union", "intersect", "except"]))
    multiplicity = draw(st.sampled_from(["", " all"]))
    left_where = f" where {draw(predicate())}" if draw(st.booleans()) else ""
    right_where = f" where {draw(predicate())}" if draw(st.booleans()) else ""
    suffix = ""
    if draw(st.booleans()):
        suffix = " order by V" + draw(st.sampled_from(["", " desc"]))
        if draw(st.booleans()):
            suffix += f" limit {draw(st.integers(min_value=0, max_value=3))}"
    return (f"select V from I{left_where} "
            f"{operator}{multiplicity} select V from I{right_where}{suffix};")


@st.composite
def assert_select(draw, columns=None) -> str:
    main = draw(simple_select(decorations=("possible ", "certain "),
                              columns=columns))
    negation = draw(st.sampled_from(["", "not "]))
    return (f"{main} assert {negation}exists"
            f"(select * from I where {draw(predicate())});")


@st.composite
def derived_forms(draw) -> tuple[str, str, str]:
    """One inner select used twice by an outer ``possible`` / ``certain`` /
    ``conf`` select: inlined as a derived table, and through a view.

    Returns ``(derived_sql, view_sql, outer_over_view_sql)``.  The inner
    select is a plain select with a predicate, an ``assert`` select, a
    ``conf`` select or a grouped ``sum``; neither form decorates the derived
    table with ``repair`` / ``choice``.
    """
    kind = draw(st.sampled_from(["plain", "assert", "conf", "sum"]))
    columns = draw(st.sampled_from(["K", "V", "K, V"]))
    if kind == "plain":
        inner = f"select {columns} from I where {draw(predicate())}"
    elif kind == "assert":
        inner = draw(assert_select(columns=columns)).rstrip(";")
    elif kind == "conf":
        inner = draw(conf_select(columns=columns)).rstrip(";")
    else:
        where = f" where {draw(predicate())}" if draw(st.booleans()) else ""
        inner = f"select K, sum(V) as S from I{where} group by K"
        columns = "K, S"
    names = columns.split(", ")
    decoration = draw(st.sampled_from(["possible ", "certain ", "conf, "]))
    where = ""
    if draw(st.booleans()):
        column = draw(st.sampled_from(names + (["conf"] if kind == "conf"
                                               else [])))
        operator = draw(st.sampled_from(["<", ">=", "="]))
        values = {"K": KEYS, "V": VALUES, "S": tuple(range(0, 16, 3)),
                  "conf": (0.25, 0.5, 1.0)}[column]
        where = f" where {column} {operator} {draw(st.sampled_from(values))}"
    outer = f"select {decoration}{columns} from {{}} d{where};"
    return (outer.format(f"({inner})"),
            f"create or replace view Vw as {inner};", outer.format("Vw"))


@st.composite
def dml_statement(draw) -> str:
    kind = draw(st.sampled_from(["insert", "delete", "update", "rederive"]))
    if kind == "insert":
        key = draw(st.sampled_from(KEYS))
        value = draw(st.sampled_from(VALUES))
        weight = draw(st.integers(min_value=1, max_value=4))
        return f"insert into R values ({key}, {value + 10}, {weight});"
    if kind == "delete":
        return f"delete from R where V = {draw(st.sampled_from(VALUES))};"
    if kind == "update":
        return (f"update R set W = {draw(st.integers(min_value=1, max_value=4))} "
                f"where K = {draw(st.sampled_from(KEYS))};")
    return "create table I as select K, V from R repair by key K;"


@st.composite
def statement(draw) -> str:
    branch = draw(st.sampled_from(
        ["simple", "simple", "conf", "self_join", "aggregate",
         "conf_subquery", "group_worlds", "group_worlds", "compound",
         "compound", "assert", "derived", "dml"]))
    if branch == "simple":
        return draw(simple_select()) + ";"
    if branch == "conf":
        return draw(conf_select())
    if branch == "self_join":
        return draw(self_join_select())
    if branch == "aggregate":
        return draw(aggregate_select())
    if branch == "conf_subquery":
        return draw(conf_subquery_select())
    if branch == "group_worlds":
        return draw(group_worlds_select())
    if branch == "compound":
        return draw(compound_select())
    if branch == "assert":
        return draw(assert_select())
    if branch == "derived":
        return draw(derived_forms())[0]
    return draw(dml_statement())


@st.composite
def program(draw):
    relation = draw(base_relation())
    statements = [_setup_statement(draw)]
    statements += draw(st.lists(statement(), min_size=1, max_size=5))
    return relation, statements


# -- differential execution ----------------------------------------------------------------


def canonical_rows(rows):
    normalised = []
    for row in rows:
        normalised.append(tuple(round(value, 9) if isinstance(value, float)
                                else value for value in row))
    return sorted(normalised, key=repr)


def answer_distribution(pairs):
    """``(probability, relation)`` pairs folded into fingerprint -> mass."""
    weights = [probability for probability, _ in pairs]
    if any(weight is None for weight in weights):
        weights = [1.0 / len(pairs)] * len(pairs)
    total = sum(weights)
    distribution: dict[tuple, float] = {}
    for weight, (_, relation) in zip(weights, pairs):
        fingerprint = (tuple(relation.schema.names()),
                       canonical_fingerprint(relation))
        distribution[fingerprint] = distribution.get(fingerprint, 0.0) \
            + weight / total
    return distribution


def canonical_fingerprint(relation):
    return tuple(canonical_rows(relation.rows))


def result_distribution(result):
    if result.is_wsd_rows():
        worlds = result.answer_decomposition().to_worldset()
        return answer_distribution(
            [(world.probability, world.relation(result.relation_name))
             for world in worlds])
    return answer_distribution(
        [(answer.probability, answer.relation)
         for answer in result.world_answers])


def assert_statement_parity(statement_sql, expected, actual):
    context = f"statement: {statement_sql}"
    if expected.kind == "command":
        assert actual.kind == "command", context
        # DML counts affected rows per world on both backends.
        assert actual.rowcount == expected.rowcount, context
        return
    if expected.is_rows():
        assert actual.is_rows(), context
        assert canonical_rows(actual.rows()) == \
            canonical_rows(expected.rows()), context
        return
    assert expected.is_world_rows() or expected.is_wsd_rows(), context
    assert actual.is_world_rows() or actual.is_wsd_rows(), context
    actual_distribution = result_distribution(actual)
    expected_distribution = result_distribution(expected)
    assert set(actual_distribution) == set(expected_distribution), context
    for fingerprint, mass in expected_distribution.items():
        assert actual_distribution[fingerprint] == \
            pytest.approx(mass, abs=1e-9), context


def assert_approximation_tracks(statement_sql, expected, actual):
    """An approximate answer must keep the exact row identities, append
    only the interval columns, and put every sampled confidence within
    ``max(4 * epsilon, 0.05)`` of the exact value."""
    context = f"statement: {statement_sql}"
    assert expected.is_rows() and actual.is_rows(), context
    tolerance = max(4.0 * actual.approximation["epsilon"], 0.05)
    expected_names = list(expected.relation.schema.names())
    actual_names = list(actual.relation.schema.names())
    assert actual_names[:len(expected_names)] == expected_names, context
    assert all(name in ("conf_low", "conf_high")
               for name in actual_names[len(expected_names):]), context
    conf_indexes = {index for index, name in enumerate(expected_names)
                    if name == "conf"}

    def identity(row):
        return repr([value for index, value
                     in enumerate(row[:len(expected_names)])
                     if index not in conf_indexes])

    expected_rows = sorted(expected.rows(), key=identity)
    actual_rows = sorted(actual.rows(), key=identity)
    assert len(expected_rows) == len(actual_rows), context
    for expected_row, actual_row in zip(expected_rows, actual_rows):
        for index, value in enumerate(expected_row):
            if index in conf_indexes:
                assert actual_row[index] == pytest.approx(
                    value, abs=tolerance), context
            else:
                assert actual_row[index] == value, context


class TestDifferentialFuzz:
    """Random programs must agree statement-by-statement across backends."""

    @given(program())
    @settings(max_examples=fuzz_examples(60), deadline=None, print_blob=True)
    def test_backends_agree_on_random_programs(self, workload):
        relation, statements = workload
        explicit = MayBMS({"R": relation.copy()}, backend="explicit")
        wsd = MayBMS({"R": relation.copy()}, backend="wsd")
        for statement_sql in statements:
            try:
                expected = explicit.execute(statement_sql)
            except ReproError:
                # The explicit engine refused: the wsd backend must refuse
                # too (any engine error counts — messages may differ).
                with pytest.raises(ReproError):
                    wsd.execute(statement_sql)
                continue
            actual = wsd.execute(statement_sql)
            assert_statement_parity(statement_sql, expected, actual)

    @given(base_relation(), st.data())
    @settings(max_examples=fuzz_examples(40), deadline=None, print_blob=True)
    def test_derived_table_and_view_agree(self, relation, data):
        """An inner select inlined as a derived table and the same select
        behind a view answer alike on the wsd backend, and like the
        explicit backend."""
        explicit = MayBMS({"R": relation.copy()}, backend="explicit")
        wsd = MayBMS({"R": relation.copy()}, backend="wsd")
        setup = _setup_statement(data.draw)
        for db in (explicit, wsd):
            db.execute(setup)
        derived_sql, view_sql, over_view_sql = data.draw(derived_forms())
        for db in (explicit, wsd):
            db.execute(view_sql)
        try:
            expected = explicit.execute(derived_sql)
        except ReproError:
            for statement_sql in (derived_sql, over_view_sql):
                with pytest.raises(ReproError):
                    wsd.execute(statement_sql)
            return
        for statement_sql in (derived_sql, over_view_sql):
            assert_statement_parity(statement_sql, expected,
                                    wsd.execute(statement_sql))

    @given(program())
    @settings(max_examples=fuzz_examples(20), deadline=None, print_blob=True)
    def test_guarded_grouping_fallback_agrees(self, workload):
        """With the native grouping and set-operation engines refused (a
        test seam), the guarded per-joint fallbacks must match the explicit
        backend on the same random programs."""
        relation, statements = workload
        explicit = MayBMS({"R": relation.copy()}, backend="explicit")
        wsd = MayBMS({"R": relation.copy()}, backend="wsd")
        for statement_sql in statements:
            try:
                expected = explicit.execute(statement_sql)
            except ReproError:
                with pytest.raises(ReproError), force_guarded_grouping():
                    wsd.execute(statement_sql)
                continue
            with force_guarded_grouping():
                actual = wsd.execute(statement_sql)
            assert_statement_parity(statement_sql, expected, actual)
        assert wsd.backend.stats.grouping == 0
        assert wsd.backend.stats.setops == 0

    @given(program())
    @settings(max_examples=fuzz_examples(20), deadline=None, print_blob=True)
    def test_durable_store_round_trips_random_programs(self, workload):
        """The durability leg: run each random program on a durable wsd
        session (snapshotting every few commits so recovery exercises both
        snapshot load *and* WAL replay), close and reopen the store, and
        require the recovered session to answer identically to a session
        that never left memory."""
        import tempfile

        relation, statements = workload
        memory = MayBMS({"R": relation.copy()}, backend="wsd")
        with tempfile.TemporaryDirectory() as data_dir:
            durable = MayBMS({"R": relation.copy()}, backend="wsd",
                             data_dir=data_dir,
                             durability={"snapshot_every": 3})
            executed: list[str] = []
            for statement_sql in statements:
                try:
                    memory.execute(statement_sql)
                except ReproError:
                    with pytest.raises(ReproError):
                        durable.execute(statement_sql)
                    continue
                durable.execute(statement_sql)
                executed.append(statement_sql)
            generation = durable.state_generation
            durable.close()

            recovered = MayBMS(backend="wsd", data_dir=data_dir)
            assert recovered.state_generation == generation
            assert recovered.table_names() == memory.table_names()
            probes = [
                "select conf, K, V from I;",
                "select possible K, V from I;",
                "select sum(V) from I group worlds by "
                "(select sum(V) from I);",
            ]
            for probe in probes:
                try:
                    expected = memory.execute(probe)
                except ReproError:
                    with pytest.raises(ReproError):
                        recovered.execute(probe)
                    continue
                actual = recovered.execute(probe)
                assert_statement_parity(probe, expected, actual)
            recovered.close()

    @given(program())
    @settings(max_examples=fuzz_examples(20), deadline=None, print_blob=True)
    def test_approximate_confidence_tracks_exact(self, workload):
        """Approximate-vs-exact differential: forcing the anytime sampler
        on every non-closed-form confidence must track the exact engines
        within the advertised accuracy contract (and answer shapes that
        stay closed-form must stay bit-exact).

        The sampler is forced through a test seam — the d-tree tier is
        swapped for the anytime tier around the approximate session's
        statements only (``mock.patch`` rather than the function-scoped
        ``monkeypatch`` fixture, which Hypothesis does not reset between
        examples)."""
        relation, statements = workload
        exact = MayBMS({"R": relation.copy()}, backend="wsd")
        approx = MayBMS({"R": relation.copy()}, backend="wsd",
                        degradation="anytime")

        def run_sampled(statement_sql):
            with mock.patch.object(
                    WSDExecutor, "_dtree_estimate",
                    lambda self, w, c: self._sampled_confidence(w, c)):
                return approx.execute(statement_sql)

        for statement_sql in statements:
            try:
                expected = exact.execute(statement_sql)
            except ReproError:
                with pytest.raises(ReproError):
                    run_sampled(statement_sql)
                continue
            actual = run_sampled(statement_sql)
            if not actual.approximate:
                assert_statement_parity(statement_sql, expected, actual)
            else:
                assert_approximation_tracks(statement_sql, expected, actual)
