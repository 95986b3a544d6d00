"""Execution backends: the explicit possible-worlds engine and the WSD engine.

The session (:class:`repro.core.session.MayBMS`) is a thin facade over an
:class:`ExecutionBackend`:

* :class:`ExplicitBackend` keeps an explicit :class:`~repro.worldset.worldset.
  WorldSet` and evaluates every query once per world — the reference
  semantics, exactly as described in the paper;
* :class:`WsdBackend` keeps a :class:`~repro.wsd.decomposition.
  WorldSetDecomposition` and routes queries to the WSD-native executor
  (:mod:`repro.wsd.execute`), which operates on template tuples and
  components without materialising worlds.

Both backends execute the same parsed I-SQL statements and return the same
:class:`~repro.core.results.StatementResult` wrapper, so callers can switch
with ``MayBMS(backend="wsd")`` and compare answers — which is exactly what
the differential test suite (``tests/test_wsd_executor_parity.py``) does.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Any, Iterable, Sequence

from ..errors import (
    AnalysisError,
    ConstraintViolationError,
    DuplicateRelationError,
    UnknownRelationError,
    UnsupportedFeatureError,
)
from ..relational.catalog import Catalog
from ..relational.constraints import check_key
from ..relational.expressions import (
    EvalContext,
    _as_boolean,
    contains_subquery,
)
from ..relational.relation import Relation
from ..relational.schema import Column, Schema
from ..relational.types import SqlType
from ..sqlparser.ast_nodes import (
    CompoundQuery,
    CreateTable,
    CreateTableAs,
    CreateView,
    Delete,
    DropTable,
    DropView,
    ExplainStatement,
    Insert,
    Query,
    SelectQuery,
    Statement,
    Update,
)
from ..worldset.worldset import WorldSet
from ..wsd.approximate import AnytimeBudget
from ..wsd.budgets import ResourceBudgets
from ..wsd.construct import add_certain_relation
from ..wsd.decomposition import Template, WorldSetDecomposition
from ..wsd.execute import (
    AggregateStats,
    ConfidenceStats,
    WSDExecutor,
    WsdExecutionStats,
    canonical_relation_name,
    materialise_certain,
    prune_and_normalize,
    relation_is_certain,
)
from .binder import Binder
from .executor import TRANSIENT_PREFIX, Executor, WorldQueryResult
from .options import QueryOptions
from .planner import Planner
from .results import StatementResult, WorldAnswer

__all__ = ["ExecutionBackend", "ExplicitBackend", "WsdBackend",
           "create_backend"]


class ExecutionBackend:
    """The state-plus-execution interface both backends implement."""

    name: str = "abstract"

    #: Stored view definitions (lower-cased name -> query AST).
    views: dict[str, Query]
    #: Declared primary keys (lower-cased table name -> key columns).
    primary_keys: dict[str, list[str]]

    # -- programmatic catalog management ------------------------------------------------

    def create_table(self, name: str, columns: Sequence[str | Column],
                     rows: Iterable[Sequence[Any]] = (),
                     primary_key: Sequence[str] | None = None) -> None:
        raise NotImplementedError

    def register_relation(self, relation: Relation,
                          name: str | None = None) -> None:
        raise NotImplementedError

    def insert(self, table: str, rows: Iterable[Sequence[Any]]) -> int:
        raise NotImplementedError

    def relation(self, name: str, world_label: str | None = None) -> Relation:
        raise NotImplementedError

    def world_count(self) -> int:
        raise NotImplementedError

    def table_names(self) -> list[str]:
        raise NotImplementedError

    def view_names(self) -> list[str]:
        return sorted(self.views)

    def describe(self, relation_names: Iterable[str] | None = None,
                 max_rows: int | None = None) -> str:
        raise NotImplementedError

    # -- statement execution --------------------------------------------------------------

    #: The per-engine guard values this backend runs under (the explicit
    #: backend stores them for reporting only; the wsd backend enforces
    #: them).
    budgets: ResourceBudgets
    #: Graceful-degradation default: ``"strict"`` refuses over-budget
    #: shapes with a structured :class:`~repro.errors.ResourceBudgetError`;
    #: ``"anytime"`` degrades them to the approximate sampling tier.
    degradation: str

    def execute_statement(self, statement: Statement,
                          options: QueryOptions | None = None
                          ) -> StatementResult:
        """Execute one parsed statement.

        *options* carries per-request overrides (deadline, target ε,
        degradation mode); backends without an approximate tier accept and
        ignore the sampling-related fields.
        """
        raise NotImplementedError

    def _declared_schemas(self) -> dict[str, Schema]:
        """Lower-cased relation name -> declared schema, as every world
        sees it."""
        raise NotImplementedError

    def _bind(self, statement: Statement) -> None:
        """Resolve *statement*'s names against the current schemas and views
        (:mod:`repro.core.binder`); a no-op while they are unchanged."""
        schemas = self._declared_schemas()
        # Views compare by identity: a re-created view is a new, unbound
        # AST even when its text is unchanged.  The token holds the view
        # objects, so no id in it can be reused while it is alive.
        views = tuple(self.views.items())
        token = (tuple(schemas.items()),
                 tuple((name, id(query)) for name, query in views), views)

        def relation_schema(name: str) -> Schema:
            if name.lower() not in schemas:
                raise UnknownRelationError(name)
            return schemas[name.lower()]

        Binder(relation_schema, self.views).bind_statement(statement, token)

    # -- view DDL (shared: views live in the backend-agnostic registry) -------------------

    def _execute_create_view(self, statement: CreateView) -> StatementResult:
        key = statement.name.lower()
        if key in self.views and not statement.or_replace:
            raise AnalysisError(f"view {statement.name!r} already exists")
        self.views[key] = statement.query
        return StatementResult(kind="command",
                               message=f"created view {statement.name}")

    def _execute_drop_view(self, name: str,
                           if_exists: bool) -> StatementResult:
        if name.lower() in self.views:
            del self.views[name.lower()]
            return StatementResult(kind="command",
                                   message=f"dropped view {name}")
        if if_exists:
            return StatementResult(kind="command", message="nothing to drop")
        raise UnknownRelationError(name)


def _where_holds(where, context: EvalContext) -> bool:
    """Does a DML row satisfy the (optional) WHERE predicate?"""
    return where is None or bool(_as_boolean(where.evaluate(context)))


def _reorder_row(schema: Schema, row: tuple,
                 columns: Sequence[str] | None) -> tuple:
    """Reorder an INSERT row given an explicit column list (shared logic)."""
    if not columns:
        return row
    if len(columns) != len(row):
        raise AnalysisError("INSERT column list and VALUES arity differ")
    by_name = dict(zip([c.lower() for c in columns], row))
    return tuple(by_name.get(column.name.lower()) for column in schema)


def _explicit_result(outcome: WorldQueryResult) -> StatementResult:
    """The statement result of the explicit backend's per-world query
    evaluation."""
    if outcome.collected is not None:
        return StatementResult(kind="rows", relation=outcome.collected,
                               world_set=outcome.world_set)
    answers = [WorldAnswer(world.label, world.probability, answer)
               for world, answer in zip(outcome.world_set.worlds,
                                        outcome.answers)]
    return StatementResult(kind="world_rows", world_answers=answers,
                           world_set=outcome.world_set)


def _merge_counters(total: Any, part: Any) -> None:
    """Accumulate the counter dataclass *part* into *total*: every field
    sums, except fields whose metadata marks them ``merge="max"``."""
    for field in dataclasses.fields(total):
        mine = getattr(total, field.name)
        theirs = getattr(part, field.name)
        setattr(total, field.name,
                max(mine, theirs) if field.metadata.get("merge") == "max"
                else mine + theirs)


def _dml_result(verb: str, counts: list[int]) -> StatementResult:
    """An UPDATE / DELETE result from the per-world affected-row counts.

    Every world affects the same rows of a certain relation, so the count is
    per world (as on the wsd backend), not summed over worlds.  When worlds
    disagree there is no single count: ``rowcount`` is ``None`` and the
    message gives the range.
    """
    low, high = min(counts), max(counts)
    if low == high:
        return StatementResult(kind="command",
                               message=f"{verb} {low} row(s)", rowcount=low)
    return StatementResult(
        kind="command",
        message=f"{verb} {low}-{high} row(s) per world", rowcount=None)


def create_backend(kind: str,
                   catalog: Catalog | dict[str, Relation] | None = None,
                   budgets: ResourceBudgets | dict | None = None,
                   degradation: str = "strict",
                   anytime: AnytimeBudget | None = None
                   ) -> ExecutionBackend:
    """Instantiate the backend named *kind* (``"explicit"`` or ``"wsd"``).

    *budgets* / *degradation* / *anytime* configure graceful degradation
    (see :class:`WsdBackend`); the explicit backend stores them so the
    serving layer reports one shape, but enforces none of them — its cost
    is the world count itself.
    """
    if kind == "explicit":
        return ExplicitBackend(catalog, budgets=budgets,
                               degradation=degradation)
    if kind == "wsd":
        return WsdBackend(catalog, budgets=budgets, degradation=degradation,
                          anytime=anytime)
    raise AnalysisError(
        f"unknown backend {kind!r} (expected 'explicit' or 'wsd')")


class ExplicitBackend(ExecutionBackend):
    """Per-world evaluation over an explicit world-set (the reference)."""

    name = "explicit"

    def __init__(self, catalog: Catalog | dict[str, Relation] | None = None,
                 budgets: ResourceBudgets | dict | None = None,
                 degradation: str = "strict") -> None:
        if catalog is None:
            catalog = Catalog()
        elif isinstance(catalog, dict):
            catalog = Catalog(catalog)
        #: The current world-set.  A freshly created instance holds a single
        #: complete world, exactly like a conventional database.
        self.world_set: WorldSet = WorldSet.single(catalog, label="A")
        self.views = {}
        self.primary_keys = {}
        self.budgets = ResourceBudgets.coerce(budgets)
        if degradation not in ("strict", "anytime"):
            raise AnalysisError(
                f"unknown degradation mode {degradation!r} "
                "(expected 'strict' or 'anytime')")
        self.degradation = degradation

    # -- programmatic catalog management ------------------------------------------------------

    def create_table(self, name: str, columns: Sequence[str | Column],
                     rows: Iterable[Sequence[Any]] = (),
                     primary_key: Sequence[str] | None = None) -> None:
        schema = Schema(list(columns))
        relation = Relation(schema, rows, name=name)
        self.world_set = self.world_set.map_worlds(
            lambda world: world.with_relation(name, relation.copy(),
                                              replace=False))
        if primary_key:
            self.primary_keys[name.lower()] = list(primary_key)

    def register_relation(self, relation: Relation,
                          name: str | None = None) -> None:
        table_name = name or relation.name
        if not table_name:
            raise AnalysisError("register_relation requires a name")
        self.world_set = self.world_set.map_worlds(
            lambda world: world.with_relation(table_name, relation.copy(),
                                              replace=False))

    def insert(self, table: str, rows: Iterable[Sequence[Any]]) -> int:
        rows = [tuple(row) for row in rows]
        return self._insert_rows(table, rows)

    def relation(self, name: str, world_label: str | None = None) -> Relation:
        world = (self.world_set.world_by_label(world_label)
                 if world_label is not None else self.world_set.worlds[0])
        return world.relation(name)

    def world_count(self) -> int:
        return len(self.world_set)

    def table_names(self) -> list[str]:
        return self.world_set.worlds[0].catalog.names()

    def describe(self, relation_names: Iterable[str] | None = None,
                 max_rows: int | None = None) -> str:
        return self.world_set.describe(relation_names, max_rows=max_rows)

    # -- statement execution --------------------------------------------------------------------

    def execute_statement(self, statement: Statement,
                          options: QueryOptions | None = None
                          ) -> StatementResult:
        # The explicit backend has no approximate tier, so options only get
        # validated.
        QueryOptions.coerce(options)
        if self.world_set.worlds:  # an empty world-set evaluates nothing
            self._bind(statement)
        if isinstance(statement, (SelectQuery, CompoundQuery)):
            return self._execute_query(statement)
        if isinstance(statement, CreateTableAs):
            return self._execute_create_table_as(statement)
        if isinstance(statement, CreateView):
            return self._execute_create_view(statement)
        if isinstance(statement, CreateTable):
            return self._execute_create_table(statement)
        if isinstance(statement, DropTable):
            return self._execute_drop(statement.name, statement.if_exists,
                                      kind="table")
        if isinstance(statement, DropView):
            return self._execute_drop_view(statement.name,
                                           statement.if_exists)
        if isinstance(statement, Insert):
            return self._execute_insert(statement)
        if isinstance(statement, Update):
            return self._execute_update(statement)
        if isinstance(statement, Delete):
            return self._execute_delete(statement)
        if isinstance(statement, ExplainStatement):
            return self._execute_explain(statement)
        raise UnsupportedFeatureError(
            f"statement type {type(statement).__name__} is not supported")

    def _declared_schemas(self) -> dict[str, Schema]:
        catalog = self.world_set.worlds[0].catalog
        return {name.lower(): catalog.get(name).schema
                for name in catalog.names()}

    # -- queries -------------------------------------------------------------------------------------

    def _executor(self) -> Executor:
        return Executor(self.views)

    def _execute_query(self, query: Query) -> StatementResult:
        return _explicit_result(
            self._executor().evaluate_query(query, self.world_set))

    def _execute_create_table_as(self, statement: CreateTableAs
                                 ) -> StatementResult:
        outcome = self._executor().evaluate_query(statement.query,
                                                  self.world_set)
        self._install_materialized(statement.name, outcome,
                                   Schema(statement.columns))
        return StatementResult(
            kind="command",
            message=(f"created table {statement.name} in "
                     f"{len(self.world_set)} world(s)"),
            world_set=self.world_set)

    def _install_materialized(self, name: str, outcome: WorldQueryResult,
                              schema: Schema) -> None:
        """Install a query outcome as new session state under the bound
        *schema* (always replacing any existing relation of the same name,
        like the seed semantics)."""
        worlds = []
        for world, answer in zip(outcome.world_set.worlds, outcome.answers):
            stored = answer.with_schema(schema)
            new_world = world.with_relation(name, stored, replace=True)
            for relation_name in list(new_world.catalog.names()):
                if relation_name.startswith(TRANSIENT_PREFIX):
                    new_world.catalog.drop(relation_name)
            worlds.append(new_world)
        self.world_set = WorldSet(worlds)

    # -- DDL -----------------------------------------------------------------------------------------------

    def _execute_create_table(self, statement: CreateTable) -> StatementResult:
        columns = [Column(definition.name,
                          SqlType.from_name(definition.type_name))
                   for definition in statement.columns]
        relation = Relation(Schema(columns), [], name=statement.name)
        self.world_set = self.world_set.map_worlds(
            lambda world: world.with_relation(statement.name, relation.copy(),
                                              replace=False))
        if statement.primary_key:
            self.primary_keys[statement.name.lower()] = \
                list(statement.primary_key)
        return StatementResult(kind="command",
                               message=f"created table {statement.name}")

    def _execute_drop(self, name: str, if_exists: bool,
                      kind: str) -> StatementResult:
        if kind == "view":
            return self._execute_drop_view(name, if_exists)
        present = any(world.has_relation(name)
                      for world in self.world_set.worlds)
        if not present:
            if if_exists:
                return StatementResult(kind="command",
                                       message="nothing to drop")
            raise UnknownRelationError(name)
        self.world_set = self.world_set.map_worlds(
            lambda world: world.without_relation(name))
        self.primary_keys.pop(name.lower(), None)
        return StatementResult(kind="command", message=f"dropped table {name}")

    # -- DML -----------------------------------------------------------------------------------------------

    def _execute_insert(self, statement: Insert) -> StatementResult:
        rows = self._insert_rows_from_statement(statement)
        count = self._insert_rows(statement.table, rows, statement.columns)
        message = (f"inserted {count} row(s) into {statement.table}"
                   if count else
                   "insert discarded in all worlds (constraint violation)")
        return StatementResult(kind="command", message=message, rowcount=count)

    def _insert_rows_from_statement(self, statement: Insert) -> list[tuple]:
        if statement.query is not None:
            # INSERT ... SELECT: inserting world-dependent answers is
            # ambiguous, so require that every world agrees.
            outcome = self._executor().evaluate_query(statement.query,
                                                      self.world_set)
            distinct_answers = {answer.fingerprint()
                                for answer in outcome.answers}
            if len(distinct_answers) != 1:
                raise UnsupportedFeatureError(
                    "INSERT ... SELECT with world-dependent answers "
                    "is not supported")
            return list(outcome.answers[0].rows)
        context = EvalContext(row=())
        return [tuple(expression.evaluate(context) for expression in row)
                for row in statement.rows]

    def _insert_rows(self, table: str, rows: list[tuple],
                     columns: Sequence[str] | None = None) -> int:
        """Insert rows in every world; discard the whole update on violation.

        This is the update semantics described in Section 2 of the paper: the
        tuples are inserted in each world, but if the insertion violates a
        (declared key) constraint in *some* world, the update is discarded in
        *all* worlds.
        """
        key = self.primary_keys.get(table.lower())
        candidate_worlds = []
        for world in self.world_set.worlds:
            relation = world.relation(table).copy()
            for row in rows:
                relation.insert(_reorder_row(relation.schema, row, columns))
            if key is not None and not check_key(relation, key):
                raise ConstraintViolationError(
                    f"insert into {table} violates the key "
                    f"({', '.join(key)}) in world {world.label!r}; "
                    "update discarded in all worlds")
            candidate_worlds.append(world.with_relation(table, relation))
        self.world_set = WorldSet(candidate_worlds)
        return len(rows)

    def _execute_update(self, statement: Update) -> StatementResult:
        executor = self._executor()
        counts = []
        new_worlds = []
        for world in self.world_set.worlds:
            relation = world.relation(statement.table).copy()
            env = executor._make_env(world)

            def matches(row: tuple) -> bool:
                return _where_holds(statement.where, env.make_context(row))

            def updated(row: tuple) -> tuple:
                context = env.make_context(row)
                values = list(row)
                for assignment in statement.assignments:
                    index = relation.schema.index_of(assignment.column)
                    values[index] = assignment.expression.evaluate(context)
                return tuple(values)

            counts.append(relation.update_where(matches, updated))
            key = self.primary_keys.get(statement.table.lower())
            if key is not None and not check_key(relation, key):
                raise ConstraintViolationError(
                    f"update of {statement.table} violates the key in world "
                    f"{world.label!r}; update discarded in all worlds")
            new_worlds.append(world.with_relation(statement.table, relation))
        self.world_set = WorldSet(new_worlds)
        return _dml_result("updated", counts)

    def _execute_delete(self, statement: Delete) -> StatementResult:
        executor = self._executor()
        counts = []
        new_worlds = []
        for world in self.world_set.worlds:
            relation = world.relation(statement.table).copy()
            env = executor._make_env(world)

            def matches(row: tuple) -> bool:
                return _where_holds(statement.where, env.make_context(row))

            counts.append(relation.delete_where(matches))
            new_worlds.append(world.with_relation(statement.table, relation))
        self.world_set = WorldSet(new_worlds)
        return _dml_result("deleted", counts)

    # -- EXPLAIN ----------------------------------------------------------------------------------------------

    def _execute_explain(self, statement: ExplainStatement) -> StatementResult:
        target = statement.statement
        if isinstance(target, CreateTableAs):
            target = target.query
        if not isinstance(target, (SelectQuery, CompoundQuery)):
            raise UnsupportedFeatureError("EXPLAIN only supports queries")
        _, resolved_from = self._executor()._resolve_from(
            target.from_clause if isinstance(target, SelectQuery) else [],
            self.world_set)
        text = Planner().plan_query(target, resolved_from).explain()
        return StatementResult(kind="command", message=text)


class WsdBackend(ExecutionBackend):
    """WSD-native evaluation over a world-set decomposition.

    The session state is a single :class:`WorldSetDecomposition` whose
    template holds every relation (complete relations as constant tuples) and
    whose components carry all the uncertainty.  Queries never materialise
    worlds on the supported classes; see :mod:`repro.wsd.execute` for the
    strategy split and :attr:`stats` for the per-strategy counters.
    """

    name = "wsd"

    def __init__(self, catalog: Catalog | dict[str, Relation] | None = None,
                 budgets: ResourceBudgets | dict | None = None,
                 degradation: str = "strict",
                 anytime: AnytimeBudget | None = None) -> None:
        template = Template()
        if catalog is not None:
            if isinstance(catalog, dict):
                catalog = Catalog(catalog)
            for name in catalog.names():
                add_certain_relation(template, catalog.get(name), name)
        self.decomposition = WorldSetDecomposition(template, [])
        self.views = {}
        self.primary_keys = {}
        #: The per-engine guard bundle every executor reads.
        self.budgets = ResourceBudgets.coerce(budgets)
        if degradation not in ("strict", "anytime"):
            raise AnalysisError(
                f"unknown degradation mode {degradation!r} "
                "(expected 'strict' or 'anytime')")
        #: ``"strict"`` raises structured
        #: :class:`~repro.errors.ResourceBudgetError` refusals when every
        #: exact tier is over budget; ``"anytime"`` degrades those shapes to
        #: the Monte-Carlo sampling tier (answers then carry ``approximate``
        #: metadata).  Per-request options can override either way.
        self.degradation = degradation
        #: The session-level anytime sampling budget (per-request options
        #: refine it via :meth:`QueryOptions.resolve_budget`).
        self.anytime = anytime if anytime is not None else AnytimeBudget()
        #: Accumulated per-strategy counters across all executed statements
        #: (symbolic / aggregate / grouping / setops / component_joint
        #: tiers, the aggregate_fallbacks and group_fallbacks escapes to the
        #: guarded per-joint path, and the grounding-cache hit / miss /
        #: eviction accounting).
        self.stats = WsdExecutionStats()
        #: Accumulated confidence-computation counters (closed forms, d-tree
        #: rule firings, memo hits and — crucially for CI — enumeration
        #: fallbacks) across all executed statements.
        self.confidence_stats = ConfidenceStats()
        #: Accumulated decomposed-aggregate counters (queries, clusters,
        #: convolutions, peak state count) across all executed statements.
        self.aggregate_stats = AggregateStats()
        #: Memoised symbolic groundings of the current decomposition shared
        #: across statements, keyed on (relation version, relation name);
        #: see :meth:`repro.wsd.execute.WSDExecutor._ground`.  The dict is read
        #: and written by every serving thread, so executors guard all
        #: access with :attr:`_ground_lock` — same one-mutex-per-shared-
        #: structure discipline as :attr:`_stats_lock` and the shared plan
        #: cache's internal mutex.
        self._ground_cache: dict = {}
        self._ground_lock = threading.Lock()
        #: Serialises stats merging: concurrent prepared reads finish in any
        #: order and their counters accumulate under this mutex (the answers
        #: themselves are protected by the session's read/write lock).
        self._stats_lock = threading.Lock()

    # -- programmatic catalog management ------------------------------------------------------

    def create_table(self, name: str, columns: Sequence[str | Column],
                     rows: Iterable[Sequence[Any]] = (),
                     primary_key: Sequence[str] | None = None) -> None:
        relation = Relation(Schema(list(columns)), rows, name=name)
        self.register_relation(relation, name)
        if primary_key:
            self.primary_keys[name.lower()] = list(primary_key)

    def register_relation(self, relation: Relation,
                          name: str | None = None) -> None:
        table_name = name or relation.name
        if not table_name:
            raise AnalysisError("register_relation requires a name")
        if self._has_relation(table_name):
            raise DuplicateRelationError(table_name)
        add_certain_relation(self.decomposition.template, relation, table_name)
        self.decomposition.renew_versions()

    def insert(self, table: str, rows: Iterable[Sequence[Any]]) -> int:
        rows = [tuple(row) for row in rows]
        return self._insert_rows(table, rows)

    def relation(self, name: str, world_label: str | None = None) -> Relation:
        """Materialise a complete relation from the template.

        Unlike the explicit backend, the returned relation is a *snapshot*
        built from the template's constant tuples, not live storage —
        mutating it does not change the session; use ``insert`` / DML.
        """
        if world_label is not None:
            raise UnsupportedFeatureError(
                "the wsd backend has no labelled worlds; "
                "query the decomposition instead")
        canonical = self._canonical_name(name)
        if not self._is_certain(canonical):
            raise UnsupportedFeatureError(
                f"relation {name!r} is uncertain on the wsd backend; "
                "query it (possible / certain / conf) instead of reading it")
        return self._materialise_certain(canonical)

    def world_count(self) -> int:
        return self.decomposition.world_count()

    def table_names(self) -> list[str]:
        return sorted(self.decomposition.template.schemas)

    def describe(self, relation_names: Iterable[str] | None = None,
                 max_rows: int | None = None) -> str:
        template = self.decomposition.template
        names = (list(relation_names) if relation_names is not None
                 else sorted(template.schemas))
        lines = [repr(self.decomposition)]
        for name in names:
            canonical = self._canonical_name(name)
            tuples = template.relation_tuples(canonical)
            certainty = ("complete" if self._is_certain(canonical)
                         else "uncertain")
            lines.append(f"-- {canonical} ({certainty}, "
                         f"{len(tuples)} template tuple(s))")
        return "\n".join(lines)

    # -- statement execution --------------------------------------------------------------------

    def execute_statement(self, statement: Statement,
                          options: QueryOptions | None = None
                          ) -> StatementResult:
        options = QueryOptions.coerce(options)
        self._bind(statement)
        if isinstance(statement, (SelectQuery, CompoundQuery)):
            return self._execute_query(statement, options)
        if isinstance(statement, CreateTableAs):
            return self._execute_create_table_as(statement, options)
        if isinstance(statement, CreateView):
            return self._execute_create_view(statement)
        if isinstance(statement, CreateTable):
            columns = [Column(definition.name,
                              SqlType.from_name(definition.type_name))
                       for definition in statement.columns]
            self.create_table(statement.name, columns,
                              primary_key=statement.primary_key or None)
            return StatementResult(kind="command",
                                   message=f"created table {statement.name}")
        if isinstance(statement, DropTable):
            return self._execute_drop_table(statement.name,
                                            statement.if_exists)
        if isinstance(statement, DropView):
            return self._execute_drop_view(statement.name,
                                           statement.if_exists)
        if isinstance(statement, Insert):
            return self._execute_insert(statement)
        if isinstance(statement, Update):
            return self._execute_update(statement)
        if isinstance(statement, Delete):
            return self._execute_delete(statement)
        if isinstance(statement, ExplainStatement):
            raise UnsupportedFeatureError(
                "EXPLAIN is not supported on the wsd backend")
        raise UnsupportedFeatureError(
            f"statement type {type(statement).__name__} is not supported")

    def _declared_schemas(self) -> dict[str, Schema]:
        return {name.lower(): schema for name, schema
                in self.decomposition.template.schemas.items()}

    # -- queries -------------------------------------------------------------------------------------

    def _executor(self, options: QueryOptions | None = None) -> WSDExecutor:
        options = QueryOptions.coerce(options)
        return WSDExecutor(self.decomposition, self.views,
                           ground_cache=self._ground_cache,
                           ground_lock=self._ground_lock,
                           budgets=self.budgets,
                           degradation=options.resolve_degradation(
                               self.degradation),
                           anytime=options.resolve_budget(self.anytime))

    def _merge_stats(self, executor: WSDExecutor) -> None:
        with self._stats_lock:
            _merge_counters(self.stats, executor.stats)
            _merge_counters(self.confidence_stats, executor.confidence_stats)
            _merge_counters(self.aggregate_stats, executor.aggregate_stats)

    def _execute_query(self, query: Query,
                       options: QueryOptions | None = None
                       ) -> StatementResult:
        executor = self._executor(options)
        try:
            result = executor.evaluate_query(query)
        finally:
            self._merge_stats(executor)
        approximation = executor.approximation_summary()
        approximate = approximation is not None
        if result.kind == "rows":
            return StatementResult(kind="rows", relation=result.relation,
                                   approximate=approximate,
                                   approximation=approximation)
        if result.kind == "wsd":
            return StatementResult(kind="wsd_rows",
                                   decomposition=result.decomposition,
                                   relation_name=result.relation_name,
                                   approximate=approximate,
                                   approximation=approximation)
        answers = [WorldAnswer(None, mass, relation)
                   for mass, relation in result.distribution]
        return StatementResult(kind="world_rows", world_answers=answers,
                               approximate=approximate,
                               approximation=approximation)

    def _execute_create_table_as(self, statement: CreateTableAs,
                                 options: QueryOptions | None = None
                                 ) -> StatementResult:
        # CREATE TABLE AS replaces an existing relation of the same name,
        # mirroring the explicit backend's materialisation semantics.
        # Install paths never sample (see _iter_query_joints), so the
        # options only arm confidence-side degradation and the deadline.
        executor = self._executor(options)
        try:
            self.decomposition = executor.evaluate_for_install(
                statement.name, statement.query, Schema(statement.columns))
        finally:
            self._merge_stats(executor)
        return StatementResult(
            kind="command",
            message=(f"created table {statement.name} "
                     f"({self.decomposition!r})"))

    # -- DDL / DML ------------------------------------------------------------------------------------

    def _execute_drop_table(self, name: str,
                            if_exists: bool) -> StatementResult:
        if not self._has_relation(name):
            if if_exists:
                return StatementResult(kind="command",
                                       message="nothing to drop")
            raise UnknownRelationError(name)
        canonical = self._canonical_name(name)
        template = self.decomposition.template
        new_template = Template(
            {key: value for key, value in template.schemas.items()
             if key != canonical},
            [t for t in template.tuples if t.relation != canonical])
        self.decomposition = prune_and_normalize(
            new_template, self.decomposition.components)
        self.primary_keys.pop(name.lower(), None)
        return StatementResult(kind="command", message=f"dropped table {name}")

    def _execute_insert(self, statement: Insert) -> StatementResult:
        if statement.query is not None:
            outcome = self._execute_query(statement.query)
            if outcome.kind == "rows":
                rows = list(outcome.relation.rows)
            elif outcome.kind == "wsd_rows":
                answer = outcome.decomposition
                tuples = answer.template.relation_tuples(outcome.relation_name)
                if any(t.fields() for t in tuples):
                    raise UnsupportedFeatureError(
                        "INSERT ... SELECT with world-dependent answers "
                        "is not supported")
                rows = [t.cells for t in tuples]
            elif outcome.kind == "world_rows" and outcome.world_answers:
                # Accept the insert when every world produced the same
                # answer, mirroring the explicit backend: a distribution
                # carries one entry per distinct answer, so exactly one
                # fingerprint means a world-independent answer.
                distinct = {answer.relation.fingerprint()
                            for answer in outcome.world_answers}
                if len(distinct) != 1:
                    raise UnsupportedFeatureError(
                        "INSERT ... SELECT with world-dependent answers "
                        "is not supported")
                rows = list(outcome.world_answers[0].relation.rows)
            else:
                raise UnsupportedFeatureError(
                    "INSERT ... SELECT with world-dependent answers "
                    "is not supported")
        else:
            context = EvalContext(row=())
            rows = [tuple(expression.evaluate(context) for expression in row)
                    for row in statement.rows]
        canonical = self._canonical_name(statement.table)
        schema = self.decomposition.template.schemas[canonical]
        rows = [_reorder_row(schema, row, statement.columns) for row in rows]
        count = self._insert_rows(statement.table, rows)
        return StatementResult(
            kind="command",
            message=f"inserted {count} row(s) into {statement.table}",
            rowcount=count)

    def _insert_rows(self, table: str, rows: list[tuple]) -> int:
        canonical = self._canonical_name(table)
        schema = self.decomposition.template.schemas[canonical]
        # Route the rows through a Relation so declared column types coerce
        # (and mismatches raise) exactly as on the explicit backend.
        rows = list(Relation(schema, rows).rows)
        key = self.primary_keys.get(table.lower())
        if key is not None:
            if not self._is_certain(canonical):
                raise UnsupportedFeatureError(
                    "key-checked inserts into an uncertain relation are not "
                    "supported on the wsd backend")
            candidate = self._materialise_certain(canonical)
            for row in rows:
                candidate.insert(row)
            if not check_key(candidate, key):
                raise ConstraintViolationError(
                    f"insert into {table} violates the key "
                    f"({', '.join(key)}); update discarded in all worlds")
        template = self.decomposition.template
        for row in rows:
            template.add_tuple(canonical, row)
        # Constant rows add no field and touch no component, so only this
        # relation's grounding changes.
        self.decomposition.bump_version(canonical)
        return len(rows)

    def _execute_update(self, statement: Update) -> StatementResult:
        canonical = self._require_certain_for_dml(statement.table, "UPDATE")
        expressions = [assignment.expression
                       for assignment in statement.assignments]
        if statement.where is not None:
            expressions.append(statement.where)
        if any(contains_subquery(expression) for expression in expressions):
            raise UnsupportedFeatureError(
                "UPDATE with subqueries is not supported on the wsd backend")
        relation = self._materialise_certain(canonical)
        total = 0
        new_rows = []
        for row in relation.rows:
            context = EvalContext(row=row)
            if _where_holds(statement.where, context):
                values = list(row)
                for assignment in statement.assignments:
                    index = relation.schema.index_of(assignment.column)
                    values[index] = assignment.expression.evaluate(context)
                new_rows.append(tuple(values))
                total += 1
            else:
                new_rows.append(row)
        updated = Relation(relation.schema, new_rows, name=canonical)
        key = self.primary_keys.get(statement.table.lower())
        if key is not None and not check_key(updated, key):
            raise ConstraintViolationError(
                f"update of {statement.table} violates the key; "
                "update discarded in all worlds")
        self._replace_certain_rows(canonical, updated.rows)
        return StatementResult(kind="command",
                               message=f"updated {total} row(s)",
                               rowcount=total)

    def _execute_delete(self, statement: Delete) -> StatementResult:
        canonical = self._require_certain_for_dml(statement.table, "DELETE")
        if statement.where is not None and contains_subquery(statement.where):
            raise UnsupportedFeatureError(
                "DELETE with subqueries is not supported on the wsd backend")
        relation = self._materialise_certain(canonical)
        kept = []
        total = 0
        for row in relation.rows:
            if _where_holds(statement.where, EvalContext(row=row)):
                total += 1
            else:
                kept.append(row)
        self._replace_certain_rows(canonical, kept)
        return StatementResult(kind="command",
                               message=f"deleted {total} row(s)",
                               rowcount=total)

    # -- template bookkeeping ---------------------------------------------------------------------

    def _has_relation(self, name: str) -> bool:
        return any(existing.lower() == name.lower()
                   for existing in self.decomposition.template.schemas)

    def _canonical_name(self, name: str) -> str:
        return canonical_relation_name(self.decomposition.template, name)

    def _is_certain(self, name: str) -> bool:
        return relation_is_certain(self.decomposition.template, name)

    def _materialise_certain(self, name: str) -> Relation:
        return materialise_certain(self.decomposition.template, name)

    def _require_certain_for_dml(self, table: str, verb: str) -> str:
        canonical = self._canonical_name(table)
        if not self._is_certain(canonical):
            raise UnsupportedFeatureError(
                f"{verb} on an uncertain relation is not supported on the "
                "wsd backend; re-derive it with CREATE TABLE ... AS instead")
        return canonical

    def _replace_certain_rows(self, name: str, rows: list[tuple]) -> None:
        """Swap the certain relation *name*'s rows in place (UPDATE /
        DELETE): no component changes, so only its version is renewed."""
        self.decomposition.template.replace_constant_tuples(name, rows)
        self.decomposition.bump_version(name)
