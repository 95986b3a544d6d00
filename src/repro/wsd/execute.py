"""WSD-native query execution: I-SQL directly on world-set decompositions.

This module is the processing counterpart of the storage argument: where the
explicit backend (:mod:`repro.core.executor`) evaluates every query once per
possible world, the :class:`WSDExecutor` evaluates ``select`` / ``where`` /
projection / ``possible`` / ``certain`` / ``conf`` and template-level
``assert`` *directly on the decomposition* — template tuples and components —
and therefore scales with the size of the representation, not with the number
of represented worlds.

Three evaluation strategies, ordered from cheapest to most expensive:

1. **Symbolic** — selection, projection and products without aggregates or
   subqueries.  Every template tuple is *grounded* into one concrete tuple
   per distinct local alternative combination, annotated with a
   :class:`Condition` (a conjunction of per-component alternative
   restrictions).  Predicates are pushed down onto the ground tuples, so the
   work is linear in the number of (tuple, local alternative) pairs — the
   decomposition's storage size — regardless of the world count.
   ``possible`` / ``certain`` / ``conf`` then reduce to satisfiability,
   coverage and probability of disjunctions of conditions, touching only the
   components a result row actually depends on.

2. **Component-joint** — aggregates, subqueries, GROUP BY / HAVING and
   ORDER BY / LIMIT genuinely need per-world answers.  Instead of
   materialising worlds, only the components touching the *referenced
   relations* are enumerated jointly (guarded by the enumeration limit);
   each joint alternative instantiates just those relations and runs the
   plain per-world plan.  Components the query does not mention are never
   enumerated.

3. **World grouping / set operations** — ``group worlds by`` partitions
   worlds by the answer of a subquery; the native engine
   (:mod:`repro.wsd.grouping`) compiles the grouping expression to
   aggregate-style contributions over (component, alternative-set) atoms
   and reads group masses and conditioned per-group answers off one
   decomposed convolution.  UNION / INTERSECT / EXCEPT
   (:mod:`repro.wsd.setops`) combine condition-annotated entries directly
   (presence-condition disjunction / conjunction / and-not, bag and set
   semantics).  Shapes neither engine covers drop to a *guarded*
   component-joint grouping — still decomposition-local, still counted:
   :attr:`WsdExecutionStats.group_fallbacks` tracks every such escape.

4. **Fallback** — only FROM clauses that multiply worlds data-dependently
   (repairing an uncertain relation) still decompose to the explicit
   backend via guarded materialisation, flagged in
   :attr:`WsdExecutionStats.fallback`; no statement *shape* routes through
   explicit enumeration any more.

After ``assert`` conditioning the derived decomposition is re-normalised
(:func:`repro.wsd.normalize.normalize`) so it stays maximally factorised.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import product
from typing import Any, Callable, Iterable, Optional, Sequence

from ..errors import (
    AnalysisError,
    DecompositionError,
    EnumerationLimitError,
    ExpressionError,
    UnknownColumnError,
    UnknownRelationError,
    UnsupportedFeatureError,
    WorldSetError,
)
from ..relational.catalog import Catalog
from ..relational.expressions import (
    EvalContext,
    ExistsSubquery,
    Expression,
    InSubquery,
    QuantifiedComparison,
    ScalarSubquery,
    Star,
    contains_aggregate,
)
from ..relational.relation import Relation
from ..relational.schema import Column, Schema
from ..sqlparser.ast_nodes import (
    CompoundQuery,
    DerivedTableRef,
    NamedTableRef,
    Query,
    SelectItem,
    SelectQuery,
    TableRef,
)
from ..worldset.world import World
from .aggregate import (
    AggregateBudgetExceededError,
    AggregatePlan,
    AggregateStats,
    Contribution,
    DecomposedAggregator,
    EvalSlots,
    analyse_aggregate_query,
    plan_contributions,
    _ExistsSpec,
)
from .approximate import (
    AnytimeBudget,
    AnytimeSampler,
    ApproximateConfidence,
    wilson_interval,
)
from .budgets import ResourceBudgets
from .component import Alternative, Component
from .confidence import (
    ConfidenceStats,
    DTreeBudgetExceededError,
    DTreeEngine,
    connected_groups,
)
from .construct import from_choice_of, from_key_repair
from .decomposition import (
    Template,
    TemplateTuple,
    WorldSetDecomposition,
    ensure_enumerable,
)
from .fields import EXISTS_ATTRIBUTE, Field
from .grouping import (
    GroupingUnsupportedError,
    evaluate_group_worlds,
)
from .columnar import compile_predicate, compile_projection
from .normalize import normalize
from .plan_cache import GLOBAL_PLAN_CACHE, SharedPlanCache
from .setops import SetOpBudgetExceededError, evaluate_compound_entries

__all__ = [
    "AggregateStats",
    "Condition",
    "ConfidenceStats",
    "SymTuple",
    "SymbolicRelation",
    "WsdExecutionStats",
    "WSDQueryResult",
    "WSDExecutor",
    "canonical_relation_name",
    "contains_subquery",
    "materialise_certain",
    "prune_and_normalize",
    "relation_is_certain",
]

#: Prefix of relations the executor materialises transiently inside the
#: working decomposition (repairs, choices, views, derived tables).  Matches
#: the explicit executor's convention so session-level cleanup is uniform.
TRANSIENT_PREFIX = "#tmp"


class _FallbackNeeded(Exception):
    """Internal: the query shape needs the explicit (materialising) backend."""


# -- conditions -------------------------------------------------------------------------


class Condition:
    """A conjunction of per-component alternative restrictions.

    ``atoms`` maps (by position) a component index to the set of alternative
    indexes under which the condition holds.  An empty atom tuple is the
    always-true condition; atoms whose allowed set equals the whole component
    are never stored.  Conjunction intersects allowed sets; an empty
    intersection means the condition is unsatisfiable and the carrying tuple
    is dropped.

    Conditions are hot: join loops ``conjoin`` them per produced row and the
    confidence engine hashes them as DNF clauses, so the class is slotted and
    caches its hash and component-id tuple.  Treat instances as immutable.
    """

    __slots__ = ("atoms", "_hash", "_ids")

    def __init__(self,
                 atoms: tuple[tuple[int, frozenset[int]], ...] = ()) -> None:
        self.atoms = atoms
        self._hash: int | None = None
        self._ids: tuple[int, ...] | None = None

    def is_true(self) -> bool:
        """True for the unconditional (every-world) condition."""
        return not self.atoms

    def component_ids(self) -> tuple[int, ...]:
        """The indexes of the components this condition restricts (cached)."""
        ids = self._ids
        if ids is None:
            ids = tuple(index for index, _ in self.atoms)
            self._ids = ids
        return ids

    def conjoin(self, other: "Condition") -> Optional["Condition"]:
        """The conjunction of two conditions, or None when unsatisfiable."""
        if self.is_true():
            return other
        if other.is_true():
            return self
        allowed: dict[int, frozenset[int]] = dict(self.atoms)
        for index, indexes in other.atoms:
            if index in allowed:
                merged = allowed[index] & indexes
                if not merged:
                    return None
                allowed[index] = merged
            else:
                allowed[index] = indexes
        return Condition(tuple(sorted(allowed.items(), key=lambda kv: kv[0])))

    def holds(self, choice: dict[int, int]) -> bool:
        """True when the joint alternative *choice* satisfies the condition."""
        return all(choice[index] in indexes for index, indexes in self.atoms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Condition):
            return NotImplemented
        return self.atoms == other.atoms

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash(self.atoms)
            self._hash = cached
        return cached

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Condition({self.atoms!r})"


TRUE_CONDITION = Condition()


@dataclass(slots=True)
class SymTuple:
    """A ground tuple annotated with the condition under which it exists."""

    row: tuple
    condition: Condition


@dataclass(slots=True)
class SymbolicRelation:
    """A relation of condition-annotated ground tuples (one FROM source)."""

    schema: Schema
    tuples: list[SymTuple]


# -- results and accounting ---------------------------------------------------------------


@dataclass
class WsdExecutionStats:
    """How many queries each strategy answered (fallbacks are flagged here).

    ``aggregate`` counts queries answered by the decomposed (convolution)
    aggregate engine; ``aggregate_fallbacks`` counts aggregate-shaped queries
    whose state space exceeded the engine's budget and dropped to the guarded
    component-joint enumeration — CI asserts this stays zero on factorising
    workloads.  ``grouping`` counts ``group worlds by`` queries answered by
    the native grouping engine and ``setops`` compound queries combined
    natively; ``group_fallbacks`` counts the grouping / compound shapes the
    native engines could not answer (budget overruns, ORDER BY / LIMIT
    compounds, non-compilable grouping mains) that escaped to the guarded
    component-joint grouping — CI asserts this stays zero on the supported
    classes.  ``ground_cache_hits`` / ``ground_cache_misses`` account the
    memoised symbolic grounding (per relation, keyed on the relation's
    version) and ``ground_cache_evictions`` the superseded base groundings
    a miss dropped from the shared cache.  ``approximate_answers`` counts
    statements whose answer involved the anytime Monte-Carlo tier (once per
    executor, i.e. per statement) and ``sample_counts`` the total samples
    those estimates drew.
    ``columnar_batches`` counts filter / projection / join-key batches the
    columnar engine (:mod:`repro.wsd.columnar`) evaluated as parallel
    column arrays; ``rowwise_fallbacks`` counts batches that kept (or were
    rescued to) the per-:class:`SymTuple` interpreted loop because an
    expression shape was unsupported or a batch raised — CI asserts the
    fallback count stays zero on the SCALE-1 smoke sweep.
    """

    symbolic: int = 0
    aggregate: int = 0
    grouping: int = 0
    setops: int = 0
    component_joint: int = 0
    fallback: int = 0
    aggregate_fallbacks: int = 0
    group_fallbacks: int = 0
    ground_cache_hits: int = 0
    ground_cache_misses: int = 0
    ground_cache_evictions: int = 0
    approximate_answers: int = 0
    sample_counts: int = 0
    columnar_batches: int = 0
    rowwise_fallbacks: int = 0

    def merge(self, other: "WsdExecutionStats") -> None:
        """Accumulate *other* into this counter set."""
        self.symbolic += other.symbolic
        self.aggregate += other.aggregate
        self.grouping += other.grouping
        self.setops += other.setops
        self.component_joint += other.component_joint
        self.fallback += other.fallback
        self.aggregate_fallbacks += other.aggregate_fallbacks
        self.group_fallbacks += other.group_fallbacks
        self.ground_cache_hits += other.ground_cache_hits
        self.ground_cache_misses += other.ground_cache_misses
        self.ground_cache_evictions += other.ground_cache_evictions
        self.approximate_answers += other.approximate_answers
        self.sample_counts += other.sample_counts
        self.columnar_batches += other.columnar_batches
        self.rowwise_fallbacks += other.rowwise_fallbacks


@dataclass
class WSDQueryResult:
    """Outcome of a WSD-native query evaluation.

    ``kind`` is one of

    * ``"rows"`` — a single collected relation (possible / certain / conf);
    * ``"wsd"`` — a compact answer: ``decomposition`` holds a derived WSD
      containing the single relation ``relation_name``;
    * ``"distribution"`` — per-answer probability masses: a list of
      ``(mass, relation)`` pairs, masses summing to one — produced by plain
      aggregate queries (the distribution over whole answers) and by
      ``group worlds by`` (one pair per world group, the group's collected
      answer under its probability mass);
    * ``"explicit"`` — the query fell back to guarded materialisation;
      ``explicit`` holds the explicit backend's result object.
    """

    kind: str
    relation: Optional[Relation] = None
    decomposition: Optional[WorldSetDecomposition] = None
    relation_name: Optional[str] = None
    distribution: Optional[list[tuple[float | None, Relation]]] = None
    explicit: Any = None


# -- helpers over expression / query trees -------------------------------------------------

_SUBQUERY_NODES = (ScalarSubquery, InSubquery, ExistsSubquery,
                   QuantifiedComparison)


def contains_subquery(expression: Expression) -> bool:
    if isinstance(expression, _SUBQUERY_NODES):
        return True
    return any(contains_subquery(child) for child in expression.children())


def _expression_queries(expression: Expression) -> list[Query]:
    """The subquery ASTs nested anywhere inside *expression*."""
    queries: list[Query] = []
    if isinstance(expression, _SUBQUERY_NODES):
        queries.append(expression.query)
    for child in expression.children():
        queries.extend(_expression_queries(child))
    return queries


def _query_expressions(query: SelectQuery) -> list[Expression]:
    expressions = [item.expression for item in query.select_items]
    if query.where is not None:
        expressions.append(query.where)
    expressions.extend(query.group_by)
    if query.having is not None:
        expressions.append(query.having)
    expressions.extend(item.expression for item in query.order_by)
    return expressions


def _referenced_relation_names(node: Query | Expression) -> list[str]:
    """Every relation name referenced by *node*, including nested subqueries."""
    names: list[str] = []

    def visit_query(query: Query) -> None:
        if isinstance(query, CompoundQuery):
            visit_query(query.left)
            visit_query(query.right)
            return
        if not isinstance(query, SelectQuery):
            return
        for ref in query.from_clause:
            if isinstance(ref, NamedTableRef):
                names.append(ref.name)
            elif isinstance(ref, DerivedTableRef):
                visit_query(ref.query)
        for expression in _query_expressions(query):
            visit_expression(expression)
        if query.assert_condition is not None:
            visit_expression(query.assert_condition)

    def visit_expression(expression: Expression) -> None:
        for query in _expression_queries(expression):
            visit_query(query)

    if isinstance(node, (SelectQuery, CompoundQuery)):
        visit_query(node)
    else:
        visit_expression(node)
    ordered: list[str] = []
    seen: set[str] = set()
    for name in names:
        if name.lower() not in seen:
            seen.add(name.lower())
            ordered.append(name)
    return ordered


# -- the executor --------------------------------------------------------------------------


class WSDExecutor:
    """Evaluates I-SQL queries directly on a :class:`WorldSetDecomposition`."""

    def __init__(self, decomposition: WorldSetDecomposition,
                 views: dict[str, Query] | None = None,
                 ground_cache: dict | None = None,
                 ground_lock: "threading.Lock | None" = None,
                 plan_cache: SharedPlanCache | None = None,
                 budgets: ResourceBudgets | None = None,
                 degradation: str = "strict",
                 anytime: AnytimeBudget | None = None,
                 columnar: bool = True) -> None:
        if degradation not in ("strict", "anytime"):
            raise AnalysisError(
                f"unknown degradation mode {degradation!r} "
                "(expected 'strict' or 'anytime')")
        self.base = decomposition
        self.views: dict[str, Query] = {}
        if views:
            for name, query in views.items():
                self.views[name.lower()] = query
        #: The per-engine guard values (defaults when no bundle is passed).
        self.budgets = budgets if budgets is not None else ResourceBudgets()
        self.limit = self.budgets.enumeration_limit
        #: ``"strict"`` raises :class:`~repro.errors.ResourceBudgetError`
        #: when every exact tier is over budget; ``"anytime"`` degrades to
        #: the Monte-Carlo sampling tier instead, recording the accuracy
        #: contract in :attr:`approximations`.
        self.degradation = degradation
        #: What the anytime tier may spend (samples, target ε, deadline).
        self.anytime = anytime if anytime is not None else AnytimeBudget()
        #: Every :class:`ApproximateConfidence` this executor produced, in
        #: answer order; non-empty marks the statement's result approximate.
        self.approximations: list[ApproximateConfidence] = []
        self.stats = WsdExecutionStats()
        self.confidence_stats = ConfidenceStats()
        self.aggregate_stats = AggregateStats()
        self._engines: dict[int, tuple[WorldSetDecomposition, DTreeEngine]] = {}
        self._samplers: dict[int, tuple[WorldSetDecomposition,
                                        AnytimeSampler]] = {}
        #: Memoised groundings of the base decomposition keyed on (relation
        #: version, relation name); shareable across executors via the
        #: constructor so repeated queries over unchanged tables skip
        #: re-grounding.  When a backend shares the dict across serving
        #: threads it passes the lock that guards it; a private cache needs
        #: no lock.  See :meth:`_ground`.
        self._ground_cache: dict = (ground_cache if ground_cache is not None
                                    else {})
        self._ground_lock = (ground_lock if ground_lock is not None
                             else threading.Lock())
        #: Groundings of this statement's working copies, same keys.
        self._working_groundings: dict = {}
        #: Compiled aggregate/grouping shape analyses, served from the
        #: process-wide :data:`~repro.wsd.plan_cache.GLOBAL_PLAN_CACHE`
        #: unless the caller passes its own cache.  Plans are immutable pure
        #: functions of the AST — evaluation state travels in per-execution
        #: :class:`~repro.wsd.aggregate.EvalSlots` — so one compiled plan
        #: serves every thread and every generation.
        self._plan_cache: SharedPlanCache = (
            plan_cache if plan_cache is not None else GLOBAL_PLAN_CACHE)
        #: Whether ``_filter`` / ``_project`` / ``_hash_join`` evaluate
        #: expressions over columnar batches (:mod:`repro.wsd.columnar`);
        #: benchmarks flip this off to measure the row-at-a-time baseline.
        self.columnar = columnar
        self._transient_counter = 0

    def aggregate_plan(self, query: SelectQuery) -> Optional[AggregatePlan]:
        """Shape-analyse *query*, memoised on the shared plan cache."""
        return self._plan_cache.plan_for(query)

    # -- public API ---------------------------------------------------------------------

    def evaluate_query(self, query: Query) -> WSDQueryResult:
        """Evaluate *query* against the base decomposition (left untouched)."""
        if isinstance(query, CompoundQuery):
            return self._evaluate_compound(query)
        if not isinstance(query, SelectQuery):
            raise AnalysisError(
                f"cannot evaluate a {type(query).__name__} as a query")
        try:
            working, items = self._resolve_from(self.base, query.from_clause)
            if query.assert_condition is not None:
                working = self._apply_assert(working, query.assert_condition)
            if query.group_worlds_by is not None:
                return self._evaluate_group_worlds(working, query, items)
            return self._evaluate_world_query(working, query, items)
        except _FallbackNeeded:
            return self._fallback(query)

    def _evaluate_world_query(self, working: WorldSetDecomposition,
                              query: SelectQuery,
                              items: list[tuple[str, str]]) -> WSDQueryResult:
        """Strategy dispatch after FROM resolution and ``assert``: symbolic
        first, then the decomposed aggregate engine, then the guarded
        component-joint enumeration."""
        if not self._needs_component_joint(query):
            return self._evaluate_symbolic(working, query, items)
        result = self._maybe_decomposed_aggregate(working, query, items)
        if result is not None:
            return result
        return self._evaluate_component_joint(working, query, items)

    def evaluate_for_install(self, name: str,
                             query: Query) -> WorldSetDecomposition:
        """Evaluate ``CREATE TABLE name AS query``: the new session state.

        The returned decomposition holds every previous relation (transients
        dropped), plus *name* bound to the query answer, re-normalised.
        """
        if isinstance(query, CompoundQuery):
            try:
                working, schema, entries = self._compound_source_entries(
                    self.base, query)
            except _FallbackNeeded as exc:
                raise UnsupportedFeatureError(
                    "this compound query requires world materialisation, "
                    "which CREATE TABLE AS does not support on the wsd "
                    "backend") from exc
            return self._install_entries(working, name, schema, entries,
                                         keep="session")
        if not isinstance(query, SelectQuery):
            raise UnsupportedFeatureError(
                "CREATE TABLE AS on the wsd backend requires a SELECT "
                "or compound query")
        try:
            working, items = self._resolve_from(self.base, query.from_clause)
        except _FallbackNeeded as exc:
            raise UnsupportedFeatureError(
                "this FROM clause requires world materialisation, which "
                "CREATE TABLE AS does not support on the wsd backend") from exc
        if query.assert_condition is not None:
            working = self._apply_assert(working, query.assert_condition)
        if query.group_worlds_by is not None:
            # Install the per-world group answers (each world receives its
            # group's collected relation, mirroring the explicit backend).
            # The install needs explicit group *events* as conditions, which
            # only the guarded component-joint grouping produces.
            self._require_plain_worldlocal(query.group_worlds_by.query,
                                           "a nested query")
            schema, entries = self._group_worlds_entries(working, query, items)
            return self._install_entries(working, name, schema, entries,
                                         keep="session")
        if query.conf or query.quantifier is not None:
            stripped = _strip_world_clauses(query, keep_collection=True)
            result = self._evaluate_world_query(working, stripped, items)
            assert result.kind == "rows" and result.relation is not None
            entries = [(row, [TRUE_CONDITION]) for row in result.relation.rows]
            return self._install_entries(working, name, result.relation.schema,
                                         entries, keep="session")
        if self._needs_component_joint(query):
            schema, entries = self._component_joint_entries(working, query, items)
        else:
            schema, entries = self._symbolic_entries(working, query, items)
        return self._install_entries(working, name, schema, entries,
                                     keep="session")

    # -- FROM resolution ------------------------------------------------------------------

    def _new_transient_name(self) -> str:
        self._transient_counter += 1
        return f"{TRANSIENT_PREFIX}w{self._transient_counter}"

    def _resolve_from(self, working: WorldSetDecomposition,
                      from_clause: Sequence[TableRef]
                      ) -> tuple[WorldSetDecomposition, list[tuple[str, str]]]:
        items: list[tuple[str, str]] = []
        for ref in from_clause:
            working, item = self._resolve_table_ref(working, ref)
            items.append(item)
        return working, items

    def _resolve_table_ref(self, working: WorldSetDecomposition, ref: TableRef
                           ) -> tuple[WorldSetDecomposition, tuple[str, str]]:
        if isinstance(ref, DerivedTableRef):
            return self._resolve_query_source(working, ref.query, ref.alias,
                                              ref.repair, ref.choice)
        if not isinstance(ref, NamedTableRef):
            raise AnalysisError(f"unknown FROM item {ref!r}")
        alias = ref.effective_alias()
        view_query = self.views.get(ref.name.lower())
        if view_query is not None:
            return self._resolve_query_source(working, view_query, alias,
                                              ref.repair, ref.choice)
        name = self._canonical_name(working, ref.name)
        if ref.repair is None and ref.choice is None:
            return working, (name, alias)
        if not self._relation_is_certain(working, name):
            # Repairing / partitioning an uncertain relation multiplies
            # worlds in a data-dependent way; decompose-then-enumerate.
            raise _FallbackNeeded
        relation = self._materialise_certain(working, name)
        return self._apply_decorations(working, relation, ref.repair,
                                       ref.choice, alias)

    def _resolve_query_source(self, working: WorldSetDecomposition,
                              query: Query, alias: str, repair, choice
                              ) -> tuple[WorldSetDecomposition, tuple[str, str]]:
        """Resolve a view or derived table into a transient relation."""
        if isinstance(query, CompoundQuery):
            working, schema, entries = self._compound_source_entries(working,
                                                                     query)
        else:
            self._require_symbolic_plain(query)
            assert isinstance(query, SelectQuery)
            working, items = self._resolve_from(working, query.from_clause)
            schema, entries = self._symbolic_entries(working, query, items)
        if repair is not None or choice is not None:
            if not all(any(c.is_true() for c in conds) for _, conds in entries):
                raise _FallbackNeeded
            relation = Relation(schema.without_qualifiers(),
                                [row for row, _ in entries], coerce=False)
            return self._apply_decorations(working, relation, repair, choice,
                                           alias)
        transient = self._new_transient_name()
        working = self._install_entries(working, transient, schema, entries,
                                        keep="extend")
        return working, (transient, alias)

    def _apply_decorations(self, working: WorldSetDecomposition,
                           relation: Relation, repair, choice, alias: str
                           ) -> tuple[WorldSetDecomposition, tuple[str, str]]:
        if repair is not None and choice is not None:
            raise _FallbackNeeded
        transient = self._new_transient_name()
        if repair is not None:
            sub = from_key_repair(relation, repair.attributes,
                                  weight=repair.weight, target_name=transient)
        else:
            sub = from_choice_of(relation, choice.attributes,
                                 weight=choice.weight, target_name=transient)
        if working.is_probabilistic():
            sub = _uniformise(sub)
        merged = _merge_decompositions(working, sub)
        return merged, (transient, alias)

    # -- strategy selection ----------------------------------------------------------------

    def _needs_component_joint(self, query: SelectQuery) -> bool:
        if query.group_by or query.having is not None:
            return True
        if query.order_by or query.limit is not None or query.offset:
            return True
        for expression in _query_expressions(query):
            if contains_aggregate(expression) or contains_subquery(expression):
                return True
        return False

    def _require_symbolic_plain(self, query: Query) -> None:
        """Raise :class:`_FallbackNeeded` unless *query* is a plain select the
        symbolic engine can evaluate (views, derived tables)."""
        if not isinstance(query, SelectQuery):
            raise _FallbackNeeded
        if (query.quantifier is not None or query.conf
                or query.assert_condition is not None
                or query.group_worlds_by is not None):
            raise _FallbackNeeded
        if self._needs_component_joint(query):
            raise _FallbackNeeded

    # -- symbolic evaluation ----------------------------------------------------------------

    def _evaluate_symbolic(self, working: WorldSetDecomposition,
                           query: SelectQuery,
                           items: list[tuple[str, str]]) -> WSDQueryResult:
        schema, bag = self._symbolic_entries(working, query, items)
        self.stats.symbolic += 1
        if query.conf:
            return self._symbolic_conf(working, query, schema, bag)
        if query.quantifier is not None:
            merged: dict[tuple, list[Condition]] = {}
            for row, conditions in bag:
                merged.setdefault(row, []).extend(conditions)
            rows = list(merged)
            if query.quantifier == "certain":
                rows = [row for row in rows
                        if self._conditions_cover(working, merged[row])]
            elif query.quantifier != "possible":
                raise AnalysisError(f"unknown quantifier {query.quantifier!r}")
            return WSDQueryResult(kind="rows",
                                  relation=_make_relation(schema, rows))
        name = "answer"
        answer = self._install_entries(working, name, schema, bag,
                                       keep="answer")
        return WSDQueryResult(kind="wsd", decomposition=answer,
                              relation_name=name)

    def _symbolic_entries(self, working: WorldSetDecomposition,
                          query: SelectQuery, items: list[tuple[str, str]]
                          ) -> tuple[Schema, list[tuple[tuple, list[Condition]]]]:
        """Ground, filter and project: the symbolic core of a plain select."""
        joined = self._join_sources(working, items, query.where)
        schema, projected = self._project(query, joined)
        if query.distinct:
            merged = _merge_entries([(row, condition)
                                     for row, condition in projected])
            return schema, [(row, conds) for row, conds in merged.items()]
        return schema, [(row, [condition]) for row, condition in projected]

    def _join_sources(self, working: WorldSetDecomposition,
                      items: list[tuple[str, str]],
                      where: Optional[Expression]) -> SymbolicRelation:
        """Join the FROM sources, pushing WHERE conjuncts down.

        Mirrors the explicit planner's join selection: top-level AND
        conjuncts that are ``left.col = right.col`` equalities become hash
        join keys, conjuncts that only reference already-joined sources
        filter before the next product, and whatever remains is applied on
        the full join.  Conjunctive splitting is sound because a row
        survives the conjunction only when every conjunct is True.
        """
        pending = _flatten_and(where) if where is not None else []
        if not items:
            # SELECT without FROM: one unconditional empty row.
            joined = SymbolicRelation(Schema([]),
                                      [SymTuple((), TRUE_CONDITION)])
            for conjunct in pending:
                joined = self._filter(joined, conjunct)
            return joined
        sources = [self._ground(working, name, alias) for name, alias in items]
        later = [source.schema for source in sources[1:]]
        joined, pending = self._apply_ready_filters(sources[0], pending, later)
        for position, source in enumerate(sources[1:]):
            later = [other.schema for other in sources[position + 2:]]
            keys, pending = self._extract_equi_keys(
                joined.schema, source.schema, pending, later)
            if keys:
                joined = self._hash_join(joined, source, keys)
            else:
                joined = self._cross_join(joined, source)
            joined, pending = self._apply_ready_filters(joined, pending, later)
        for conjunct in pending:
            joined = self._filter(joined, conjunct)
        return joined

    def _cross_join(self, left: SymbolicRelation,
                    right: SymbolicRelation) -> SymbolicRelation:
        schema = left.schema.concat(right.schema)
        tuples: list[SymTuple] = []
        for mine in left.tuples:
            for theirs in right.tuples:
                condition = mine.condition.conjoin(theirs.condition)
                if condition is None:
                    continue
                tuples.append(SymTuple(mine.row + theirs.row, condition))
        return SymbolicRelation(schema, tuples)

    def _hash_join(self, left: SymbolicRelation, right: SymbolicRelation,
                   keys: list[tuple[Expression, Expression]]
                   ) -> SymbolicRelation:
        """Equi-join on hashed key values; NULL keys never join (SQL)."""
        from ..relational.algebra import hash_key

        schema = left.schema.concat(right.schema)
        right_keys = self._batch_keys(right, [expr for _, expr in keys])
        left_keys = self._batch_keys(left, [expr for expr, _ in keys])
        buckets: dict[tuple, list[SymTuple]] = {}
        for sym, key in zip(right.tuples, right_keys):
            if any(value is None for value in key):
                continue
            buckets.setdefault(hash_key(key), []).append(sym)
        tuples: list[SymTuple] = []
        for sym, key in zip(left.tuples, left_keys):
            if any(value is None for value in key):
                continue
            for other in buckets.get(hash_key(key), ()):
                condition = sym.condition.conjoin(other.condition)
                if condition is None:
                    continue
                tuples.append(SymTuple(sym.row + other.row, condition))
        return SymbolicRelation(schema, tuples)

    def _batch_keys(self, source: SymbolicRelation,
                    exprs: list[Expression]) -> list[tuple]:
        """One key tuple per row of *source*, batch-evaluated when possible."""
        if self.columnar and source.tuples:
            batch = compile_projection(exprs, source.schema)
            if batch is not None:
                try:
                    rows = batch(source.tuples)
                except ExpressionError:
                    pass
                else:
                    self.stats.columnar_batches += 1
                    return rows
            self.stats.rowwise_fallbacks += 1
        context = EvalContext(schema=source.schema, row=None)
        rows = []
        for sym in source.tuples:
            context.row = sym.row
            rows.append(tuple(expr.evaluate(context) for expr in exprs))
        return rows

    def _resolves_only_in(self, ref, schema: Schema,
                          others: Sequence[Schema]) -> bool:
        """True when *ref* binds uniquely in *schema* and nowhere else.

        The "nowhere else" half keeps pushdown from changing binding
        semantics: a reference that would be ambiguous (or bind elsewhere)
        on the full join must wait for the full join.
        """
        if len(schema.find(ref.name, ref.qualifier)) != 1:
            return False
        return all(not other.find(ref.name, ref.qualifier)
                   for other in others)

    def _extract_equi_keys(self, left_schema: Schema, right_schema: Schema,
                           conjuncts: list[Expression],
                           later: Sequence[Schema]
                           ) -> tuple[list[tuple[Expression, Expression]],
                                      list[Expression]]:
        from ..relational.expressions import BinaryOp, ColumnRef

        keys: list[tuple[Expression, Expression]] = []
        residual: list[Expression] = []
        for conjunct in conjuncts:
            if (isinstance(conjunct, BinaryOp) and conjunct.operator == "="
                    and isinstance(conjunct.left, ColumnRef)
                    and isinstance(conjunct.right, ColumnRef)):
                first, second = conjunct.left, conjunct.right
                others = list(later)
                if self._resolves_only_in(first, left_schema,
                                          [right_schema] + others) and \
                        self._resolves_only_in(second, right_schema,
                                               [left_schema] + others):
                    keys.append((first, second))
                    continue
                if self._resolves_only_in(second, left_schema,
                                          [right_schema] + others) and \
                        self._resolves_only_in(first, right_schema,
                                               [left_schema] + others):
                    keys.append((second, first))
                    continue
            residual.append(conjunct)
        return keys, residual

    def _apply_ready_filters(self, source: SymbolicRelation,
                             conjuncts: list[Expression],
                             later: Sequence[Schema]
                             ) -> tuple[SymbolicRelation, list[Expression]]:
        """Apply the conjuncts that fully (and unambiguously) bind here."""
        from ..relational.expressions import expression_columns

        pending: list[Expression] = []
        for conjunct in conjuncts:
            references = expression_columns(conjunct)
            if references and all(
                    self._resolves_only_in(ref, source.schema, later)
                    for ref in references):
                source = self._filter(source, conjunct)
            else:
                pending.append(conjunct)
        return source, pending

    def _ground(self, working: WorldSetDecomposition, name: str,
                alias: str) -> SymbolicRelation:
        """Ground the template tuples of *name* into condition-annotated rows.

        This is where predicates become pushable: each template tuple is
        expanded into one ground tuple per distinct combination of its
        *local* component alternatives, so the expansion is linear in the
        decomposition's storage size, never in the world count.

        Groundings are memoised per relation, keyed on ``(version, name)``
        (:attr:`WorldSetDecomposition.versions`): a write to one relation
        renews only that relation's version, so every other relation's
        grounding survives it; only the alias qualifier is re-applied per
        reference.  Groundings of the base decomposition live in the cache
        the backend shares across statements and threads, which only ever
        holds the current state: a miss there evicts every entry whose
        version the base no longer has (superseded by DML or by a new
        state), counted in ``ground_cache_evictions``.  Working copies
        (``assert``, decorations, views, derived tables) carry fresh versions
        per statement, so their groundings stay in a per-statement dict and
        can never hit a base entry.  The ground tuples are shared read-only
        — downstream operators always build new lists.
        """
        key = (working.versions[name], name)
        shared = working is self.base
        # The shared cache is read and written by every serving thread, so
        # every lookup / insert / eviction happens under its lock — same
        # discipline as the shared plan cache.  The expansion itself runs
        # outside the lock: a concurrent duplicate expansion is benign (last
        # write wins on identical read-only tuples) and keeps lock hold
        # times bounded.
        if shared:
            with self._ground_lock:
                cached = self._ground_cache.get(key)
        else:
            cached = self._working_groundings.get(key)
        if cached is not None:
            self.stats.ground_cache_hits += 1
        else:
            self.stats.ground_cache_misses += 1
            cached = self._ground_tuples(
                working, working.template.relation_tuples(name),
                self._component_index(working))
            if shared:
                with self._ground_lock:
                    stale = [entry for entry in self._ground_cache
                             if working.versions.get(entry[1]) != entry[0]]
                    for entry in stale:
                        del self._ground_cache[entry]
                    self._ground_cache[key] = cached
                self.stats.ground_cache_evictions += len(stale)
            else:
                self._working_groundings[key] = cached
        return SymbolicRelation(
            working.template.schemas[name].with_qualifier(alias), cached)

    def _ground_tuples(self, working: WorldSetDecomposition,
                       template_tuples: Iterable[TemplateTuple],
                       component_of: dict[Field, int]) -> list[SymTuple]:
        """The expanded (condition-annotated) ground tuples of
        *template_tuples* under *working*'s components."""
        out: list[SymTuple] = []
        for template_tuple in template_tuples:
            fields = template_tuple.fields()
            if not fields:
                out.append(SymTuple(template_tuple.cells, TRUE_CONDITION))
                continue
            field_set = set(fields)
            component_ids: list[int] = []
            for f in fields:
                index = component_of[f]
                if index not in component_ids:
                    component_ids.append(index)
            local_cases = []
            for index in component_ids:
                component = working.components[index]
                own = [f for f in component.fields if f in field_set]
                positions = [component.field_index(f) for f in own]
                cases: dict[tuple, set[int]] = {}
                for alt_index, alternative in enumerate(component.alternatives):
                    key = tuple(alternative.values[p] for p in positions)
                    cases.setdefault(key, set()).add(alt_index)
                local_cases.append((index, own, list(cases.items())))
            for combo in product(*(cases for _, _, cases in local_cases)):
                assignment: dict[Field, Any] = {}
                atoms: list[tuple[int, frozenset[int]]] = []
                for (index, own, _), (values, alt_ids) in zip(local_cases, combo):
                    assignment.update(zip(own, values))
                    if len(alt_ids) < len(working.components[index]):
                        atoms.append((index, frozenset(alt_ids)))
                row = template_tuple.instantiate(assignment)
                if row is None:
                    continue
                out.append(SymTuple(
                    row, Condition(tuple(sorted(atoms, key=lambda kv: kv[0])))))
        return out

    def _filter(self, source: SymbolicRelation,
                predicate: Expression) -> SymbolicRelation:
        # Columnar first: compile the predicate once, evaluate it over the
        # whole batch as parallel column arrays and keep the rows whose mask
        # entry is True.  A batch that raises is re-run row-at-a-time so
        # error semantics match the interpreter exactly (full-batch AND/OR
        # does not short-circuit, so it can reach operands the interpreted
        # loop would have skipped).
        if self.columnar and source.tuples:
            mask = compile_predicate(predicate, source.schema)
            if mask is not None:
                try:
                    decisions = mask(source.tuples)
                except ExpressionError:
                    pass
                else:
                    self.stats.columnar_batches += 1
                    kept = [sym for sym, keep in zip(source.tuples, decisions)
                            if keep is True]
                    return SymbolicRelation(source.schema, kept)
            self.stats.rowwise_fallbacks += 1
        # One context, re-pointed per row: the symbolic tier only ever
        # filters subquery-free predicates, so nothing retains the context
        # beyond the evaluate call.
        context = EvalContext(schema=source.schema, row=None)
        kept = []
        for sym in source.tuples:
            context.row = sym.row
            if predicate.evaluate(context) is True:
                kept.append(sym)
        return SymbolicRelation(source.schema, kept)

    def _project(self, query: SelectQuery, source: SymbolicRelation
                 ) -> tuple[Schema, list[tuple[tuple, Condition]]]:
        from ..core.planner import deduplicate_output_names, output_name
        from ..relational.algebra import OutputColumn

        items = query.select_items or [SelectItem(Star())]
        outputs: list[OutputColumn] = []
        for position, item in enumerate(items):
            if isinstance(item.expression, Star):
                qualifier = item.expression.qualifier
                matched = [column for column in source.schema
                           if qualifier is None
                           or (column.qualifier or "").lower() == qualifier.lower()]
                if not matched:
                    from ..errors import PlanningError

                    raise PlanningError(
                        f"'{qualifier or '*'}.*' matches no columns")
                from ..relational.expressions import ColumnRef

                outputs.extend(OutputColumn(
                    ColumnRef(column.name, column.qualifier), column.name)
                    for column in matched)
                continue
            outputs.append(OutputColumn(item.expression,
                                        output_name(item, position)))
        outputs = deduplicate_output_names(outputs)
        schema = Schema([Column(output.name) for output in outputs])
        # Columnar first: evaluate every output expression over the whole
        # batch (one column pass each), then zip the rows back against the
        # per-tuple conditions.
        if self.columnar and source.tuples:
            batch = compile_projection(
                [output.expression for output in outputs], source.schema)
            if batch is not None:
                try:
                    rows = batch(source.tuples)
                except ExpressionError:
                    pass
                else:
                    self.stats.columnar_batches += 1
                    return schema, [(row, sym.condition) for row, sym
                                    in zip(rows, source.tuples)]
            self.stats.rowwise_fallbacks += 1
        projected: list[tuple[tuple, Condition]] = []
        # Re-pointed context: projection expressions on the symbolic tier
        # are subquery-free (see _needs_component_joint), so reuse is safe.
        context = EvalContext(schema=source.schema, row=None)
        for sym in source.tuples:
            context.row = sym.row
            row = tuple(output.expression.evaluate(context)
                        for output in outputs)
            projected.append((row, sym.condition))
        return schema, projected

    def _symbolic_conf(self, working: WorldSetDecomposition,
                       query: SelectQuery, schema: Schema,
                       bag: list[tuple[tuple, list[Condition]]]
                       ) -> WSDQueryResult:
        if not query.select_items:
            conditions = [condition for _, conds in bag for condition in conds]
            if conditions:
                mass, approximation = self._condition_estimate(working,
                                                               conditions)
            else:
                mass, approximation = 0.0, None
            if approximation is None:
                return WSDQueryResult(
                    kind="rows",
                    relation=_make_relation(Schema([Column("conf")]),
                                            [(mass,)]))
            return WSDQueryResult(
                kind="rows",
                relation=_make_relation(
                    Schema([Column("conf"), Column("conf_low"),
                            Column("conf_high")]),
                    [(mass, approximation.low, approximation.high)]))
        merged = _merge_entries([(row, condition)
                                 for row, conds in bag for condition in conds])
        estimates = []
        any_approximate = False
        for row, conds in merged.items():
            mass, approximation = self._condition_estimate(working, conds)
            if approximation is not None:
                any_approximate = True
            estimates.append((row, mass, approximation))
        if not any_approximate:
            out_schema = Schema(list(schema.columns) + [Column("conf")])
            rows = [row + (mass,) for row, mass, _ in estimates]
        else:
            # A mixed answer (some rows exact, some sampled) reports the
            # interval for every row; exact rows collapse to a point.
            out_schema = Schema(list(schema.columns)
                                + [Column("conf"), Column("conf_low"),
                                   Column("conf_high")])
            rows = [row + ((mass, mass, mass) if approximation is None
                           else (mass, approximation.low,
                                 approximation.high))
                    for row, mass, approximation in estimates]
        return WSDQueryResult(kind="rows",
                              relation=_make_relation(out_schema, rows))

    # -- condition disjunctions --------------------------------------------------------------

    def _condition_estimate(self, working: WorldSetDecomposition,
                            conditions: Sequence[Condition]
                            ) -> tuple[float, Optional[ApproximateConfidence]]:
        """``(probability, approximation)`` of a disjunction of conditions.

        Three exact tiers, cheapest first:

        1. closed forms — a single conjunction multiplies out; a disjunction
           of single-atom conditions over independent components is
           ``1 - prod_c (1 - P(event_c))`` (both linear, no search);
        2. the d-tree engine (:mod:`repro.wsd.confidence`) — exact and
           polynomial for hierarchical DNFs, which is what joins over
           key-repaired relations produce;
        3. guarded joint enumeration of the touched components — the budget
           fallback only: reached when the d-tree exceeds its node budget,
           and counted in :attr:`ConfidenceStats.enumeration_fallbacks`.

        An *approximate* tier sits behind these under graceful degradation:
        ``degradation="anytime"`` routes only the shapes whose exact tiers
        are all over budget to anytime Monte-Carlo sampling instead of
        raising.  The second element is ``None`` whenever the answer is
        exact; an :class:`ApproximateConfidence` (already recorded on the
        executor) states the interval when the anytime sampling tier
        answered.
        """
        if any(condition.is_true() for condition in conditions):
            return 1.0, None
        if not conditions:
            return 0.0, None
        closed = self._closed_form(working, conditions)
        if closed is not None:
            return closed[0], None
        return self._dtree_estimate(working, conditions)

    def _conditions_cover(self, working: WorldSetDecomposition,
                          conditions: Sequence[Condition]) -> bool:
        """True when the disjunction holds in every world (``certain``)."""
        if any(condition.is_true() for condition in conditions):
            return True
        if not conditions:
            return False
        closed = self._closed_form(working, conditions, count=False)
        if closed is not None:
            return closed[1]
        engine = self._engine(working)
        try:
            return engine.is_tautology(
                [condition.atoms for condition in conditions])
        except DTreeBudgetExceededError:
            self.confidence_stats.enumeration_fallbacks += 1
            return self._enumerate_disjunction(working, conditions)[1]

    def _closed_form(self, working: WorldSetDecomposition,
                     conditions: Sequence[Condition],
                     count: bool = True) -> Optional[tuple[float, bool]]:
        """``(probability, covers)`` via a linear closed form, if one applies."""
        if len(conditions) == 1:
            mass = 1.0
            for index, allowed in conditions[0].atoms:
                mass *= self._atom_mass(working.components[index], allowed)
            if count:
                self.confidence_stats.closed_form += 1
            # A stored atom never covers its whole component, so a single
            # conjunction with atoms holds in some worlds but not all.
            return mass, False
        if all(len(condition.atoms) == 1 for condition in conditions):
            # Closed form: each condition restricts a single component, so
            # after merging same-component atoms the per-component events are
            # independent and P(union) = 1 - prod_c (1 - P(event_c)).  This
            # keeps conf linear in the number of touched components — the
            # common shape when an answer row is produced by tuples of many
            # independent key groups.
            merged: dict[int, frozenset[int]] = {}
            for condition in conditions:
                index, allowed = condition.atoms[0]
                merged[index] = merged.get(index, frozenset()) | allowed
            miss = 1.0
            covers = False
            for index, union in merged.items():
                component = working.components[index]
                miss *= 1.0 - self._atom_mass(component, union)
                if len(union) == len(component.alternatives):
                    # One component's event happens in every world, so the
                    # disjunction does too (no stored atom is ever full, so
                    # this only triggers after merging).
                    covers = True
            if count:
                self.confidence_stats.closed_form += 1
            return (1.0 - miss), covers
        return None

    def _engine(self, working: WorldSetDecomposition) -> DTreeEngine:
        """The (memo-carrying) d-tree engine for *working*, cached so every
        answer row of one query shares subtree results."""
        key = id(working)
        entry = self._engines.get(key)
        if entry is None or entry[0] is not working:
            entry = (working, DTreeEngine(working.components,
                                          stats=self.confidence_stats,
                                          node_budget=self.budgets.dtree_nodes))
            self._engines[key] = entry
        return entry[1]

    def _sampler_for(self, working: WorldSetDecomposition) -> AnytimeSampler:
        """The anytime Monte-Carlo sampler for *working*, cached so every
        answer row of one query shares the cumulative mass tables."""
        key = id(working)
        entry = self._samplers.get(key)
        if entry is None or entry[0] is not working:
            entry = (working, AnytimeSampler(working.components,
                                             self.anytime))
            self._samplers[key] = entry
        return entry[1]

    def _sampled_confidence(self, working: WorldSetDecomposition,
                            conditions: Sequence[Condition]
                            ) -> tuple[float, Optional[ApproximateConfidence]]:
        """The anytime tier: an estimate plus its recorded contract."""
        sampler = self._sampler_for(working)
        approximation = sampler.dnf_confidence(
            [condition.atoms for condition in conditions])
        if approximation.exact:
            return approximation.value, None
        self._record_approximation(approximation)
        return approximation.value, approximation

    def _record_approximation(self,
                              approximation: ApproximateConfidence) -> None:
        if not self.approximations:
            self.stats.approximate_answers += 1
        self.stats.sample_counts += approximation.samples
        self.approximations.append(approximation)

    def approximation_summary(self) -> Optional[dict]:
        """The statement-level accuracy contract, or ``None`` when exact.

        Conservative over every estimate the statement needed: the *worst*
        ε, the *lowest* confidence level, the total sample count and the
        estimators involved.
        """
        if not self.approximations:
            return None
        return {
            "epsilon": max(a.epsilon for a in self.approximations),
            "confidence_level": min(a.confidence_level
                                    for a in self.approximations),
            "samples": sum(a.samples for a in self.approximations),
            "estimators": sorted({a.estimator for a in self.approximations}),
        }

    def _dtree_estimate(self, working: WorldSetDecomposition,
                        conditions: Sequence[Condition]
                        ) -> tuple[float, Optional[ApproximateConfidence]]:
        engine = self._engine(working)
        try:
            return engine.probability(
                [condition.atoms for condition in conditions]), None
        except DTreeBudgetExceededError:
            if self.degradation == "anytime" \
                    and not self._disjunction_enumerable(working, conditions):
                # Both exact escapes are over budget; degrade to sampling
                # instead of refusing.
                return self._sampled_confidence(working, conditions)
            self.confidence_stats.enumeration_fallbacks += 1
            return self._enumerate_disjunction(working, conditions)[0], None

    def _disjunction_enumerable(self, working: WorldSetDecomposition,
                                conditions: Sequence[Condition]) -> bool:
        """True when the touched components' joint fits the limit."""
        if self.limit is None:
            return True
        joint = 1
        for index in sorted({index for condition in conditions
                             for index in condition.component_ids()}):
            joint *= len(working.components[index])
            if joint > self.limit:
                return False
        return True

    def _enumerate_disjunction(self, working: WorldSetDecomposition,
                               conditions: Sequence[Condition]
                               ) -> tuple[float, bool]:
        """``(probability, holds-in-every-world)`` by guarded enumeration of
        the joint of all touched components — exponential; the d-tree's
        budget fallback."""
        involved: list[int] = sorted({index for condition in conditions
                                      for index in condition.component_ids()})
        joint = 1
        for index in involved:
            joint *= len(working.components[index])
        ensure_enumerable(joint, self.limit, operation="jointly enumerate")
        total = 0.0
        covers = True
        ranges = [range(len(working.components[index].alternatives))
                  for index in involved]
        for combo in product(*ranges):
            choice = dict(zip(involved, combo))
            if any(condition.holds(choice) for condition in conditions):
                total += self._joint_weight(working, involved, combo)
            else:
                covers = False
        return total, covers

    def _atom_mass(self, component: Component,
                   allowed: frozenset[int]) -> float:
        """Probability mass of *allowed* alternatives within one component.

        Weighting is decided per component via
        :meth:`Component.effective_probabilities`: a weighted component uses
        its probabilities, an unweighted one counts uniformly, and a
        partially-weighted one gives the ``probability=None`` alternatives a
        uniform share of the residual mass.  The product over components is
        always a normalised distribution, which matches the explicit
        backend's (normalised) world weights even when weighted and
        unweighted uncertainty mix in one decomposition.
        """
        masses = component.effective_probabilities()
        return sum(masses[i] for i in allowed)

    def _joint_weight(self, working: WorldSetDecomposition,
                      involved: Sequence[int],
                      combo: Sequence[int]) -> float:
        weight = 1.0
        for index, alt_index in zip(involved, combo):
            component = working.components[index]
            weight *= component.effective_probabilities()[alt_index]
        return weight

    # -- decomposed aggregates (convolution over components) -----------------------------------

    def _maybe_decomposed_aggregate(self, working: WorldSetDecomposition,
                                    query: SelectQuery,
                                    items: list[tuple[str, str]]
                                    ) -> Optional[WSDQueryResult]:
        """Try the decomposed aggregate engine; None re-routes the query to
        the guarded component-joint enumeration.

        Shape mismatches (ORDER BY / LIMIT, non-scalar subqueries, ...) are
        silent re-routes; budget overruns on genuinely correlated shapes are
        counted in :attr:`WsdExecutionStats.aggregate_fallbacks`.
        """
        plan = self.aggregate_plan(query)
        if plan is None:
            return None
        try:
            if plan.kind == "conf_where":
                return self._aggregate_conf_where(working, query, items, plan)
            return self._aggregate_select(working, query, items, plan)
        except AggregateBudgetExceededError:
            self.stats.aggregate_fallbacks += 1
            return None
        except UnknownColumnError:
            # Correlated references the symbolic grounder cannot resolve in
            # isolation; the component-joint path evaluates (or rejects)
            # them with reference semantics.
            return None

    def _aggregate_select(self, working: WorldSetDecomposition,
                          query: SelectQuery, items: list[tuple[str, str]],
                          plan: AggregatePlan) -> WSDQueryResult:
        """Aggregates / GROUP BY / HAVING via per-cluster convolution."""
        joined = self._join_sources(working, items, query.where)
        specs = [_ExistsSpec()] + plan.specs
        engine = DecomposedAggregator(working.components, specs,
                                      budget=self.budgets.aggregate_states,
                                      stats=self.aggregate_stats)
        # Evaluation state lives in this per-execution slots object; the
        # compiled plan itself is immutable and shared across threads.
        contributions = plan_contributions(plan, joined, slots=EvalSlots())
        key_order: list[tuple] = []
        seen_keys: set[tuple] = set()
        for contribution in contributions:
            if contribution.key not in seen_keys:
                seen_keys.add(contribution.key)
                key_order.append(contribution.key)
        if query.conf or query.quantifier is not None:
            per_key = engine.key_distributions(contributions)
            if not plan.key_exprs and () not in per_key:
                per_key[()] = {engine.identity: 1.0}
                key_order = [()]
            result = self._aggregate_collect(query, plan, per_key, key_order)
        else:
            joint = engine.answer_distribution(contributions)
            result = self._aggregate_distribution(plan, joint)
        self.stats.aggregate += 1
        self.aggregate_stats.queries += 1
        return result

    def _aggregate_collect(self, query: SelectQuery, plan: AggregatePlan,
                           per_key: dict[tuple, dict[tuple, float]],
                           key_order: list[tuple]) -> WSDQueryResult:
        """conf / possible / certain read off the per-key distributions."""
        names = plan.output_names()
        slots = EvalSlots()
        if query.conf:
            confidence: dict[tuple, float] = {}
            order: list[tuple] = []
            for key in key_order:
                for state, mass in per_key[key].items():
                    if not plan.state_included(key, state, slots=slots):
                        continue
                    row = plan.output_row(key, state, slots=slots)
                    if row not in confidence:
                        confidence[row] = 0.0
                        order.append(row)
                    confidence[row] += mass
            schema = Schema([Column(name) for name in names]
                            + [Column("conf")])
            rows = [row + (confidence[row],) for row in order]
            return WSDQueryResult(kind="rows",
                                  relation=_make_relation(schema, rows))
        schema = Schema([Column(name) for name in names])
        rows: list[tuple] = []
        if query.quantifier == "possible":
            seen: set[tuple] = set()
            for key in key_order:
                for state in per_key[key]:
                    if not plan.state_included(key, state, slots=slots):
                        continue
                    row = plan.output_row(key, state, slots=slots)
                    if row not in seen:
                        seen.add(row)
                        rows.append(row)
        elif query.quantifier == "certain":
            # A row is certain iff its group's answer row is the same in
            # every world: every state is included and finalises identically.
            for key in key_order:
                distribution = per_key[key]
                if not all(plan.state_included(key, state, slots=slots)
                           for state in distribution):
                    continue
                produced = {plan.output_row(key, state, slots=slots)
                            for state in distribution}
                if len(produced) == 1:
                    rows.append(next(iter(produced)))
        else:
            raise AnalysisError(f"unknown quantifier {query.quantifier!r}")
        return WSDQueryResult(kind="rows",
                              relation=_make_relation(schema, rows))

    def _aggregate_distribution(self, plan: AggregatePlan,
                                joint: dict[tuple, float]) -> WSDQueryResult:
        """Plain aggregate queries: the distribution over whole answers."""
        schema = Schema([Column(name) for name in plan.output_names()])
        slots = EvalSlots()
        order_keys: list[tuple] = []
        grouped: dict[tuple, tuple[float, Relation]] = {}
        for mapping, mass in joint.items():
            rows = plan.answer_rows(dict(mapping), slots=slots)
            relation = _make_relation(schema, rows)
            fingerprint = (tuple(schema.names()), relation.fingerprint())
            if fingerprint not in grouped:
                order_keys.append(fingerprint)
                grouped[fingerprint] = (mass, relation)
            else:
                total, representative = grouped[fingerprint]
                grouped[fingerprint] = (total + mass, representative)
        distribution = [grouped[fingerprint] for fingerprint in order_keys]
        return WSDQueryResult(kind="distribution", distribution=distribution)

    def _aggregate_conf_where(self, working: WorldSetDecomposition,
                              query: SelectQuery,
                              items: list[tuple[str, str]],
                              plan: AggregatePlan) -> WSDQueryResult:
        """``SELECT CONF FROM ... WHERE`` comparing scalar aggregate
        subqueries: the joint (answer-nonempty, aggregate values)
        distribution is read off one convolution."""
        sub_items: list[list[tuple[str, str]]] = []
        for subquery in plan.subqueries:
            for ref in subquery.query.from_clause:
                if ref.name.lower() in self.views:
                    raise UnsupportedFeatureError(
                        "views cannot be referenced inside a nested query; "
                        "materialise the view with CREATE TABLE ... AS first")
            working, resolved = self._resolve_from(working,
                                                   subquery.query.from_clause)
            sub_items.append(resolved)
        specs: list[Any] = [_ExistsSpec()]
        offsets: list[int] = []
        for subquery in plan.subqueries:
            offsets.append(len(specs))
            specs.extend(subquery.specs)
        engine = DecomposedAggregator(working.components, specs,
                                      budget=self.budgets.aggregate_states,
                                      stats=self.aggregate_stats)
        identity = list(engine.identity)
        contributions: list[Contribution] = []
        joined = self._join_sources(working, items, plan.plain_where)
        for sym in joined.tuples:
            delta = list(identity)
            delta[0] = True
            contributions.append(Contribution((), sym.condition, tuple(delta)))
        for index, (subquery, resolved) in enumerate(
                zip(plan.subqueries, sub_items)):
            grounded = self._join_sources(working, resolved,
                                          subquery.query.where)
            offset = offsets[index]
            for sym in grounded.tuples:
                context = EvalContext(schema=grounded.schema, row=sym.row)
                delta = list(identity)
                for position, (call, spec) in enumerate(
                        zip(subquery.calls, subquery.specs)):
                    if call.argument is None \
                            or isinstance(call.argument, Star):
                        value = None
                    else:
                        value = call.argument.evaluate(context)
                    delta[offset + position] = spec.lift(value)
                contributions.append(
                    Contribution((), sym.condition, tuple(delta)))
        distribution = engine.key_distributions(contributions)
        self.stats.aggregate += 1
        self.aggregate_stats.queries += 1
        states = distribution.get((), {engine.identity: 1.0})
        slots = EvalSlots()
        mass = 0.0
        for state, weight in states.items():
            if not state[0]:
                continue
            sub_values = []
            for index, subquery in enumerate(plan.subqueries):
                offset = offsets[index]
                finalized = [spec.finalize(state[offset + position])
                             for position, spec
                             in enumerate(subquery.specs)]
                sub_values.append(
                    subquery.slotted_item.evaluate(finalized, slots=slots))
            if all(predicate.evaluate((), (), sub_values,
                                      slots=slots) is True
                   for predicate in plan.world_predicates):
                mass += weight
        return WSDQueryResult(
            kind="rows",
            relation=_make_relation(Schema([Column("conf")]), [(mass,)]))

    # -- compound queries (UNION / INTERSECT / EXCEPT) -----------------------------------------

    def _evaluate_compound(self, query: CompoundQuery) -> WSDQueryResult:
        """Combine the operands' condition-annotated entries natively and
        install the result as a compact answer decomposition.

        Compounds carrying ORDER BY / LIMIT / OFFSET (at any nesting level)
        keep per-world semantics the entry algebra cannot express — LIMIT
        selects world-dependent rows, ORDER BY orders each world's answer —
        so they evaluate per joint alternative instead, returning ordered
        answers as a guarded per-world distribution (counted in
        :attr:`WsdExecutionStats.group_fallbacks`).
        """
        self._require_plain_worldlocal(
            query, "a compound (UNION/INTERSECT/EXCEPT) query")
        if _compound_needs_per_world(query):
            self.stats.group_fallbacks += 1
            try:
                return self._compound_distribution(query)
            except _FallbackNeeded:
                return self._fallback(query)
        try:
            working, schema, entries = self._compound_source_entries(
                self.base, query)
        except _FallbackNeeded:
            return self._fallback(query)
        answer = self._install_entries(working, "answer", schema, entries,
                                       keep="answer")
        return WSDQueryResult(kind="wsd", decomposition=answer,
                              relation_name="answer")

    def _compound_distribution(self, query: CompoundQuery) -> WSDQueryResult:
        """Guarded per-joint evaluation of an ORDER BY / LIMIT compound:
        each distinct per-world answer keeps its row order."""
        working = self.base
        names = self._joint_relation_names(working, query, [])
        order_keys: list[tuple] = []
        grouped: dict[tuple, tuple[float, Relation]] = {}
        for combo, involved, answers, weight in self._iter_query_joints(
                working, names, query, allow_sampling=True):
            answer = answers[0]
            key = (tuple(answer.schema.names()), answer.fingerprint())
            if key not in grouped:
                order_keys.append(key)
                grouped[key] = (weight, answer)
            else:
                mass, representative = grouped[key]
                grouped[key] = (mass + weight, representative)
        return WSDQueryResult(
            kind="distribution",
            distribution=[grouped[key] for key in order_keys])

    def _compound_source_entries(self, working: WorldSetDecomposition,
                                 query: CompoundQuery
                                 ) -> tuple[WorldSetDecomposition, Schema,
                                            list[tuple[tuple, list[Condition]]]]:
        """``(working, schema, entries)`` of a compound query's answer.

        Native set-operation combination first; clause-budget overruns and
        LIMIT-bearing compounds escape — counted in
        :attr:`WsdExecutionStats.group_fallbacks` — to the guarded
        component-joint evaluation of the whole compound.  (Entries carry no
        row order, so the purely presentational ORDER BY does not force the
        guarded path here; content-changing LIMIT / OFFSET does.)
        """
        self._require_plain_worldlocal(
            query, "a compound (UNION/INTERSECT/EXCEPT) query")
        if not _compound_limits_content(query):
            try:
                working, schema, entries = evaluate_compound_entries(
                    self, working, query, budget=self.budgets.setop_clauses)
            except SetOpBudgetExceededError:
                self.stats.group_fallbacks += 1
            else:
                self.stats.setops += 1
                return working, schema, entries
        else:
            # Per-world LIMIT selects world-dependent rows; only per-joint
            # evaluation reproduces it.
            self.stats.group_fallbacks += 1
        schema, entries = self._compound_entries_enumerate(working, query)
        return working, schema, entries

    def _compound_entries_enumerate(self, working: WorldSetDecomposition,
                                    query: CompoundQuery
                                    ) -> tuple[Schema,
                                               list[tuple[tuple, list[Condition]]]]:
        """Guarded per-joint evaluation of a whole compound query.

        An install path: never samples (pinned conditions over a sampled
        subset would corrupt the installed decomposition)."""
        names = self._joint_relation_names(working, query, [])
        return self._entries_from_joints(
            working,
            ((combo, involved, answers[0])
             for combo, involved, answers, _weight
             in self._iter_query_joints(working, names, query)))

    def _require_plain_worldlocal(self, query: Query, where: str) -> None:
        """Reject world-level constructs inside *where* — exactly the
        explicit executor's validation, so both backends refuse the same
        shapes with the same errors."""
        from ..core.executor import Executor

        Executor(self.views)._require_plain(query, where)

    # -- group worlds by -----------------------------------------------------------------------

    def _evaluate_group_worlds(self, working: WorldSetDecomposition,
                               query: SelectQuery,
                               items: list[tuple[str, str]]) -> WSDQueryResult:
        """Partition worlds by the grouping subquery's answer, natively.

        The result is a distribution: one ``(probability mass, collected
        relation)`` pair per world group — the compact counterpart of the
        explicit backend's per-world collected answers.
        """
        self._require_plain_worldlocal(query.group_worlds_by.query,
                                       "a nested query")
        try:
            groups = evaluate_group_worlds(self, working, query, items)
        except (GroupingUnsupportedError, AggregateBudgetExceededError,
                UnknownColumnError):
            # Shapes the native compilers do not cover (ORDER BY / LIMIT
            # mains, non-aggregate subqueries, correlated references) escape
            # to the guarded component-joint grouping below.
            self.stats.group_fallbacks += 1
        else:
            self.stats.grouping += 1
            return WSDQueryResult(
                kind="distribution",
                distribution=[(group.mass, group.relation)
                              for group in groups])
        distribution = self._group_worlds_enumerate(working, query, items)
        return WSDQueryResult(kind="distribution", distribution=distribution)

    def _group_worlds_joints(self, working: WorldSetDecomposition,
                             query: SelectQuery,
                             items: list[tuple[str, str]],
                             allow_sampling: bool = False):
        """Yield ``(combo, involved, answer, group key, weight)`` per joint
        alternative of the components the main and grouping queries touch."""
        core = _strip_world_clauses(query, items=items)
        grouping_query = query.group_worlds_by.query
        names = self._joint_relation_names(working, core,
                                           [name for name, _ in items])
        names = self._joint_relation_names(working, grouping_query, names)
        for combo, involved, answers, weight in self._iter_query_joints(
                working, names, core, grouping_query,
                allow_sampling=allow_sampling):
            yield combo, involved, answers[0], answers[1].fingerprint(), \
                weight

    def _group_worlds_enumerate(self, working: WorldSetDecomposition,
                                query: SelectQuery,
                                items: list[tuple[str, str]]
                                ) -> list[tuple[float, Relation]]:
        """Guarded component-joint grouping: the fallback for shapes the
        native grouping engine does not cover."""
        from ..core.executor import collect_quantifier

        quantifier = query.quantifier or "possible"
        order: list[tuple] = []
        answers: dict[tuple, list[Relation]] = {}
        masses: dict[tuple, float] = {}
        for combo, involved, answer, group_key, weight \
                in self._group_worlds_joints(working, query, items,
                                             allow_sampling=True):
            if group_key not in answers:
                order.append(group_key)
                answers[group_key] = []
                masses[group_key] = 0.0
            answers[group_key].append(answer)
            masses[group_key] += weight
        return [(masses[key],
                 collect_quantifier(quantifier, answers[key]))
                for key in order]

    def _group_worlds_entries(self, working: WorldSetDecomposition,
                              query: SelectQuery,
                              items: list[tuple[str, str]]
                              ) -> tuple[Schema,
                                         list[tuple[tuple, list[Condition]]]]:
        """Entries installing the per-world group answers (CREATE TABLE AS):
        every joint alternative contributes its group's collected relation
        under its pinned condition."""
        from ..core.executor import collect_quantifier

        quantifier = query.quantifier or "possible"
        joints = list(self._group_worlds_joints(working, query, items))
        grouped: dict[tuple, list[Relation]] = {}
        for _combo, _involved, answer, group_key, _weight in joints:
            grouped.setdefault(group_key, []).append(answer)
        collected = {key: collect_quantifier(quantifier, group)
                     for key, group in grouped.items()}
        return self._entries_from_joints(
            working,
            ((combo, involved, collected[group_key])
             for combo, involved, _answer, group_key, _weight in joints))

    # -- component-joint evaluation ------------------------------------------------------------

    def _evaluate_component_joint(self, working: WorldSetDecomposition,
                                  query: SelectQuery,
                                  items: list[tuple[str, str]]) -> WSDQueryResult:
        approximations_before = len(self.approximations)
        answers, weights = self._component_joint_answers(working, query, items)
        # When the joint degraded to sampling, every accumulated mass is an
        # estimated fraction of `samples` draws; conf answers then carry a
        # Wilson interval per reported mass.
        sampled = len(self.approximations) > approximations_before
        if query.conf:
            if not query.select_items:
                mass = sum(weight for answer, weight in zip(answers, weights)
                           if len(answer) > 0)
                if not sampled:
                    return WSDQueryResult(
                        kind="rows",
                        relation=_make_relation(Schema([Column("conf")]),
                                                [(mass,)]))
                low, high = self._sampled_mass_interval(mass, len(weights))
                return WSDQueryResult(
                    kind="rows",
                    relation=_make_relation(
                        Schema([Column("conf"), Column("conf_low"),
                                Column("conf_high")]),
                        [(mass, low, high)]))
            confidence: dict[tuple, float] = {}
            order: list[tuple] = []
            for answer, weight in zip(answers, weights):
                for row in set(answer.rows):
                    if row not in confidence:
                        confidence[row] = 0.0
                        order.append(row)
                    confidence[row] += weight
            columns = list(answers[0].schema.without_qualifiers().columns)
            if not sampled:
                schema = Schema(columns + [Column("conf")])
                rows = [row + (confidence[row],) for row in order]
            else:
                schema = Schema(columns + [Column("conf"), Column("conf_low"),
                                           Column("conf_high")])
                rows = []
                for row in order:
                    low, high = self._sampled_mass_interval(confidence[row],
                                                            len(weights))
                    rows.append(row + (confidence[row], low, high))
            return WSDQueryResult(kind="rows",
                                  relation=_make_relation(schema, rows))
        if query.quantifier is not None:
            from ..core.executor import collect_quantifier

            collected = collect_quantifier(query.quantifier, answers)
            return WSDQueryResult(kind="rows", relation=collected)
        order_keys: list[tuple] = []
        grouped: dict[tuple, tuple[float, Relation]] = {}
        for answer, weight in zip(answers, weights):
            key = (tuple(answer.schema.names()), answer.fingerprint())
            if key not in grouped:
                order_keys.append(key)
                grouped[key] = (weight, answer)
            else:
                mass, representative = grouped[key]
                grouped[key] = (mass + weight, representative)
        distribution = [(grouped[key][0], grouped[key][1])
                        for key in order_keys]
        return WSDQueryResult(kind="distribution", distribution=distribution)

    def _sampled_mass_interval(self, mass: float,
                               samples: int) -> tuple[float, float]:
        """Wilson interval of a mass estimated as a fraction of *samples*
        equally-weighted world draws."""
        hits = max(0, min(samples, round(mass * samples)))
        _, low, high = wilson_interval(hits, samples,
                                       self.anytime.z_score())
        return low, high

    def _iter_component_joints(self, working: WorldSetDecomposition,
                               query: SelectQuery,
                               items: list[tuple[str, str]],
                               allow_sampling: bool = False):
        """Evaluate the plain core of *query* once per joint alternative of
        the components touching its referenced relations.

        Yields ``(combo, involved, answer, weight)`` per joint alternative,
        where *combo* is the alternative index per *involved* component.
        This is the single guarded joint-enumeration core shared by the
        query path (:meth:`_component_joint_answers`, which may sample
        under graceful degradation) and the install path
        (:meth:`_component_joint_entries`, always strict).
        """
        core = _strip_world_clauses(query, items=items)
        names = self._joint_relation_names(working, core,
                                           [name for name, _ in items])
        for combo, involved, answers, weight in self._iter_query_joints(
                working, names, core, allow_sampling=allow_sampling):
            yield combo, involved, answers[0], weight

    def _joint_relation_names(self, working: WorldSetDecomposition,
                              node: Query, seed: list[str]) -> list[str]:
        """*seed* plus every relation *node* references (canonicalised)."""
        names = list(seed)
        for name in _referenced_relation_names(node):
            if any(existing.lower() == name.lower() for existing in names):
                continue
            if name.lower() in self.views:
                raise UnsupportedFeatureError(
                    "views cannot be referenced inside a nested query; "
                    "materialise the view with CREATE TABLE ... AS first")
            names.append(self._canonical_name(working, name))
        return names

    def _iter_query_joints(self, working: WorldSetDecomposition,
                           names: Sequence[str], *queries: Query,
                           allow_sampling: bool = False):
        """Evaluate plain *queries* once per joint alternative of the
        components touching *names* (the single guarded joint-enumeration
        core shared by the component-joint, compound-enumerate and
        world-grouping paths).

        Yields ``(combo, involved, answers, weight)`` per joint alternative,
        where *combo* is the alternative index per *involved* component,
        *answers* aligns with *queries* and *weight* is the probability mass
        the combo carries towards a distribution.

        When the joint exceeds the enumeration limit the call normally
        refuses (:class:`~repro.errors.EnumerationLimitError`); under
        ``degradation="anytime"`` callers whose answers are *weight-based
        distributions* may pass ``allow_sampling=True`` to degrade to
        sampled joint alternatives instead — each of ``max_world_samples``
        drawn combos carries weight ``1 / count``, and the recorded
        :class:`ApproximateConfidence` states the worst-case per-mass ε.
        Install paths must never sample: their pinned per-combo conditions
        would turn a sampled subset into wrong session state.
        """
        fields = {f
                  for name in names
                  for t in working.template.relation_tuples(name)
                  for f in t.fields()}
        involved = [index for index, component in enumerate(working.components)
                    if set(component.fields) & fields]
        joint = 1
        for index in involved:
            joint *= len(working.components[index])
        sampled_weight: float | None = None
        if allow_sampling and self.degradation == "anytime" \
                and self.limit is not None and joint > self.limit:
            sampler = self._sampler_for(working)
            count = max(1, self.anytime.max_world_samples)
            sampled_weight = 1.0 / count
            self._record_approximation(ApproximateConfidence(
                value=0.0, epsilon=sampler.joint_epsilon(count),
                confidence_level=self.anytime.confidence_level,
                samples=count, estimator="joint-sampling"))
            combos = sampler.joint_samples(involved, count,
                                           key=(joint, count, len(queries)))
        else:
            ensure_enumerable(joint, self.limit,
                              operation="jointly enumerate")
            ranges = [range(len(working.components[index].alternatives))
                      for index in involved]
            combos = product(*ranges)
        from ..core.executor import Executor

        executor = Executor(self.views)
        for combo in combos:
            assignment: dict[Field, Any] = {}
            for index, alt_index in zip(involved, combo):
                component = working.components[index]
                alternative = component.alternatives[alt_index]
                assignment.update(alternative.value_map(component.fields))
            catalog = Catalog()
            for name in names:
                catalog.create(name, _instantiate_relation(
                    working.template, name, assignment))
            world = World(catalog)
            answers = [executor.evaluate_plain_in_world(query, world)
                       for query in queries]
            weight = (sampled_weight if sampled_weight is not None
                      else self._joint_weight(working, involved, combo))
            yield combo, involved, answers, weight
        self.stats.component_joint += 1

    def _component_joint_answers(self, working: WorldSetDecomposition,
                                 query: SelectQuery,
                                 items: list[tuple[str, str]]
                                 ) -> tuple[list[Relation], list[float]]:
        answers: list[Relation] = []
        weights: list[float] = []
        for _combo, _involved, answer, weight in self._iter_component_joints(
                working, query, items, allow_sampling=True):
            answers.append(answer)
            weights.append(weight)
        return answers, weights

    def _component_joint_entries(self, working: WorldSetDecomposition,
                                 query: SelectQuery,
                                 items: list[tuple[str, str]]
                                 ) -> tuple[Schema,
                                            list[tuple[tuple, list[Condition]]]]:
        """Entries for installing a plain aggregate query's per-world answers.

        Each joint alternative is one full condition; a row that appears in
        several joint answers carries the disjunction of their conditions, so
        the installed relation reproduces every per-world answer exactly.
        An install path: never samples.
        """
        return self._entries_from_joints(
            working,
            ((combo, involved, answer)
             for combo, involved, answer, _weight
             in self._iter_component_joints(working, query, items)))

    def _entries_from_joints(self, working: WorldSetDecomposition, joints
                             ) -> tuple[Schema,
                                        list[tuple[tuple, list[Condition]]]]:
        """Entries from ``(combo, involved, answer)`` joint alternatives:
        every answer row copy carries the pinned per-joint conditions of the
        alternatives producing it."""
        from collections import Counter

        schema: Schema | None = None
        row_order: list[tuple] = []
        copies: dict[tuple, list[list[Condition]]] = {}
        for combo, involved, answer in joints:
            atoms = [(index, frozenset([alt_index]))
                     for index, alt_index in zip(involved, combo)
                     if len(working.components[index]) > 1]
            condition = Condition(tuple(sorted(atoms, key=lambda kv: kv[0])))
            if schema is None:
                schema = answer.schema
            for row, count in Counter(answer.rows).items():
                if row not in copies:
                    row_order.append(row)
                slots = copies.setdefault(row, [])
                for copy_index in range(count):
                    if copy_index >= len(slots):
                        slots.append([])
                    slots[copy_index].append(condition)
        entries: list[tuple[tuple, list[Condition]]] = []
        for row in row_order:
            for conditions in copies[row]:
                entries.append((row, conditions))
        return schema if schema is not None else Schema([]), entries

    # -- assert (conditioning) ------------------------------------------------------------------

    def _apply_assert(self, working: WorldSetDecomposition,
                      condition: Expression) -> WorldSetDecomposition:
        """Condition the decomposition on a world-level boolean and re-normalise.

        The event is compiled into independent conjunctive *factors* wherever
        possible (``assert A and B`` splits; ``assert not exists(...)`` —
        a negated DNF — splits per connected group of candidate template
        tuples).  Each factor is conditioned separately, so only the
        components one factor actually correlates are ever merged and the
        enumeration guard applies per factor, never to the joint of
        everything the whole assert touches.
        """
        for fields, predicate in self._world_event_factors(working, condition):
            touched = [component for component in working.components
                       if set(component.fields) & set(fields)]
            joint = 1
            for component in touched:
                joint *= len(component)
            ensure_enumerable(joint, self.limit, operation="condition on")
            try:
                conditioned = working.condition(predicate, fields)
            except DecompositionError as exc:
                raise WorldSetError("assert dropped every world") from exc
            # Re-normalise between factors so a merge one factor caused does
            # not inflate the joint the next factor has to touch.
            working = normalize(conditioned)
        return working

    def _world_event_factors(self, working: WorldSetDecomposition,
                             expression: Expression
                             ) -> list[tuple[set[Field],
                                             Callable[[dict[Field, Any]], bool]]]:
        """Compile *expression* into conjunctive event factors.

        The conjunction of the returned ``(fields, predicate)`` factors is
        equivalent to the asserted condition; factors over disjoint field
        sets condition independent parts of the decomposition.
        """
        factors = self._compile_event_factors(working, expression)
        if factors is not None:
            return factors
        return [self._world_event(working, expression)]

    def _compile_event_factors(self, working: WorldSetDecomposition,
                               expression: Expression
                               ) -> Optional[list[tuple[set[Field],
                                                        Callable[[dict[Field, Any]], bool]]]]:
        from ..relational.expressions import BinaryOp, UnaryOp

        if isinstance(expression, BinaryOp) and \
                expression.operator.lower() == "and":
            left = self._compile_event_factors(working, expression.left)
            if left is None:
                return None
            right = self._compile_event_factors(working, expression.right)
            if right is None:
                return None
            return left + right
        negated_exists: Optional[ExistsSubquery] = None
        if isinstance(expression, ExistsSubquery) and expression.negated:
            negated_exists = expression
        elif isinstance(expression, UnaryOp) \
                and expression.operator.lower() == "not" \
                and isinstance(expression.operand, ExistsSubquery) \
                and not expression.operand.negated:
            negated_exists = expression.operand
        if negated_exists is not None:
            factors = self._not_exists_factors(working, negated_exists)
            if factors is not None:
                return factors
        compiled = self._compile_pruned_event(working, expression)
        if compiled is None:
            return None
        return [compiled]

    def _not_exists_factors(self, working: WorldSetDecomposition,
                            node: ExistsSubquery
                            ) -> Optional[list[tuple[set[Field],
                                                     Callable[[dict[Field, Any]], bool]]]]:
        """``assert not exists(...)`` as one factor per independent group.

        The compiled EXISTS event is a DNF: one clause per candidate template
        tuple that could produce a matching row.  Its negation is a
        conjunction of negated clauses, and candidates touching disjoint
        component sets are independent — so conditioning happens per
        connected group of candidates, never on the joint of every touched
        component.
        """
        compiled = self._exists_candidates(working, node)
        if compiled is None:
            return None
        candidates, row_matches = compiled
        if not candidates:
            # Nothing can match: NOT EXISTS holds in every world.
            return [(set(), lambda assignment: True)]
        component_of = self._component_index(working)
        groups = connected_groups(
            candidates,
            lambda candidate: (component_of[f] for f in candidate.fields()))
        factors = []
        for group in groups:
            fields = {f for candidate in group for f in candidate.fields()}

            def predicate(assignment: dict[Field, Any],
                          group: list[TemplateTuple] = group) -> bool:
                for candidate in group:
                    row = candidate.instantiate(assignment)
                    if row is not None and row_matches(row):
                        return False
                return True

            factors.append((fields, predicate))
        return factors

    def _world_event(self, working: WorldSetDecomposition,
                     expression: Expression
                     ) -> tuple[set[Field], Callable[[dict[Field, Any]], bool]]:
        """Compile a world-level condition into ``(fields, predicate)``.

        The compiled event only involves the fields that can influence the
        condition, so conditioning merges as few components as possible —
        this is the field-aware pushdown that keeps ``assert`` local.
        """
        compiled = self._compile_pruned_event(working, expression)
        if compiled is not None:
            return compiled
        return self._generic_event(working, expression)

    def _compile_pruned_event(self, working: WorldSetDecomposition,
                              expression: Expression
                              ) -> Optional[tuple[set[Field],
                                                  Callable[[dict[Field, Any]], bool]]]:
        from ..relational.expressions import BinaryOp, UnaryOp

        if isinstance(expression, UnaryOp) and expression.operator.lower() == "not":
            inner = self._compile_pruned_event(working, expression.operand)
            if inner is None:
                return None
            fields, predicate = inner
            return fields, lambda assignment: not predicate(assignment)
        if isinstance(expression, BinaryOp) and \
                expression.operator.lower() in ("and", "or"):
            left = self._compile_pruned_event(working, expression.left)
            right = self._compile_pruned_event(working, expression.right)
            if left is None or right is None:
                return None
            combine = all if expression.operator.lower() == "and" else any
            fields = left[0] | right[0]
            return fields, lambda assignment: combine(
                (left[1](assignment), right[1](assignment)))
        if isinstance(expression, ExistsSubquery):
            return self._compile_exists_event(working, expression)
        return None

    def _compile_exists_event(self, working: WorldSetDecomposition,
                              node: ExistsSubquery
                              ) -> Optional[tuple[set[Field],
                                                  Callable[[dict[Field, Any]], bool]]]:
        compiled = self._exists_candidates(working, node)
        if compiled is None:
            return None
        candidates, row_matches = compiled
        fields = {f for t in candidates for f in t.fields()}

        def predicate(assignment: dict[Field, Any]) -> bool:
            exists = False
            for template_tuple in candidates:
                row = template_tuple.instantiate(assignment)
                if row is not None and row_matches(row):
                    exists = True
                    break
            return not exists if node.negated else exists

        return fields, predicate

    def _exists_candidates(self, working: WorldSetDecomposition,
                           node: ExistsSubquery
                           ) -> Optional[tuple[list[TemplateTuple],
                                               Callable[[tuple], bool]]]:
        """The template tuples that could satisfy an EXISTS subquery.

        Returns ``(candidates, row_matches)`` — the candidate tuples whose
        some grounding satisfies the subquery's WHERE, plus the row-level
        match test — or ``None`` when the subquery shape is unsupported.
        The (non-negated) EXISTS event is the DNF "some candidate
        instantiates to a matching row".
        """
        query = node.query
        if not isinstance(query, SelectQuery):
            return None
        if (query.quantifier is not None or query.conf
                or query.assert_condition is not None
                or query.group_worlds_by is not None
                or query.group_by or query.having is not None
                or query.limit is not None or query.offset):
            return None
        if len(query.from_clause) != 1:
            return None
        ref = query.from_clause[0]
        if not isinstance(ref, NamedTableRef) or ref.repair is not None \
                or ref.choice is not None or ref.name.lower() in self.views:
            return None
        if query.where is not None and (
                contains_subquery(query.where)
                or contains_aggregate(query.where)):
            return None
        for item in query.select_items:
            if contains_aggregate(item.expression) \
                    or contains_subquery(item.expression):
                # An aggregate select list makes EXISTS always true (one
                # output row); leave those shapes to the generic event.
                return None
        try:
            name = self._canonical_name(working, ref.name)
        except UnknownRelationError:
            return None
        alias = ref.effective_alias()
        schema = working.template.schemas[name].with_qualifier(alias)
        where = query.where

        def row_matches(row: tuple) -> bool:
            if where is None:
                return True
            context = EvalContext(schema=schema, row=row)
            return where.evaluate(context) is True

        candidates = []
        for template_tuple, sym in self._ground_by_tuple(working, name):
            if any(row_matches(ground.row) for ground in sym):
                candidates.append(template_tuple)
        return candidates, row_matches

    def _ground_by_tuple(self, working: WorldSetDecomposition, name: str
                         ) -> list[tuple[TemplateTuple, list[SymTuple]]]:
        """Ground each template tuple of *name* separately (for pruning)."""
        component_of = self._component_index(working)
        return [(template_tuple,
                 self._ground_tuples(working, [template_tuple], component_of))
                for template_tuple in working.template.relation_tuples(name)]

    def _generic_event(self, working: WorldSetDecomposition,
                       expression: Expression
                       ) -> tuple[set[Field], Callable[[dict[Field, Any]], bool]]:
        names = []
        for name in _referenced_relation_names(expression):
            if name.lower() in self.views:
                raise UnsupportedFeatureError(
                    "views cannot be referenced inside an assert condition "
                    "on the wsd backend; materialise the view first")
            names.append(self._canonical_name(working, name))
        fields = {f
                  for name in names
                  for t in working.template.relation_tuples(name)
                  for f in t.fields()}

        def predicate(assignment: dict[Field, Any]) -> bool:
            from ..core.executor import Executor

            catalog = Catalog()
            for name in names:
                catalog.create(name, _instantiate_relation(
                    working.template, name, assignment))
            executor = Executor(self.views)
            env = executor._make_env(World(catalog))
            context = EvalContext(schema=Schema([]), row=(),
                                  subquery_evaluator=env.subquery_evaluator)
            return expression.evaluate(context) is True

        return fields, predicate

    # -- installing symbolic answers -------------------------------------------------------------

    def _install_entries(self, working: WorldSetDecomposition, name: str,
                         schema: Schema,
                         entries: list[tuple[tuple, list[Condition]]],
                         keep: str) -> WorldSetDecomposition:
        """Bind *entries* as relation *name*: conditions become presence fields.

        ``keep`` selects which existing relations survive: ``"extend"`` keeps
        everything (transient materialisation during FROM resolution),
        ``"session"`` drops transients and replaces *name* (CREATE TABLE AS),
        ``"answer"`` keeps only the new relation (a compact query answer).
        Components whose fields are no longer referenced are projected away
        and the result is re-normalised.
        """
        groups: dict[int, _Group] = {}

        def group_for(index: int) -> "_Group":
            if index not in groups:
                groups[index] = _Group.from_component(
                    index, working.components[index])
            return groups[index]

        def merge_for(indexes: Sequence[int]) -> "_Group":
            unique: list[_Group] = []
            for index in indexes:
                group = group_for(index)
                if all(group is not existing for existing in unique):
                    unique.append(group)
            merged = unique[0]
            for group in unique[1:]:
                merged = merged.merge(group)
            for origin in merged.origins:
                groups[origin] = merged
            return merged

        template = self._surviving_template(working, name, schema, keep)
        presence_counter = self._fresh_field_start(working, name)
        for row, conditions in entries:
            satisfiable = [c for c in conditions if c is not None]
            if any(condition.is_true() for condition in satisfiable):
                template.add_tuple(name, row)
                continue
            if not satisfiable:
                continue
            involved: list[int] = []
            for condition in satisfiable:
                for index in condition.component_ids():
                    if index not in involved:
                        involved.append(index)
            group = merge_for(involved)
            presence = Field(name, presence_counter, EXISTS_ATTRIBUTE)
            presence_counter += 1
            group.attach_presence(presence, satisfiable)
            template.add_tuple(name, row, presence=presence)
        final_components = [component
                            for index, component in enumerate(working.components)
                            if index not in groups]
        seen_groups: list[_Group] = []
        for group in groups.values():
            if all(group is not existing for existing in seen_groups):
                seen_groups.append(group)
        final_components.extend(group.to_component()
                                for group in seen_groups)
        return prune_and_normalize(template, final_components)

    def _surviving_template(self, working: WorldSetDecomposition, name: str,
                            schema: Schema, keep: str) -> Template:
        template = Template()
        if keep not in ("extend", "session", "answer"):
            raise AnalysisError(f"unknown install mode {keep!r}")
        if keep != "answer":
            for existing, existing_schema in working.template.schemas.items():
                if existing.lower() == name.lower():
                    continue
                if keep == "session" and existing.startswith(TRANSIENT_PREFIX):
                    continue
                template.schemas[existing] = existing_schema
            for template_tuple in working.template.tuples:
                if template_tuple.relation in template.schemas:
                    template.tuples.append(template_tuple)
        template.add_relation(name, schema.without_qualifiers())
        return template

    def _fresh_field_start(self, working: WorldSetDecomposition,
                           name: str) -> int:
        used = [f.tuple_id
                for component in working.components
                for f in component.fields
                if f.relation.lower() == name.lower()]
        used += [f.tuple_id for f in working.template.all_fields()
                 if f.relation.lower() == name.lower()]
        return max(used, default=-1) + 1

    # -- fallback ---------------------------------------------------------------------------------

    def _fallback(self, query: Query) -> WSDQueryResult:
        """Decompose-then-enumerate: the guarded explicit execution path."""
        from ..core.executor import Executor

        self.stats.fallback += 1
        world_set = self.base.to_worldset(self.limit)
        outcome = Executor(self.views).evaluate_query(query, world_set)
        return WSDQueryResult(kind="explicit", explicit=outcome)

    # -- template bookkeeping ---------------------------------------------------------------------

    def _canonical_name(self, working: WorldSetDecomposition,
                        name: str) -> str:
        return canonical_relation_name(working.template, name)

    def _relation_is_certain(self, working: WorldSetDecomposition,
                             name: str) -> bool:
        return relation_is_certain(working.template, name)

    def _materialise_certain(self, working: WorldSetDecomposition,
                             name: str) -> Relation:
        return materialise_certain(working.template, name)

    def _component_index(self, working: WorldSetDecomposition
                         ) -> dict[Field, int]:
        mapping: dict[Field, int] = {}
        for index, component in enumerate(working.components):
            for f in component.fields:
                mapping[f] = index
        return mapping


# -- install bookkeeping ------------------------------------------------------------------------


class _Group:
    """A set of merged components, tracking original alternative indexes.

    Attaching a presence field needs to evaluate conditions (which speak
    about *original* component alternatives) against merged alternatives, so
    each merged alternative remembers the original index per origin.
    """

    __slots__ = ("origins", "fields", "values", "probs", "alt_origins")

    def __init__(self, origins: list[int], fields: list[Field],
                 values: list[tuple], probs: list[float | None],
                 alt_origins: list[tuple[int, ...]]) -> None:
        self.origins = origins
        self.fields = fields
        self.values = values
        self.probs = probs
        self.alt_origins = alt_origins

    @classmethod
    def from_component(cls, index: int, component: Component) -> "_Group":
        return cls([index], list(component.fields),
                   [a.values for a in component.alternatives],
                   [a.probability for a in component.alternatives],
                   [(i,) for i in range(len(component.alternatives))])

    def merge(self, other: "_Group") -> "_Group":
        values: list[tuple] = []
        probs: list[float | None] = []
        alt_origins: list[tuple[int, ...]] = []
        for mine, mine_p, mine_o in zip(self.values, self.probs,
                                        self.alt_origins):
            for theirs, theirs_p, theirs_o in zip(other.values, other.probs,
                                                  other.alt_origins):
                values.append(mine + theirs)
                if mine_p is not None and theirs_p is not None:
                    probs.append(mine_p * theirs_p)
                else:
                    probs.append(None)
                alt_origins.append(mine_o + theirs_o)
        return _Group(self.origins + other.origins,
                      self.fields + other.fields, values, probs, alt_origins)

    def attach_presence(self, presence: Field,
                        conditions: Sequence[Condition]) -> None:
        self.fields.append(presence)
        for position, origin_indexes in enumerate(self.alt_origins):
            choice = dict(zip(self.origins, origin_indexes))
            present = any(condition.holds(choice) for condition in conditions)
            self.values[position] = self.values[position] + (present,)

    def to_component(self) -> Component:
        # A component cannot mix weighted and unweighted alternatives; a
        # group stays probabilistic only when every alternative carries a
        # probability (merging a weighted with an unweighted component drops
        # to the unweighted reading, mirroring the explicit backend's
        # probability-None propagation).
        probs = self.probs
        if any(prob is None for prob in probs):
            probs = [None] * len(self.values)
        return Component(self.fields,
                         [Alternative(values, prob)
                          for values, prob in zip(self.values, probs)])


# -- module helpers -----------------------------------------------------------------------------


def _compound_needs_per_world(query: Query) -> bool:
    """True when a compound carries ORDER BY / LIMIT / OFFSET at any
    compound nesting level — per-world semantics the entry algebra cannot
    express (LIMIT changes content, ORDER BY orders each world's answer)."""
    if not isinstance(query, CompoundQuery):
        return False
    if query.order_by or query.limit is not None or query.offset:
        return True
    return _compound_needs_per_world(query.left) \
        or _compound_needs_per_world(query.right)


def _compound_limits_content(query: Query) -> bool:
    """True when a compound carries content-changing LIMIT / OFFSET at any
    compound nesting level (pure ORDER BY leaves the answer *set* intact,
    which is all the condition-annotated entries represent)."""
    if not isinstance(query, CompoundQuery):
        return False
    if query.limit is not None or query.offset:
        return True
    return _compound_limits_content(query.left) \
        or _compound_limits_content(query.right)


def _flatten_and(expression: Expression) -> list[Expression]:
    """Split a conjunction into its top-level conjuncts."""
    from ..relational.expressions import BinaryOp

    if isinstance(expression, BinaryOp) and expression.operator.lower() == "and":
        return _flatten_and(expression.left) + _flatten_and(expression.right)
    return [expression]


def canonical_relation_name(template: Template, name: str) -> str:
    """Resolve *name* case-insensitively to the template's stored key."""
    for existing in template.schemas:
        if existing.lower() == name.lower():
            return existing
    raise UnknownRelationError(name)


def relation_is_certain(template: Template, name: str) -> bool:
    """True when every template tuple of *name* is fully constant."""
    return all(not t.fields() for t in template.relation_tuples(name))


def materialise_certain(template: Template, name: str) -> Relation:
    """Build the concrete relation of a certain template relation."""
    relation = Relation(template.schemas[name], [], name=name)
    relation.rows = [t.cells for t in template.relation_tuples(name)]
    return relation


def prune_and_normalize(template: Template,
                        components: Iterable[Component]
                        ) -> WorldSetDecomposition:
    """Drop fields no template tuple references, then re-normalise.

    Worlds distinguishable only through dropped fields merge; for
    non-probabilistic components the projection keeps duplicate alternatives
    so the uniform world weights stay faithful to the explicit backend.
    """
    referenced = {f for t in template.tuples for f in t.fields()}
    pruned: list[Component] = []
    for component in components:
        kept_fields = [f for f in component.fields if f in referenced]
        if not kept_fields:
            continue
        if len(kept_fields) == len(component.fields):
            pruned.append(component)
        elif component.is_probabilistic():
            pruned.append(component.project(kept_fields))
        else:
            positions = [component.field_index(f) for f in kept_fields]
            alternatives = [Alternative(tuple(a.values[p] for p in positions))
                            for a in component.alternatives]
            pruned.append(Component(kept_fields, alternatives))
    return normalize(WorldSetDecomposition(template, pruned))


def _make_relation(schema: Schema, rows: list[tuple]) -> Relation:
    relation = Relation(schema, [], coerce=False)
    relation.rows = list(rows)
    return relation


def _merge_entries(pairs: Iterable[tuple[tuple, Condition]]
                   ) -> dict[tuple, list[Condition]]:
    merged: dict[tuple, list[Condition]] = {}
    for row, condition in pairs:
        merged.setdefault(row, []).append(condition)
    return merged


def _instantiate_relation(template: Template, name: str,
                          assignment: dict[Field, Any]) -> Relation:
    relation = Relation(template.schemas[name], [], name=name)
    rows = []
    for template_tuple in template.relation_tuples(name):
        row = template_tuple.instantiate(assignment)
        if row is not None:
            rows.append(row)
    relation.rows = rows
    return relation


def _merge_decompositions(base: WorldSetDecomposition,
                          extension: WorldSetDecomposition
                          ) -> WorldSetDecomposition:
    """Union of templates and components (field sets must be disjoint)."""
    template = Template(dict(base.template.schemas),
                        list(base.template.tuples))
    for name, schema in extension.template.schemas.items():
        template.schemas[name] = schema
    template.tuples.extend(extension.template.tuples)
    return WorldSetDecomposition(
        template, list(base.components) + list(extension.components))


def _uniformise(decomposition: WorldSetDecomposition) -> WorldSetDecomposition:
    """Give unweighted components uniform probabilities.

    Used when an unweighted ``repair by key`` / ``choice of`` extends a
    probabilistic decomposition: the explicit backend divides the parent
    world's mass uniformly among the split worlds, and the WSD counterpart
    of that is a uniform component.
    """
    components = []
    for component in decomposition.components:
        if component.is_probabilistic():
            components.append(component)
        else:
            uniform = 1.0 / len(component.alternatives)
            components.append(Component(
                component.fields,
                [Alternative(a.values, uniform)
                 for a in component.alternatives]))
    return WorldSetDecomposition(decomposition.template, components)


def _strip_world_clauses(query: SelectQuery,
                         items: Optional[list[tuple[str, str]]] = None,
                         keep_collection: bool = False) -> SelectQuery:
    """The plain per-world core of *query* (world-level clauses removed).

    When *items* is given the FROM clause is rewritten to the resolved
    relation names, so repairs / choices / views already materialised into
    the working decomposition are referenced directly.
    """
    from_clause: list[TableRef]
    if items is not None:
        from_clause = [NamedTableRef(name, alias) for name, alias in items]
    else:
        from_clause = list(query.from_clause)
    return SelectQuery(
        select_items=list(query.select_items),
        from_clause=from_clause,
        where=query.where,
        group_by=list(query.group_by),
        having=query.having,
        order_by=list(query.order_by),
        limit=query.limit,
        offset=query.offset,
        distinct=query.distinct,
        quantifier=query.quantifier if keep_collection else None,
        conf=query.conf if keep_collection else False,
        assert_condition=None,
        group_worlds_by=None,
    )
