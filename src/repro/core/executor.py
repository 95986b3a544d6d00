"""Possible-worlds execution of I-SQL queries over the explicit backend.

The executor is where the I-SQL semantics of the paper lives:

* every query is evaluated *independently in each possible world*;
* ``repair by key`` and ``choice of`` in the FROM clause first expand the
  world-set, one new world per repair / choice;
* ``assert`` drops the worlds violating its condition and renormalises the
  probabilities of the survivors;
* ``possible`` / ``certain`` / ``conf`` collect information across worlds;
* ``group worlds by`` partitions the world-set by the answer of a subquery
  and applies ``possible`` / ``certain`` within each group.

The executor never mutates the world-set it is given: it returns a
:class:`WorldQueryResult` containing the derived world-set and the per-world
answers, and the session decides whether to install that state (``create
table as``) or discard it (plain ``select``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..errors import AnalysisError, UnsupportedFeatureError
from ..relational.algebra import ExecutionEnv, Operator
from ..relational.expressions import EvalContext, _as_boolean
from ..relational.relation import Relation
from ..relational.schema import Column, Schema
from ..worldset.operations import choice_of, repair_by_key
from ..worldset.world import World
from ..worldset.worldset import WorldSet
from ..sqlparser.ast_nodes import (
    CompoundQuery,
    DerivedTableRef,
    NamedTableRef,
    Query,
    RepairByKeyClause,
    SelectQuery,
    TableRef,
)
from .planner import Planner, ResolvedFrom

__all__ = ["WorldQueryResult", "Executor", "TRANSIENT_PREFIX",
           "collect_quantifier"]

#: Prefix of the relation names the executor materialises temporarily inside
#: worlds (repaired relations, view results, derived tables).  The session
#: strips them before installing a derived world-set.
TRANSIENT_PREFIX = "#tmp"


@dataclass
class WorldQueryResult:
    """The full outcome of evaluating a query against a world-set.

    Attributes
    ----------
    world_set:
        The derived world-set (input world-set possibly expanded by
        ``repair by key`` / ``choice of`` and filtered by ``assert``).
    answers:
        The per-world answer relations, aligned with ``world_set.worlds``.
        For ``possible`` / ``certain`` / ``group worlds by`` queries each
        world's entry is the collected relation it would receive on
        materialisation.
    collected:
        The single cross-world relation for ``possible`` / ``certain`` /
        ``conf`` queries evaluated over the whole world-set, else ``None``.
    groups:
        For ``group worlds by`` queries, the list of
        ``(group key, member labels, collected relation)`` triples.
    """

    world_set: WorldSet
    answers: list[Relation]
    collected: Optional[Relation] = None
    groups: Optional[list[tuple[Any, list[Optional[str]], Relation]]] = None


class Executor:
    """Evaluates bound queries with possible-worlds semantics.

    One executor serves one statement: it plans each query block once
    (:meth:`_plan`) and runs that plan in every world, and for every row
    of a correlated outer query.
    """

    def __init__(self, views: dict[str, Query] | None = None) -> None:
        #: Stored view definitions (name, lower-cased, to query AST).
        self.views: dict[str, Query] = {}
        if views:
            for name, query in views.items():
                self.views[name.lower()] = query
        self._transient_counter = 0
        #: This statement's plans of nested query blocks, by AST identity.
        self._plans: dict[int, tuple[Query, Operator]] = {}

    # -- public API -----------------------------------------------------------------------

    def evaluate_query(self, query: Query, world_set: WorldSet) -> WorldQueryResult:
        """Evaluate *query* against *world_set* (which is left untouched)."""
        if isinstance(query, SelectQuery):
            return self._evaluate_select(query, world_set)
        if isinstance(query, CompoundQuery):
            return self._evaluate_compound(query, world_set)
        raise AnalysisError(f"cannot evaluate a {type(query).__name__} as a query")

    def evaluate_plain_in_world(self, query: Query, world: World,
                                outer: Optional[EvalContext] = None) -> Relation:
        """Evaluate a *plain* (world-local) query inside a single world.

        Used for subqueries in expressions, for the ``assert`` condition and
        for the ``group worlds by`` subquery.  World-level constructs are not
        allowed here.
        """
        self._require_plain(query, "a nested query")
        return self._plan(query).execute(self._make_env(world, outer))

    def _plan(self, query: Query) -> Operator:
        """The plan of a nested (or compound) query block, built once."""
        entry = self._plans.get(id(query))
        if entry is None or entry[0] is not query:
            entry = (query, Planner().plan_query(query))
            self._plans[id(query)] = entry
        return entry[1]

    # -- SELECT ------------------------------------------------------------------------------

    def _evaluate_select(self, query: SelectQuery,
                         world_set: WorldSet) -> WorldQueryResult:
        derived, resolved_from = self._resolve_from(query.from_clause, world_set)
        plan = Planner().plan_select(query, resolved_from)
        answers = [plan.execute(self._make_env(world))
                   for world in derived.worlds]
        if query.assert_condition is not None:
            derived, answers = self._apply_assert(query, derived, answers)
        if query.group_worlds_by is not None:
            return self._apply_group_worlds_by(query, derived, answers)
        if query.conf:
            collected = self._apply_conf(query, derived, answers)
            return WorldQueryResult(derived, [collected] * len(derived.worlds),
                                    collected=collected)
        if query.quantifier is not None:
            collected = _collect(query.quantifier, answers)
            return WorldQueryResult(derived, [collected] * len(derived.worlds),
                                    collected=collected)
        return WorldQueryResult(derived, answers)

    def _evaluate_compound(self, query: CompoundQuery,
                           world_set: WorldSet) -> WorldQueryResult:
        self._require_plain(query, "a compound (UNION/INTERSECT/EXCEPT) query")
        plan = self._plan(query)
        return WorldQueryResult(world_set, [plan.execute(self._make_env(world))
                                            for world in world_set.worlds])

    # -- FROM resolution (views, derived tables, repair, choice) ---------------------------------

    def _resolve_from(self, from_clause: list[TableRef], world_set: WorldSet
                      ) -> tuple[WorldSet, list[ResolvedFrom]]:
        """Resolve the FROM items, expanding the world-set where needed.

        Returns the derived world-set plus the per-item resolution handed to
        the planner.  The input world-set is never modified; whenever a
        transformation is needed the worlds are copied first.
        """
        current = world_set
        resolved: list[ResolvedFrom] = []
        for ref in from_clause:
            current, item = self._resolve_table_ref(ref, current)
            resolved.append(item)
        return current, resolved

    def _resolve_table_ref(self, ref: TableRef, world_set: WorldSet
                           ) -> tuple[WorldSet, ResolvedFrom]:
        """A view or derived table is evaluated and stored transiently; a
        decoration then repairs / partitions the source into a transient
        relation, expanding the world-set."""
        if isinstance(ref, DerivedTableRef):
            query: Optional[Query] = ref.query
        elif isinstance(ref, NamedTableRef):
            query = self.views.get(ref.name.lower())
        else:
            raise AnalysisError(f"unknown FROM item {ref!r}")
        source = ref.name if query is None else self._new_transient_name()
        if query is not None:
            inner = self.evaluate_query(query, world_set)
            world_set = WorldSet([
                world.with_relation(source, answer)
                for world, answer in zip(inner.world_set.worlds,
                                         inner.answers)])
        decoration = ref.decoration
        if decoration is None:
            return world_set, ResolvedFrom(source, ref.effective_alias())
        transient = self._new_transient_name()
        expand = repair_by_key if isinstance(decoration, RepairByKeyClause) \
            else choice_of
        expanded = expand(world_set, source, decoration.attributes,
                          weight=decoration.weight, target_name=transient)
        return expanded, ResolvedFrom(transient, ref.effective_alias())

    def _new_transient_name(self) -> str:
        self._transient_counter += 1
        return f"{TRANSIENT_PREFIX}{self._transient_counter}"

    # -- per-world evaluation ----------------------------------------------------------------------

    def _make_env(self, world: World,
                  outer: Optional[EvalContext] = None) -> ExecutionEnv:
        def evaluate_subquery(subquery: Query, context: EvalContext) -> list[tuple]:
            relation = self.evaluate_plain_in_world(subquery, world, outer=context)
            return list(relation.rows)

        return ExecutionEnv(catalog=world.catalog,
                            subquery_evaluator=evaluate_subquery,
                            outer_context=outer)

    # -- assert ---------------------------------------------------------------------------------------

    def _apply_assert(self, query: SelectQuery, world_set: WorldSet,
                      answers: list[Relation]
                      ) -> tuple[WorldSet, list[Relation]]:
        """Drop the worlds whose ``assert`` condition is not satisfied."""
        keep_flags: list[bool] = []
        for world in world_set.worlds:
            keep_flags.append(self._world_condition_holds(
                query.assert_condition, world))
        if not any(keep_flags):
            from ..errors import WorldSetError

            raise WorldSetError("assert dropped every world")
        kept_answers = [answer for answer, keep in zip(answers, keep_flags) if keep]
        survivors = [world.copy() for world, keep
                     in zip(world_set.worlds, keep_flags) if keep]
        if survivors[0].probability is not None:
            from ..worldset.probability import normalize

            scaled = normalize([world.probability for world in survivors])
            for world, probability in zip(survivors, scaled):
                world.probability = probability
        return WorldSet(survivors), kept_answers

    def _world_condition_holds(self, condition, world: World) -> bool:
        """Evaluate a world-level boolean condition (no row context)."""
        env = self._make_env(world)
        context = EvalContext(row=(), subquery_evaluator=env.subquery_evaluator)
        return bool(_as_boolean(condition.evaluate(context)))

    # -- possible / certain / conf -----------------------------------------------------------------------

    def _apply_conf(self, query: SelectQuery, world_set: WorldSet,
                    answers: list[Relation]) -> Relation:
        """Implement ``SELECT CONF [select list] FROM ...``.

        With an empty select list the result is the probability mass of the
        worlds whose (per-world) answer is non-empty — this covers the
        world-level conditions of Example 2.10.  With a select list each
        distinct answer tuple is returned together with its confidence, i.e.
        the total probability of the worlds whose answer contains it.
        """
        weights = world_set._world_weights()
        if not query.select_items:
            mass = sum(weight for answer, weight in zip(answers, weights)
                       if len(answer) > 0)
            schema = Schema([Column("conf")])
            result = Relation(schema, [], coerce=False)
            result.rows = [(mass,)]
            return result
        confidence: dict[tuple, float] = {}
        order: list[tuple] = []
        for answer, weight in zip(answers, weights):
            for row in set(answer.rows):
                if row not in confidence:
                    confidence[row] = 0.0
                    order.append(row)
                confidence[row] += weight
        schema = Schema(list(answers[0].schema.without_qualifiers().columns)
                        + [Column("conf")])
        result = Relation(schema, [], coerce=False)
        result.rows = [row + (confidence[row],) for row in order]
        return result

    # -- group worlds by -------------------------------------------------------------------------------------

    def _apply_group_worlds_by(self, query: SelectQuery, world_set: WorldSet,
                               answers: list[Relation]) -> WorldQueryResult:
        """Partition the worlds by the answer of the grouping subquery, then
        apply ``possible`` / ``certain`` within each group."""
        grouping_query = query.group_worlds_by.query
        keys = []
        for world in world_set.worlds:
            answer = self.evaluate_plain_in_world(grouping_query, world)
            keys.append(answer.fingerprint())
        order: list[Any] = []
        members: dict[Any, list[int]] = {}
        for index, key in enumerate(keys):
            if key not in members:
                order.append(key)
                members[key] = []
            members[key].append(index)
        quantifier = query.quantifier or "possible"
        groups: list[tuple[Any, list[Optional[str]], Relation]] = []
        per_world: list[Relation] = list(answers)
        for key in order:
            indexes = members[key]
            collected = _collect(quantifier, [answers[i] for i in indexes])
            labels = [world_set.worlds[i].label for i in indexes]
            groups.append((key, labels, collected))
            for i in indexes:
                per_world[i] = collected
        return WorldQueryResult(world_set, per_world, groups=groups)

    # -- validation --------------------------------------------------------------------------------------------

    def _require_plain(self, query: Query, where: str) -> None:
        """Reject world-level constructs in contexts that are world-local."""
        if isinstance(query, CompoundQuery):
            self._require_plain(query.left, where)
            self._require_plain(query.right, where)
            return
        if not isinstance(query, SelectQuery):
            raise AnalysisError(f"{where} must be a SELECT")
        if query.quantifier is not None or query.conf:
            raise UnsupportedFeatureError(
                f"possible/certain/conf is not supported inside {where}")
        if query.assert_condition is not None or query.group_worlds_by is not None:
            raise UnsupportedFeatureError(
                f"assert / group worlds by is not supported inside {where}")
        for ref in query.from_clause:
            if isinstance(ref, NamedTableRef):
                if ref.decoration is not None:
                    raise UnsupportedFeatureError(
                        f"repair by key / choice of is not supported inside {where}")
                if ref.name.lower() in self.views:
                    raise UnsupportedFeatureError(
                        f"views cannot be referenced inside {where}; "
                        "materialise the view with CREATE TABLE ... AS first")
            elif isinstance(ref, DerivedTableRef):
                self._require_plain(ref.query, where)


def collect_quantifier(quantifier: str, answers: list[Relation]) -> Relation:
    """Union (possible) or intersection (certain) of per-world answers.

    Shared by the explicit executor and the WSD-native executor's
    component-joint evaluation path, so both backends collect identically.
    """
    return _collect(quantifier, answers)


def _collect(quantifier: str, answers: list[Relation]) -> Relation:
    """Union (possible) or intersection (certain) of per-world answers."""
    if not answers:
        raise AnalysisError("cannot collect over an empty world-set")
    result = answers[0].distinct()
    for answer in answers[1:]:
        if quantifier == "possible":
            result = result.union(answer, distinct=True)
        elif quantifier == "certain":
            result = result.intersect(answer, distinct=True)
        else:
            raise AnalysisError(f"unknown quantifier {quantifier!r}")
    return result.with_schema(result.schema.without_qualifiers())
