"""Decomposed aggregate evaluation: convolution over independent components.

Aggregate queries (``sum`` / ``count`` / ``avg`` / ``min`` / ``max``, with or
without ``DISTINCT`` / ``GROUP BY`` / ``HAVING``) genuinely need per-world
answers, and the pre-existing strategy — jointly enumerating every component
the query touches — is exponential in the number of touched components.  This
module computes the exact *distribution* of the aggregate answer directly on
the decomposition instead:

1. The symbolic executor grounds the query's FROM/WHERE into condition-
   annotated rows; each surviving row is one **contribution**
   ``(group key, condition, state delta)``.
2. Contributions are partitioned into independent **clusters** (connected
   groups over the components their conditions touch — one cluster per key
   group for repair-key decompositions).
3. Per cluster, the **local distribution** of the cluster's aggregate
   contribution is computed by enumerating only the cluster's own joint
   alternatives (linear in the cluster's alternative count for single-
   component clusters): each joint alternative pins which rows exist and
   what they contribute.
4. Cluster distributions combine by **sparse convolution**: a
   dict-of-state→mass Minkowski-sum DP whose size is the number of distinct
   partial aggregate states (pseudo-polynomial in the distinct partial sums
   for SUM/COUNT, the value lattice for MIN/MAX, and paired (sum, count)
   states for AVG), never the number of worlds.

``possible`` / ``certain`` / ``conf``-decorated aggregates, HAVING
predicates and aggregate comparisons in scalar subqueries all read off the
same final distribution.  States with zero probability mass are *kept*, so
the logical readings (possible / certain) still see zero-probability worlds,
exactly like the explicit backend.

The state space is guarded by a budget: genuinely correlated shapes (e.g.
aggregates under non-factorising WHERE joins that chain every component into
one cluster) raise :class:`AggregateBudgetExceededError` and the executor
falls back to the guarded joint enumeration, counted in
:attr:`~repro.wsd.execute.WsdExecutionStats.aggregate_fallbacks` so
benchmarks and CI can assert the scalable query classes never enumerate.

Floating-point caveat: two joint alternatives whose partial sums are equal
as *numbers* but were accumulated in different orders may yield distinct
float states; each state is still exact for the worlds it covers, the
distribution just stays finer-grained than strictly necessary.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Any, Callable, Optional, Sequence

from ..errors import AggregateError, ResourceBudgetError
from ..relational.expressions import (
    AggregateCall,
    EvalContext,
    Expression,
    SUBQUERY_NODES,
    ScalarSubquery,
    Star,
    _as_boolean,
    conjuncts,
    contains_aggregate,
    contains_subquery,
    rewrite,
)
from ..relational.types import sql_compare
from ..sqlparser.ast_nodes import NamedTableRef, SelectQuery
from .confidence import connected_groups
from .decomposition import joint_alternatives

__all__ = [
    "AggregateBudgetExceededError",
    "AggregatePlan",
    "AggregateStats",
    "Contribution",
    "DecomposedAggregator",
    "DEFAULT_STATE_BUDGET",
    "EvalSlots",
    "analyse_aggregate_query",
    "plan_contributions",
]

#: Maximum number of states in any distribution (per-cluster or convolved)
#: and maximum joint alternative count enumerated within one cluster.  Real
#: factorised workloads stay orders of magnitude below this; exceeding it
#: signals a genuinely correlated shape that must fall back to the guarded
#: joint enumeration.
DEFAULT_STATE_BUDGET = 200_000


class AggregateBudgetExceededError(ResourceBudgetError):
    """The aggregate state space exceeded its budget (correlated shape)."""

    def __init__(self, budget: int, reason: str) -> None:
        super().__init__(
            f"decomposed aggregate evaluation exceeded its budget of "
            f"{budget} ({reason}); falling back to guarded joint enumeration",
            kind="aggregate-states", budget=budget)
        self.reason = reason


@dataclass
class AggregateStats:
    """How decomposed aggregates were computed (surfaced by the wsd backend).

    ``queries`` counts queries answered by the convolution engine,
    ``clusters`` the independent clusters whose local distributions were
    enumerated, ``convolutions`` the pairwise distribution convolutions, and
    ``peak_states`` the largest distribution ever materialised — the measure
    that stays pseudo-polynomial where joint enumeration is exponential.
    Counters sum when merged; ``peak_states`` is marked to take the maximum.
    """

    queries: int = 0
    clusters: int = 0
    convolutions: int = 0
    peak_states: int = dataclass_field(default=0, metadata={"merge": "max"})


# -- the per-aggregate state algebra ------------------------------------------------------


def _require_number(value: Any, where: str) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise AggregateError(f"{where} requires numeric inputs, got {value!r}")


def _sql_less(left: Any, right: Any) -> bool:
    result = sql_compare(left, right)
    return result is not None and result < 0


class _ExistsSpec:
    """Slot 0 of every state: does the group have at least one row?"""

    identity = False

    def lift(self, value: Any) -> bool:
        return True

    def combine(self, left: bool, right: bool) -> bool:
        return left or right

    def finalize(self, state: bool) -> bool:
        return state


class _CountSpec:
    """``count(expr)`` / ``count(*)``: additive integer convolution."""

    identity = 0

    def __init__(self, count_star: bool) -> None:
        self.count_star = count_star

    def lift(self, value: Any) -> int:
        return 1 if (self.count_star or value is not None) else 0

    def combine(self, left: int, right: int) -> int:
        return left + right

    def finalize(self, state: int) -> int:
        return state


class _SumSpec:
    """``sum(expr)``: (non-NULL count, total) Minkowski-sum states."""

    identity = (0, 0)

    def lift(self, value: Any) -> tuple[int, Any]:
        if value is None:
            return (0, 0)
        _require_number(value, "sum")
        return (1, value)

    def combine(self, left, right):
        return (left[0] + right[0], left[1] + right[1])

    def finalize(self, state) -> Any:
        return None if state[0] == 0 else state[1]


class _AvgSpec:
    """``avg(expr)``: paired (count, sum) convolution."""

    identity = (0, 0)

    def lift(self, value: Any) -> tuple[int, Any]:
        if value is None:
            return (0, 0)
        _require_number(value, "avg")
        return (1, value)

    def combine(self, left, right):
        return (left[0] + right[0], left[1] + right[1])

    def finalize(self, state) -> Any:
        return None if state[0] == 0 else state[1] / state[0]


class _DistinctSetSpec:
    """``sum/count/avg (DISTINCT expr)``: value-set union states."""

    identity = frozenset()

    def __init__(self, kind: str) -> None:
        self.kind = kind

    def lift(self, value: Any) -> frozenset:
        if value is None:
            return frozenset()
        if self.kind in ("sum", "avg"):
            _require_number(value, self.kind)
        return frozenset((value,))

    def combine(self, left: frozenset, right: frozenset) -> frozenset:
        return left | right

    def finalize(self, state: frozenset) -> Any:
        if self.kind == "count":
            return len(state)
        if not state:
            return None
        total = sum(sorted(state))
        return total if self.kind == "sum" else total / len(state)


class _MinMaxSpec:
    """``min/max(expr)``: running lattice product over the value order."""

    identity = None

    def __init__(self, take_max: bool) -> None:
        self.take_max = take_max

    def lift(self, value: Any) -> Any:
        return value

    def combine(self, left: Any, right: Any) -> Any:
        if left is None:
            return right
        if right is None:
            return left
        if self.take_max:
            return right if _sql_less(left, right) else left
        return right if _sql_less(right, left) else left

    def finalize(self, state: Any) -> Any:
        return state


def _spec_for(call: AggregateCall):
    """The state algebra implementing *call*, or None when unsupported."""
    name = call.name.lower()
    count_star = call.argument is None or isinstance(call.argument, Star)
    if call.distinct and count_star:
        return None
    if name == "count":
        return _DistinctSetSpec("count") if call.distinct \
            else _CountSpec(count_star)
    if count_star:
        return None
    if name in ("sum", "avg"):
        if call.distinct:
            return _DistinctSetSpec(name)
        return _SumSpec() if name == "sum" else _AvgSpec()
    if name in ("min", "max"):
        return _MinMaxSpec(take_max=(name == "max"))
    return None


# -- contributions and the convolution engine ----------------------------------------------


@dataclass(slots=True)
class Contribution:
    """One ground row's effect: a group key, the condition under which the
    row exists, and the state delta it contributes when it does."""

    key: tuple
    condition: Any  # a Condition from repro.wsd.execute (duck-typed)
    delta: tuple


class DecomposedAggregator:
    """Exact aggregate distributions by sparse convolution over clusters.

    States are tuples aligned with ``specs`` (slot 0 is the exists flag);
    distributions are ``dict[state, mass]`` with zero-mass states retained so
    the logical possible / certain readings stay exact.
    """

    def __init__(self, components: Sequence, specs: Sequence,
                 budget: int | None = DEFAULT_STATE_BUDGET,
                 stats: AggregateStats | None = None) -> None:
        self.components = components
        self.specs = list(specs)
        self.budget = budget
        self.stats = stats if stats is not None else AggregateStats()
        self.identity: tuple = tuple(spec.identity for spec in self.specs)

    # -- state algebra ------------------------------------------------------------------

    def combine(self, left: tuple, right: tuple) -> tuple:
        return tuple(spec.combine(a, b)
                     for spec, a, b in zip(self.specs, left, right))

    # -- cluster structure --------------------------------------------------------------

    def _clusters(self, contributions: Sequence[Contribution]
                  ) -> list[list[Contribution]]:
        return connected_groups(
            list(contributions),
            lambda contribution: contribution.condition.component_ids())

    def _cluster_joints(self, cluster: Sequence[Contribution]):
        """Yield ``(choice, weight)`` per joint alternative of the cluster's
        components (guarded by the state budget)."""
        involved = sorted({index
                           for contribution in cluster
                           for index in contribution.condition.component_ids()})
        joint = 1
        for index in involved:
            joint *= len(self.components[index])
        if self.budget is not None and joint > self.budget:
            raise AggregateBudgetExceededError(
                self.budget, f"cluster joint of {joint} alternatives")
        for combo, weight in joint_alternatives(self.components, involved,
                                                None):
            yield dict(zip(involved, combo)), weight

    def _charge_states(self, distribution: dict) -> None:
        size = len(distribution)
        if size > self.stats.peak_states:
            self.stats.peak_states = size
        if self.budget is not None and size > self.budget:
            raise AggregateBudgetExceededError(
                self.budget, f"distribution of {size} states")

    # -- per-key marginal distributions -------------------------------------------------

    def key_distributions(self, contributions: Sequence[Contribution]
                          ) -> dict[tuple, dict[tuple, float]]:
        """Per group key, the marginal distribution of its aggregate state.

        Sound for decorated (conf / possible / certain) queries whose output
        rows identify their group key; rows of different keys never collide,
        so per-key marginals are exactly the per-row masses.
        """
        per_key: dict[tuple, dict[tuple, float]] = {}
        for cluster in self._clusters(contributions):
            self.stats.clusters += 1
            local = self._cluster_key_distributions(cluster)
            for key, distribution in local.items():
                existing = per_key.get(key)
                if existing is None:
                    per_key[key] = distribution
                else:
                    per_key[key] = self._convolve(existing, distribution)
        return per_key

    def _cluster_key_distributions(self, cluster: Sequence[Contribution]
                                   ) -> dict[tuple, dict[tuple, float]]:
        keys: list[tuple] = []
        seen: set[tuple] = set()
        for contribution in cluster:
            if contribution.key not in seen:
                seen.add(contribution.key)
                keys.append(contribution.key)
        result: dict[tuple, dict[tuple, float]] = {key: {} for key in keys}
        for choice, weight in self._cluster_joints(cluster):
            states: dict[tuple, tuple] = {}
            for contribution in cluster:
                if contribution.condition.holds(choice):
                    current = states.get(contribution.key)
                    states[contribution.key] = (
                        contribution.delta if current is None
                        else self.combine(current, contribution.delta))
            for key in keys:
                state = states.get(key, self.identity)
                distribution = result[key]
                distribution[state] = distribution.get(state, 0.0) + weight
                self._charge_states(distribution)
        return result

    def _convolve(self, left: dict[tuple, float],
                  right: dict[tuple, float]) -> dict[tuple, float]:
        """Minkowski-sum DP: combine states pairwise, masses multiply."""
        self.stats.convolutions += 1
        out: dict[tuple, float] = {}
        for state_a, mass_a in left.items():
            for state_b, mass_b in right.items():
                state = self.combine(state_a, state_b)
                out[state] = out.get(state, 0.0) + mass_a * mass_b
            self._charge_states(out)
        return out

    # -- joint answer distribution (plain queries) --------------------------------------

    def cluster_partition(self, contributions: Sequence[Contribution]
                          ) -> list[list[Contribution]]:
        """The independent clusters of *contributions* (connected groups over
        the components their conditions touch), in deterministic order."""
        return self._clusters(contributions)

    def cluster_distribution(self, cluster: Sequence[Contribution]
                             ) -> dict[tuple, float]:
        """One cluster's local mapping distribution (canonical ``(key,
        state)`` tuples -> mass), by enumerating only its own joint
        alternatives.  The world-grouping engine uses these building blocks
        directly to avoid re-convolving untouched clusters."""
        self.stats.clusters += 1
        local: dict[tuple, float] = {}
        for choice, weight in self._cluster_joints(cluster):
            states: dict[tuple, tuple] = {}
            for contribution in cluster:
                if contribution.condition.holds(choice):
                    current = states.get(contribution.key)
                    states[contribution.key] = (
                        contribution.delta if current is None
                        else self.combine(current, contribution.delta))
            mapping = _canonical_mapping(states)
            local[mapping] = local.get(mapping, 0.0) + weight
            self._charge_states(local)
        return local

    def merge_distributions(self, left: dict[tuple, float],
                            right: dict[tuple, float]) -> dict[tuple, float]:
        """Convolve two independent mapping distributions."""
        self.stats.convolutions += 1
        merged: dict[tuple, float] = {}
        for map_a, mass_a in left.items():
            for map_b, mass_b in right.items():
                mapping = self.merge_mappings(map_a, map_b)
                merged[mapping] = merged.get(mapping, 0.0) + mass_a * mass_b
            self._charge_states(merged)
        return merged

    def answer_distribution(self, contributions: Sequence[Contribution]
                            ) -> dict[tuple, float]:
        """Distribution over whole answers: states are canonical tuples of
        ``(key, state)`` pairs for the groups present.  The state count is the
        number of *distinct answers*, not the number of joint alternatives.
        """
        total: dict[tuple, float] | None = None
        for cluster in self._clusters(contributions):
            local = self.cluster_distribution(cluster)
            total = local if total is None \
                else self.merge_distributions(total, local)
        if total is None:
            total = {(): 1.0}
        return total

    def merge_mappings(self, left: tuple, right: tuple) -> tuple:
        merged: dict[tuple, tuple] = dict(left)
        for key, state in right:
            current = merged.get(key)
            merged[key] = state if current is None \
                else self.combine(current, state)
        return _canonical_mapping(merged)


def _canonical_mapping(states: dict[tuple, tuple]) -> tuple:
    return tuple(sorted(states.items(), key=lambda item: repr(item[0])))


# -- slotted expressions (aggregate / key / subquery substitution) -------------------------



@dataclass
class _SlotContext(EvalContext):
    """An :class:`EvalContext` carrying the per-execution slot values.

    Slotted expressions have no column references left, so the row stays
    empty; :class:`_ValueSlot` nodes read their value banks off ``slots``
    instead of any mutable node state.
    """

    slots: "EvalSlots | None" = None


class EvalSlots:
    """Per-execution evaluation state for an immutable :class:`AggregatePlan`.

    A compiled plan is a pure function of the query AST and is shared by
    every thread (see :mod:`repro.wsd.plan_cache`); all state an evaluation
    needs — the current aggregate values, group-key values and subquery
    values — lives here, created per execution and never on the plan.  One
    instance is reused across all rows of one execution.
    """

    __slots__ = ("agg_values", "key_values", "sub_values", "context")

    def __init__(self) -> None:
        self.agg_values: Sequence[Any] = ()
        self.key_values: Sequence[Any] = ()
        self.sub_values: Sequence[Any] = ()
        self.context = _SlotContext(row=(), slots=self)


class _ValueSlot(Expression):
    """A placeholder reading one value bank of the execution's EvalSlots.

    ``bank`` names the :class:`EvalSlots` attribute (``"agg_values"``,
    ``"key_values"`` or ``"sub_values"``) and ``index`` the position within
    it.  The node itself is immutable — evaluation never writes to the plan,
    which is what makes one compiled plan safe to share across threads.
    """

    __slots__ = ("bank", "index")

    def __init__(self, bank: str, index: int) -> None:
        self.bank = bank
        self.index = index

    def evaluate(self, context: EvalContext) -> Any:
        return getattr(context.slots, self.bank)[self.index]

    def children(self) -> Sequence[Expression]:
        return ()

    def sql(self) -> str:  # pragma: no cover - debugging aid
        return f"<slot {self.bank}[{self.index}]>"



def _has_unbound_references(node: Expression) -> bool:
    """True when the (rewritten) tree still needs a row or a subquery."""
    from ..relational.expressions import ColumnRef

    if isinstance(node, (ColumnRef, AggregateCall) + SUBQUERY_NODES):
        return True
    return any(_has_unbound_references(child) for child in node.children())


@dataclass
class _SlottedExpression:
    """An expression with aggregates / group keys / subqueries slotted out.

    Immutable after construction: evaluation binds the value banks into a
    per-call (or caller-provided per-execution) :class:`EvalSlots`, never
    into the expression tree, so one instance may evaluate concurrently in
    any number of threads.
    """

    expression: Expression

    def evaluate(self, agg_values: Sequence[Any] = (),
                 key_values: Sequence[Any] = (),
                 sub_values: Sequence[Any] = (),
                 slots: EvalSlots | None = None) -> Any:
        if slots is None:
            slots = EvalSlots()
        slots.agg_values = agg_values
        slots.key_values = key_values
        slots.sub_values = sub_values
        return self.expression.evaluate(slots.context)


def _build_slotted(expression: Expression, calls: Sequence[AggregateCall],
                   key_exprs: Sequence[Expression],
                   subqueries: Sequence[ScalarSubquery] = ()
                   ) -> Optional[_SlottedExpression]:
    """Slot *expression*'s aggregate calls (by identity), group-key subtrees
    (by SQL text) and scalar subqueries (by identity); None when anything
    row- or world-dependent remains."""
    key_sql = [key.sql().lower() for key in key_exprs]

    def replace(node: Expression) -> Optional[Expression]:
        for index, call in enumerate(calls):
            if node is call:
                return _ValueSlot("agg_values", index)
        for index, subquery in enumerate(subqueries):
            if node is subquery:
                return _ValueSlot("sub_values", index)
        if key_sql and not contains_aggregate(node) \
                and not isinstance(node, SUBQUERY_NODES):
            rendered = node.sql().lower()
            if rendered in key_sql:
                return _ValueSlot("key_values", key_sql.index(rendered))
        return None

    rebuilt = rewrite(expression, replace)
    if _has_unbound_references(rebuilt):
        return None
    return _SlottedExpression(rebuilt)


# -- query shape analysis ------------------------------------------------------------------


@dataclass
class _OutputItem:
    """One select output: either a group-key part or a slotted expression."""

    name: str
    key_index: int | None = None
    slotted: _SlottedExpression | None = None


@dataclass
class _SubqueryAggregate:
    """One scalar aggregate subquery of a ``conf ... WHERE`` comparison."""

    node: ScalarSubquery
    query: SelectQuery
    calls: list[AggregateCall]
    specs: list
    slotted_item: _SlottedExpression


@dataclass
class AggregatePlan:
    """The analysed shape of a query the convolution engine can answer.

    ``kind`` is ``"aggregate"`` (aggregates / GROUP BY / HAVING in the select
    list) or ``"conf_where"`` (``SELECT CONF FROM ... WHERE`` comparing
    scalar aggregate subqueries).
    """

    kind: str
    calls: list[AggregateCall] = dataclass_field(default_factory=list)
    specs: list = dataclass_field(default_factory=list)
    key_exprs: list[Expression] = dataclass_field(default_factory=list)
    outputs: list[_OutputItem] = dataclass_field(default_factory=list)
    having: _SlottedExpression | None = None
    plain_where: Expression | None = None
    world_predicates: list[_SlottedExpression] = dataclass_field(
        default_factory=list)
    subqueries: list[_SubqueryAggregate] = dataclass_field(
        default_factory=list)

    # -- row construction ----------------------------------------------------------------

    def output_names(self) -> list[str]:
        return [output.name for output in self.outputs]

    def finalized_values(self, state: tuple) -> list[Any]:
        """Per-call aggregate values from a state (slot 0 is the exists flag)."""
        return [spec.finalize(inner)
                for spec, inner in zip(self.specs, state[1:])]

    def output_row(self, key: tuple, state: tuple,
                   slots: EvalSlots | None = None) -> tuple:
        values = self.finalized_values(state)
        row = []
        for output in self.outputs:
            if output.key_index is not None:
                row.append(key[output.key_index])
            else:
                row.append(output.slotted.evaluate(values, key, slots=slots))
        return tuple(row)

    def state_included(self, key: tuple, state: tuple,
                       slots: EvalSlots | None = None) -> bool:
        """Does this state put a row for *key* into the per-world answer?"""
        if self.key_exprs and not state[0]:
            return False
        if self.having is not None:
            values = self.finalized_values(state)
            if not _as_boolean(self.having.evaluate(values, key,
                                                    slots=slots)):
                return False
        return True

    def answer_rows(self, states: dict[tuple, tuple],
                    slots: EvalSlots | None = None) -> list[tuple]:
        """The per-world answer rows of one key -> state mapping.

        Shared by the plain aggregate distribution and the world-grouping
        engine's aggregate decoding, so both construct identical answers —
        including the keyless case, where an absent state means no
        contribution existed and the identity state applies.  *slots* is the
        execution's :class:`EvalSlots`; one is created when absent, so the
        (shared, immutable) plan never holds evaluation state itself.
        """
        if slots is None:
            slots = EvalSlots()
        rows: list[tuple] = []
        if not self.key_exprs:
            state = states.get(())
            if state is None:
                state = tuple(spec.identity
                              for spec in [_ExistsSpec()] + self.specs)
            if self.state_included((), state, slots):
                rows.append(self.output_row((), state, slots))
            return rows
        for key, state in states.items():
            if self.state_included(key, state, slots):
                rows.append(self.output_row(key, state, slots))
        return rows


def plan_contributions(plan: "AggregatePlan", joined,
                       wrap_key: Callable[[tuple], tuple] | None = None,
                       slots: EvalSlots | None = None) -> list[Contribution]:
    """One contribution per ground row of *joined* under *plan*.

    The delta vector aligns with ``[_ExistsSpec()] + plan.specs`` (slot 0 is
    the exists flag).  Shared by the executor's aggregate tier and the
    world-grouping compiler so both lift arguments identically;
    ``wrap_key`` lets the grouping engine namespace the group keys and
    *slots* carries the per-execution evaluation state (plans are shared and
    immutable, so the row context lives on the execution, not the plan).
    """
    if slots is None:
        slots = EvalSlots()
    contributions: list[Contribution] = []
    # Re-pointed context: key and argument expressions are subquery-free by
    # plan analysis, so nothing retains the context beyond each evaluate.
    context = EvalContext()
    for sym in joined.tuples:
        context.row = sym.row
        key = tuple(expr.evaluate(context) for expr in plan.key_exprs)
        delta: list[Any] = [True]
        for call, spec in zip(plan.calls, plan.specs):
            if call.argument is None or isinstance(call.argument, Star):
                value = None
            else:
                value = call.argument.evaluate(context)
            delta.append(spec.lift(value))
        if wrap_key is not None:
            key = wrap_key(key)
        contributions.append(Contribution(key, sym.condition, tuple(delta)))
    return contributions


def _collect_subqueries(node: Expression) -> list[Expression]:
    found: list[Expression] = []
    if isinstance(node, SUBQUERY_NODES):
        found.append(node)
    for child in node.children():
        found.extend(_collect_subqueries(child))
    return found



def _collect_calls(node: Expression, into: list[AggregateCall]) -> None:
    if isinstance(node, AggregateCall):
        into.append(node)
        return
    for child in node.children():
        _collect_calls(child, into)


def analyse_aggregate_query(query) -> Optional[AggregatePlan]:
    """Shape analysis: an :class:`AggregatePlan` when the convolution engine
    can answer *query* exactly, else None (the caller keeps the guarded
    joint-enumeration strategy)."""
    if not isinstance(query, SelectQuery):
        return None
    if query.group_worlds_by is not None:
        return None
    if query.order_by or query.limit is not None or query.offset \
            or query.distinct:
        return None
    if not query.select_items:
        return _analyse_conf_where(query)
    return _analyse_aggregate_select(query)


def _analyse_aggregate_select(query: SelectQuery) -> Optional[AggregatePlan]:
    if query.quantifier not in (None, "possible", "certain"):
        return None
    if query.where is not None and (
            contains_subquery(query.where) or contains_aggregate(query.where)):
        return None
    for key in query.group_by:
        if contains_aggregate(key) or contains_subquery(key):
            return None
    checked = [item.expression for item in query.select_items]
    if query.having is not None:
        checked.append(query.having)
    for expression in checked:
        if contains_subquery(expression):
            return None
    if any(isinstance(item.expression, Star) for item in query.select_items):
        return None
    calls: list[AggregateCall] = []
    for expression in checked:
        _collect_calls(expression, calls)
    if not calls and not query.group_by:
        return None
    specs = []
    for call in calls:
        if call.argument is not None and (
                contains_aggregate(call.argument)
                or contains_subquery(call.argument)):
            return None
        spec = _spec_for(call)
        if spec is None:
            return None
        specs.append(spec)
    decorated = query.conf or query.quantifier is not None
    key_sql = [key.sql().lower() for key in query.group_by]
    item_sql = [item.expression.sql().lower() for item in query.select_items]
    if decorated and query.group_by:
        # Output rows must identify their group, otherwise per-key marginal
        # masses could collide across groups.
        if any(sql not in item_sql for sql in key_sql):
            return None
    outputs: list[_OutputItem] = []
    for output in query.outputs:  # the binder's unique output names
        rendered = output.expression.sql().lower()
        if rendered in key_sql:
            outputs.append(_OutputItem(output.name,
                                       key_index=key_sql.index(rendered)))
            continue
        slotted = _build_slotted(output.expression, calls, query.group_by)
        if slotted is None:
            return None
        outputs.append(_OutputItem(output.name, slotted=slotted))
    having = None
    if query.having is not None:
        having = _build_slotted(query.having, calls, query.group_by)
        if having is None:
            return None
    return AggregatePlan(kind="aggregate", calls=calls, specs=specs,
                         key_exprs=list(query.group_by), outputs=outputs,
                         having=having)


def _analyse_conf_where(query: SelectQuery) -> Optional[AggregatePlan]:
    if not query.conf or query.quantifier is not None:
        return None
    if query.group_by or query.having is not None:
        return None
    if query.where is None:
        return None
    plain: list[Expression] = []
    world: list[Expression] = []
    for conjunct in conjuncts(query.where):
        if contains_aggregate(conjunct):
            return None
        if contains_subquery(conjunct):
            world.append(conjunct)
        else:
            plain.append(conjunct)
    if not world:
        return None
    subqueries: list[_SubqueryAggregate] = []
    nodes: list[ScalarSubquery] = []
    for conjunct in world:
        for node in _collect_subqueries(conjunct):
            if not isinstance(node, ScalarSubquery):
                return None
            plan = _analyse_scalar_aggregate_subquery(node)
            if plan is None:
                return None
            nodes.append(node)
            subqueries.append(plan)
    predicates: list[_SlottedExpression] = []
    for conjunct in world:
        slotted = _build_slotted(conjunct, (), (), subqueries=nodes)
        if slotted is None:
            return None
        predicates.append(slotted)
    plain_where: Expression | None = None
    for conjunct in plain:
        from ..relational.expressions import BinaryOp

        plain_where = conjunct if plain_where is None \
            else BinaryOp("and", plain_where, conjunct)
    return AggregatePlan(kind="conf_where", plain_where=plain_where,
                         world_predicates=predicates, subqueries=subqueries)


def _analyse_scalar_aggregate_subquery(node: ScalarSubquery
                                       ) -> Optional[_SubqueryAggregate]:
    query = node.query
    if not isinstance(query, SelectQuery) or query.correlated:
        return None
    if (query.quantifier is not None or query.conf
            or query.assert_condition is not None
            or query.group_worlds_by is not None
            or query.group_by or query.having is not None
            or query.order_by or query.limit is not None or query.offset
            or query.distinct):
        return None
    if len(query.select_items) != 1:
        return None
    for ref in query.from_clause:
        if not isinstance(ref, NamedTableRef) or ref.decoration is not None:
            return None
    if query.where is not None and (
            contains_subquery(query.where) or contains_aggregate(query.where)):
        return None
    expression = query.select_items[0].expression
    if contains_subquery(expression):
        return None
    calls: list[AggregateCall] = []
    _collect_calls(expression, calls)
    if not calls:
        return None
    specs = []
    for call in calls:
        if call.argument is not None and (
                contains_aggregate(call.argument)
                or contains_subquery(call.argument)):
            return None
        spec = _spec_for(call)
        if spec is None:
            return None
        specs.append(spec)
    slotted = _build_slotted(expression, calls, ())
    if slotted is None:
        return None
    return _SubqueryAggregate(node=node, query=query, calls=calls,
                              specs=specs, slotted_item=slotted)
