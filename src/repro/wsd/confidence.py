"""Exact confidence computation on world-set decompositions via d-trees.

The symbolic executor (:mod:`repro.wsd.execute`) reduces ``conf`` / ``certain``
to the probability (or tautology) of a *DNF over component atoms*: a
disjunction of clauses, each clause a conjunction of atoms
``(component index, allowed alternative set)`` meaning "component *i* picks an
alternative in *S*".  Single-atom DNFs have a closed form, but any join over
uncertain relations produces multi-atom clauses, and the naive evaluation —
jointly enumerating every touched component — is exponential in the number of
touched components.

This module evaluates such DNFs with a *decomposition tree* (d-tree)
recursion in the style of the SPROUT line of work (Olteanu, Huang, Koch,
"Using OBDDs for Efficient Query Evaluation on Probabilistic Databases"):

1. **Independence partitioning** — split the clause set into connected
   components over shared component indexes; independent parts combine as
   ``P(A or B) = 1 - (1 - P(A)) * (1 - P(B))``.
2. **Exclusive clauses** — when every clause pins one common component to
   pairwise disjoint alternative sets, the clause events are mutually
   exclusive and probabilities simply add.
3. **Shannon expansion** — otherwise, condition on the most-shared component.
   Alternatives that condition the DNF identically are grouped into
   *blocks* (one residual DNF per block, not per alternative), the engine
   recurses per block, and the block masses weight the results.

Results are memoised on a canonical DNF key, so subtrees shared between
Shannon branches are computed once — this is what makes the recursion
polynomial for hierarchical DNFs (e.g. chains produced by self-joins over
key-repaired relations).  A node budget guards the non-hierarchical worst
case: exceeding it raises :class:`DTreeBudgetExceededError`.

:class:`ConfidenceLadder` is the one place that decides how a DNF is
answered: linear closed forms, then the d-tree, then guarded joint
enumeration of the touched components (counted in
:attr:`ConfidenceStats.enumeration_fallbacks`, so benchmarks and CI can
assert the scalable query classes never enumerate), and — only under
``degradation="anytime"`` and only when both exact escapes are over budget
— anytime Monte-Carlo sampling (:mod:`repro.wsd.approximate`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from ..errors import ResourceBudgetError
from .component import Component
from .decomposition import DEFAULT_ENUMERATION_LIMIT, joint_alternatives

if TYPE_CHECKING:
    from .approximate import (
        AnytimeBudget,
        AnytimeSampler,
        ApproximateConfidence,
    )

__all__ = [
    "Atom",
    "Clause",
    "ConfidenceLadder",
    "ConfidenceStats",
    "DTreeBudgetExceededError",
    "DTreeEngine",
    "DEFAULT_NODE_BUDGET",
    "connected_groups",
    "normalise_clauses",
]

#: One atom: ``(component index, allowed alternative indexes)``.
Atom = tuple[int, frozenset[int]]

#: One clause: a conjunction of atoms over distinct components, sorted by
#: component index.  The empty clause is the always-true event.
Clause = tuple[Atom, ...]

#: Default number of d-tree node expansions before giving up on the DNF and
#: signalling the caller to fall back to guarded joint enumeration.  Real
#: hierarchical workloads stay orders of magnitude below this.
DEFAULT_NODE_BUDGET = 200_000


class DTreeBudgetExceededError(ResourceBudgetError):
    """The d-tree recursion exceeded its node budget (non-hierarchical DNF)."""

    def __init__(self, budget: int) -> None:
        super().__init__(
            f"d-tree evaluation exceeded its node budget of {budget}; "
            "the DNF is too far from hierarchical — fall back to guarded "
            "joint enumeration",
            kind="dtree-nodes", budget=budget)


@dataclass
class ConfidenceStats:
    """How confidences were computed (surfaced by the wsd backend).

    ``closed_form`` counts disjunctions answered by the linear single-atom
    closed form, ``dtree`` counts full d-tree evaluations, and the three
    rule counters record which d-tree rules fired inside them.
    ``enumeration_fallbacks`` counts evaluations that gave up on the d-tree
    (budget exceeded) and enumerated the touched components jointly — the
    SCALE-2 series (``benchmarks/test_bench_scale2_correlated_conf.py``)
    asserts this stays zero on hierarchical workloads, and ``bench/run.py``
    reports it per workload.
    """

    closed_form: int = 0
    dtree: int = 0
    independence_partitions: int = 0
    exclusive_sums: int = 0
    shannon_expansions: int = 0
    memo_hits: int = 0
    enumeration_fallbacks: int = 0


def normalise_clauses(raw: Iterable[Iterable[Atom]],
                      sizes: Sequence[int]) -> Optional[frozenset[Clause]]:
    """Canonicalise raw clauses into the engine's DNF form.

    * atoms whose allowed set covers the whole component are dropped (they
      are always true);
    * atoms with an empty allowed set make their clause unsatisfiable — the
      clause is dropped;
    * repeated atoms on one component intersect;
    * duplicate clauses collapse (the result is a set).

    Returns ``None`` when some clause normalises to the empty (always-true)
    clause, i.e. the whole DNF is a tautology with probability one.  A
    clause already in that form (strictly increasing component indexes,
    every allowed set non-empty and proper — every executor condition) is
    kept as it is, in one pass.
    """
    clauses: set[Clause] = set()
    for clause in raw:
        clause = tuple(clause)
        previous = -1
        for index, alternatives in clause:
            if index <= previous or not 0 < len(alternatives) < sizes[index]:
                break
            previous = index
        else:
            if not clause:
                return None
            clauses.add(clause)
            continue
        allowed: dict[int, frozenset[int]] = {}
        satisfiable = True
        for index, alternatives in clause:
            if index in allowed:
                alternatives = allowed[index] & alternatives
            if not alternatives:
                satisfiable = False
                break
            allowed[index] = alternatives
        if not satisfiable:
            continue
        atoms = tuple(sorted(
            (index, alternatives) for index, alternatives in allowed.items()
            if len(alternatives) < sizes[index]))
        if not atoms:
            return None
        clauses.add(atoms)
    return frozenset(clauses)


def _absorb(clauses: frozenset[Clause]) -> frozenset[Clause]:
    """Drop clauses implied by a strictly more general clause (absorption).

    Clause *a* implies clause *b* when every atom of *b* is loosened by an
    atom of *a* on the same component (``S_a <= S_b``); then ``a or b = b``
    and *a* can be dropped.  Absorption keeps the DNF small and exposes
    independence that redundant clauses would otherwise hide.
    """
    if len(clauses) < 2:
        return clauses
    ordered = sorted(clauses, key=len)
    kept: list[Clause] = []
    for candidate in ordered:
        implied = False
        candidate_map = dict(candidate)
        for other in kept:
            if len(other) > len(candidate):
                break
            if all(index in candidate_map and candidate_map[index] <= allowed
                   for index, allowed in other):
                implied = True
                break
        if not implied:
            kept.append(candidate)
    return frozenset(kept)


class DTreeEngine:
    """Evaluates DNF probability / tautology over one decomposition's components.

    The engine is bound to a fixed component list, so memoised results stay
    valid across many DNFs over the same decomposition (e.g. one ``conf``
    query computing a confidence per answer row: subtrees shared between
    rows are computed once).
    """

    def __init__(self, components: Sequence[Component],
                 stats: ConfidenceStats | None = None,
                 node_budget: int | None = DEFAULT_NODE_BUDGET) -> None:
        self.components = components
        self.stats = stats if stats is not None else ConfidenceStats()
        self.node_budget = node_budget
        self._nodes = 0
        self._sizes = [len(component.alternatives) for component in components]
        self._masses: dict[int, Sequence[float]] = {}
        self._prob_memo: dict[frozenset[Clause], float] = {}
        self._taut_memo: dict[frozenset[Clause], bool] = {}

    # -- component masses ---------------------------------------------------------------

    def atom_mass(self, index: int, allowed: frozenset[int]) -> float:
        """Probability mass of the *allowed* alternatives of component *index*."""
        masses = self._masses.get(index)
        if masses is None:
            masses = self.components[index].effective_probabilities()
            self._masses[index] = masses
        return sum(masses[i] for i in allowed)

    def clause_probability(self, clause: Clause) -> float:
        """Probability of one clause: atoms touch distinct independent
        components, so the masses multiply."""
        mass = 1.0
        for index, allowed in clause:
            mass *= self.atom_mass(index, allowed)
        return mass

    # -- public evaluation --------------------------------------------------------------

    def probability(self, raw_clauses: Iterable[Iterable[Atom]]) -> float:
        """Exact probability of the DNF ``or_i and_j atom_ij``."""
        clauses = normalise_clauses(raw_clauses, self._sizes)
        if clauses is None:
            return 1.0
        if not clauses:
            return 0.0
        self.stats.dtree += 1
        self._nodes = 0  # the node budget is per evaluation, memo persists
        return self._probability(_absorb(clauses))

    def is_tautology(self, raw_clauses: Iterable[Iterable[Atom]]) -> bool:
        """True when the DNF holds in *every* world (all joint alternatives).

        This is a purely logical notion over the alternative space — a
        weighted component with a zero-probability alternative still counts
        every alternative, matching the explicit backend's per-world
        ``certain`` semantics.
        """
        clauses = normalise_clauses(raw_clauses, self._sizes)
        if clauses is None:
            return True
        if not clauses:
            return False
        self._nodes = 0  # the node budget is per evaluation, memo persists
        return self._tautology(_absorb(clauses))

    # -- d-tree recursion ---------------------------------------------------------------

    def _charge_node(self) -> None:
        self._nodes += 1
        if self.node_budget is not None and self._nodes > self.node_budget:
            raise DTreeBudgetExceededError(self.node_budget)

    def _probability(self, clauses: frozenset[Clause]) -> float:
        if not clauses:
            return 0.0
        memoised = self._prob_memo.get(clauses)
        if memoised is not None:
            self.stats.memo_hits += 1
            return memoised
        self._charge_node()
        if len(clauses) == 1:
            result = self.clause_probability(next(iter(clauses)))
            self._prob_memo[clauses] = result
            return result
        groups = _independent_groups(clauses)
        if len(groups) > 1:
            self.stats.independence_partitions += 1
            miss = 1.0
            for group in groups:
                miss *= 1.0 - self._probability(group)
            result = 1.0 - miss
        else:
            pivot = _exclusive_component(clauses)
            if pivot is not None:
                self.stats.exclusive_sums += 1
                result = sum(self.clause_probability(clause)
                             for clause in clauses)
            else:
                result = self._shannon_probability(clauses)
        self._prob_memo[clauses] = result
        return result

    def _shannon_probability(self, clauses: frozenset[Clause]) -> float:
        self.stats.shannon_expansions += 1
        pivot = _most_shared_component(clauses)
        total = 0.0
        for mass, residual in self._shannon_blocks(clauses, pivot):
            if residual is None:
                total += mass
            elif residual:
                total += mass * self._probability(_absorb(residual))
        return total

    def _tautology(self, clauses: frozenset[Clause]) -> bool:
        if not clauses:
            return False
        memoised = self._taut_memo.get(clauses)
        if memoised is not None:
            self.stats.memo_hits += 1
            return memoised
        self._charge_node()
        if len(clauses) == 1:
            # A normalised non-empty clause restricts at least one component
            # to a proper subset, so some world violates it.
            result = False
        else:
            groups = _independent_groups(clauses)
            if len(groups) > 1:
                # Worlds choose each group's components independently, so a
                # violating world exists unless one group alone covers
                # everything.
                result = any(self._tautology(group) for group in groups)
            else:
                pivot = _most_shared_component(clauses)
                result = True
                for _, residual in self._shannon_blocks(clauses, pivot,
                                                        weighted=False):
                    if residual is None:
                        continue
                    if not residual or not self._tautology(_absorb(residual)):
                        result = False
                        break
        self._taut_memo[clauses] = result
        return result

    def _shannon_blocks(self, clauses: frozenset[Clause], pivot: int,
                        weighted: bool = True):
        """Yield ``(mass, residual DNF)`` per alternative block of *pivot*.

        Alternatives of *pivot* that satisfy exactly the same pivot atoms
        condition the DNF identically, so they form one block whose mass is
        the sum of the alternative masses.  ``residual`` is ``None`` when the
        conditioned DNF is a tautology (some clause fully satisfied).
        """
        pinned: list[tuple[Clause, frozenset[int]]] = []
        free: list[Clause] = []
        for clause in clauses:
            allowed = dict(clause).get(pivot)
            if allowed is None:
                free.append(clause)
            else:
                pinned.append((clause, allowed))
        blocks: dict[frozenset[int], list[int]] = {}
        for alternative in range(self._sizes[pivot]):
            signature = frozenset(
                position for position, (_, allowed) in enumerate(pinned)
                if alternative in allowed)
            blocks.setdefault(signature, []).append(alternative)
        for signature, alternatives in blocks.items():
            if weighted:
                mass = self.atom_mass(pivot, frozenset(alternatives))
            else:
                mass = float(len(alternatives))
            residual: set[Clause] | None = set(free)
            for position in signature:
                clause, _ = pinned[position]
                reduced = tuple(atom for atom in clause if atom[0] != pivot)
                if not reduced:
                    residual = None
                    break
                residual.add(reduced)
            yield mass, (None if residual is None else frozenset(residual))


class ConfidenceLadder:
    """Answers ``P(DNF)`` and "DNF holds in every world" over one component
    list, cheapest rung first.

    Each DNF is normalised once, on entry (:func:`normalise_clauses`): no
    atom then covers its whole component, and every rung gets a checked DNF.

    1. **Closed forms** — a single clause multiplies its atom masses; a
       disjunction of single-atom clauses is ``1 - prod_c (1 - P(event_c))``
       over the per-component unions.  With no atom covering its whole
       component, one clause holds in some worlds but not all, and such a
       disjunction covers every world only when a merged union does.
    2. **The d-tree** (:class:`DTreeEngine`), exact under its node budget.
    3. **Guarded joint enumeration** of the touched components
       (:func:`~repro.wsd.decomposition.joint_alternatives`, guarded by
       *limit*), counted in :attr:`ConfidenceStats.enumeration_fallbacks`.
    4. **Anytime sampling** — :meth:`probability` only, only under
       ``degradation="anytime"``, and only when the d-tree is over budget
       *and* the joint exceeds *limit*.

    The ladder keeps its d-tree engine (and, once needed, its sampler) for
    its whole life, so every DNF asked of one ladder shares the d-tree memo
    and the sampler's mass tables.  A clause is any sequence of
    ``(component index, allowed set)`` atoms; the empty clause is true.
    """

    def __init__(self, components: Sequence[Component],
                 stats: ConfidenceStats | None = None,
                 limit: int | None = DEFAULT_ENUMERATION_LIMIT,
                 node_budget: int | None = DEFAULT_NODE_BUDGET,
                 degradation: str = "strict",
                 anytime: AnytimeBudget | None = None) -> None:
        self.components = components
        self.stats = stats if stats is not None else ConfidenceStats()
        self.limit = limit
        self.degradation = degradation
        self.anytime = anytime
        self.engine = DTreeEngine(components, stats=self.stats,
                                  node_budget=node_budget)
        self._sampler: AnytimeSampler | None = None

    @property
    def sampler(self) -> AnytimeSampler:
        """The anytime sampler over these components, built on first use."""
        if self._sampler is None:
            # approximate.py imports this module, so import it lazily.
            from .approximate import AnytimeBudget, AnytimeSampler

            self._sampler = AnytimeSampler(
                self.components,
                self.anytime if self.anytime is not None
                else AnytimeBudget())
        return self._sampler

    def probability(self, clauses: Sequence[Sequence[Atom]]
                    ) -> tuple[float, ApproximateConfidence | None]:
        """``(mass, approximation)`` of the disjunction of *clauses*.

        *approximation* is ``None`` whenever the mass is exact; otherwise it
        is the sampler's :class:`~repro.wsd.approximate.ApproximateConfidence`
        for the caller to record.
        """
        clauses = normalise_clauses(clauses, self.engine._sizes)
        if clauses is None:
            return 1.0, None
        if not clauses:
            return 0.0, None
        if len(clauses) == 1:
            self.stats.closed_form += 1
            return self.engine.clause_probability(next(iter(clauses))), None
        unions = self._single_atom_unions(clauses)
        if unions is not None:
            self.stats.closed_form += 1
            miss = 1.0
            for index, union in unions.items():
                miss *= 1.0 - self.engine.atom_mass(index, union)
            return 1.0 - miss, None
        try:
            return self.engine.probability(clauses), None
        except DTreeBudgetExceededError:
            if self.degradation == "anytime" and not self.enumerable(clauses):
                approximation = self.sampler.dnf_confidence(clauses)
                if approximation.exact:
                    return approximation.value, None
                return approximation.value, approximation
            self.stats.enumeration_fallbacks += 1
            return self._enumerate(clauses)[0], None

    def covers(self, clauses: Sequence[Sequence[Atom]]) -> bool:
        """True when the disjunction of *clauses* holds in every world
        (``certain``): the same rungs as :meth:`probability`, never
        sampled."""
        clauses = normalise_clauses(clauses, self.engine._sizes)
        if clauses is None:
            return True
        if len(clauses) <= 1:
            return False
        unions = self._single_atom_unions(clauses)
        if unions is not None:
            return any(len(union) == len(self.components[index])
                       for index, union in unions.items())
        try:
            return self.engine.is_tautology(clauses)
        except DTreeBudgetExceededError:
            self.stats.enumeration_fallbacks += 1
            return self._enumerate(clauses)[1]

    def enumerable(self, clauses: Sequence[Sequence[Atom]]) -> bool:
        """True when the joint of the components *clauses* touch fits the
        enumeration limit."""
        if self.limit is None:
            return True
        joint = 1
        for index in {index for clause in clauses for index, _ in clause}:
            joint *= len(self.components[index])
            if joint > self.limit:
                return False
        return True

    @staticmethod
    def _single_atom_unions(clauses: frozenset[Clause]
                            ) -> Optional[dict[int, frozenset[int]]]:
        """When every clause is one atom, the union of the allowed sets per
        component — the closed form's input — else None."""
        unions: dict[int, frozenset[int]] = {}
        for clause in clauses:
            if len(clause) != 1:
                return None
            ((index, allowed),) = clause
            unions[index] = unions.get(index, frozenset()) | allowed
        return unions

    def _enumerate(self, clauses: Sequence[Sequence[Atom]]
                   ) -> tuple[float, bool]:
        """``(probability, holds-in-every-world)`` over the guarded joint of
        the touched components — exponential; the d-tree's budget escape."""
        involved = sorted({index for clause in clauses for index, _ in clause})
        position = {index: offset for offset, index in enumerate(involved)}
        total = 0.0
        covers = True
        for combo, weight in joint_alternatives(self.components, involved,
                                                self.limit):
            if any(all(combo[position[index]] in allowed
                       for index, allowed in clause) for clause in clauses):
                total += weight
            else:
                covers = False
        return total, covers


# -- clause-set structure helpers ----------------------------------------------------------


def connected_groups(items: Sequence, component_ids_of) -> list[list]:
    """Partition *items* into connected groups over shared component indexes.

    ``component_ids_of(item)`` yields the component indexes an item touches;
    items sharing an index land in one group (union-find).  Used for
    independence partitioning of DNF clauses and for factoring
    ``assert not exists`` candidates into independently-conditionable groups.
    """
    parent = list(range(len(items)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner: dict[int, int] = {}
    for position, item in enumerate(items):
        for index in component_ids_of(item):
            if index in owner:
                parent[find(position)] = find(owner[index])
            else:
                owner[index] = position
    groups: dict[int, list] = {}
    for position, item in enumerate(items):
        groups.setdefault(find(position), []).append(item)
    return list(groups.values())


def _independent_groups(clauses: frozenset[Clause]
                        ) -> list[frozenset[Clause]]:
    """Partition *clauses* into connected components over shared components."""
    return [frozenset(group)
            for group in connected_groups(
                list(clauses), lambda clause: (index for index, _ in clause))]


def _exclusive_component(clauses: frozenset[Clause]) -> Optional[int]:
    """A component every clause pins to pairwise disjoint sets, if any."""
    iterator = iter(clauses)
    first = next(iterator)
    candidates = dict(first)
    for clause in iterator:
        atoms = dict(clause)
        for index in list(candidates):
            if index not in atoms:
                del candidates[index]
        if not candidates:
            return None
    for index in candidates:
        seen: set[int] = set()
        disjoint = True
        for clause in clauses:
            allowed = dict(clause)[index]
            if seen & allowed:
                disjoint = False
                break
            seen |= allowed
        if disjoint:
            return index
    return None


def _most_shared_component(clauses: frozenset[Clause]) -> int:
    """The component restricted by the most clauses (Shannon pivot).

    Ties break towards the component whose union of allowed sets is
    smallest (fewer Shannon blocks), then towards the smallest index for
    determinism.
    """
    counts: dict[int, int] = {}
    spans: dict[int, set[int]] = {}
    for clause in clauses:
        for index, allowed in clause:
            counts[index] = counts.get(index, 0) + 1
            spans.setdefault(index, set()).update(allowed)
    return max(counts,
               key=lambda index: (counts[index], -len(spans[index]), -index))
