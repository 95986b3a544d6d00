"""WSD-native UNION / INTERSECT / EXCEPT over symbolic relations.

Compound queries combine the per-world answers of two plain selects.  The
explicit backend evaluates both sides once per world; this module combines
their *condition-annotated* entries directly, so the work scales with the
decomposition's storage size:

* **UNION ALL** concatenates the entry bags — each copy keeps its own
  presence condition;
* **UNION** merges entries per row: the row is present when *any* side's
  condition holds (presence-condition disjunction);
* **INTERSECT** conjoins the two sides' presence DNFs pairwise
  (presence-condition conjunction), dropping unsatisfiable clauses;
* **EXCEPT** conjoins the left DNF with the *negation* of the right DNF:
  each right clause negates into a disjunction of complemented atoms, and
  the product expansion is bounded by a clause budget;
* **INTERSECT ALL / EXCEPT ALL** have world-dependent multiplicities
  (``min`` / saturating difference of per-world counts).  Rows whose copies
  are unconditional on both sides use plain multiset arithmetic; genuinely
  uncertain rows enumerate only the joint alternatives of *their own*
  touched components (guarded), pinning one condition per surviving copy.

The combined entries feed the executor's existing tiers unchanged: a
top-level compound installs them as a compact answer decomposition, a
compound under ``CREATE TABLE AS`` installs them as session state, and a
compound derived table / view materialises them transiently so the outer
``conf`` / ``possible`` / ``certain`` / aggregate machinery runs as usual.

Shapes the condition algebra cannot bound (clause-budget overruns) raise
:class:`SetOpBudgetExceededError`; the executor counts the escape in
:attr:`~repro.wsd.execute.WsdExecutionStats.group_fallbacks` and answers
through the guarded component-joint evaluation of the whole compound.
"""

from __future__ import annotations

from ..errors import ResourceBudgetError
from ..sqlparser.ast_nodes import CompoundQuery, Query
from .decomposition import joint_alternatives

__all__ = [
    "DEFAULT_CLAUSE_BUDGET",
    "SetOpBudgetExceededError",
    "evaluate_compound_entries",
]

#: Maximum number of DNF clauses any single row's presence condition may
#: expand to while conjoining / negating.  Real compound queries over
#: factorised decompositions stay far below this; exceeding it signals a
#: pathologically correlated row that must drop to guarded enumeration.
DEFAULT_CLAUSE_BUDGET = 4096


class SetOpBudgetExceededError(ResourceBudgetError):
    """A row's presence DNF exceeded the clause budget (correlated shape)."""

    def __init__(self, budget: int, reason: str) -> None:
        super().__init__(
            f"native set-operation evaluation exceeded its clause budget of "
            f"{budget} ({reason}); falling back to guarded enumeration",
            kind="setop-clauses", budget=budget)
        self.reason = reason


def evaluate_compound_entries(executor, working, query: CompoundQuery,
                              budget: int = DEFAULT_CLAUSE_BUDGET):
    """``(working, schema, entries)`` for a compound query's answer.

    Each entry ``(row, conditions)`` is one answer-tuple *copy*, present in
    the worlds where the disjunction of its conditions holds — the same
    shape the executor's install / collection machinery consumes.  FROM
    resolution may extend *working* with transients (derived tables).
    """
    working, left_schema, left = _operand_entries(executor, working,
                                                  query.left, budget)
    working, right_schema, right = _operand_entries(executor, working,
                                                    query.right, budget)
    left_schema.without_qualifiers().require_union_compatible(
        right_schema.without_qualifiers())
    operator = query.operator
    if operator == "union":
        entries = _union(left, right, query.distinct)
    elif operator == "intersect":
        entries = (_intersect_distinct(executor, working, left, right, budget)
                   if query.distinct
                   else _bag_op(executor, working, left, right, "intersect"))
    elif operator == "except":
        entries = (_except_distinct(executor, working, left, right, budget)
                   if query.distinct
                   else _bag_op(executor, working, left, right, "except"))
    else:
        from ..errors import AnalysisError

        raise AnalysisError(f"unknown set operator {operator!r}")
    return working, left_schema.without_qualifiers(), entries


def _operand_entries(executor, working, node: Query, budget: int):
    """Entries of one operand (nested compounds recurse under *budget*)."""
    if isinstance(node, CompoundQuery):
        return evaluate_compound_entries(executor, working, node, budget)
    return executor._query_entries(working, node)


# -- presence DNFs -------------------------------------------------------------------------


def _presence(entries) -> tuple[dict[tuple, list], list[tuple]]:
    """Per distinct row, the flattened presence DNF (row -> clause list)."""
    dnf: dict[tuple, list] = {}
    order: list[tuple] = []
    for row, conditions in entries:
        if row not in dnf:
            dnf[row] = []
            order.append(row)
        dnf[row].extend(conditions)
    return dnf, order


def _union(left, right, distinct: bool):
    if not distinct:
        return list(left) + list(right)
    dnf, order = _presence(list(left) + list(right))
    return [(row, dnf[row]) for row in order]


def _intersect_distinct(executor, working, left, right, budget: int):
    left_dnf, order = _presence(left)
    right_dnf, _ = _presence(right)
    entries = []
    for row in order:
        if row not in right_dnf:
            continue
        clauses = _conjoin_dnfs(left_dnf[row], right_dnf[row], budget, row)
        if clauses:
            entries.append((row, clauses))
    return entries


def _except_distinct(executor, working, left, right, budget: int):
    left_dnf, order = _presence(left)
    right_dnf, _ = _presence(right)
    entries = []
    for row in order:
        if row not in right_dnf:
            entries.append((row, left_dnf[row]))
            continue
        negated = _negate_dnf(executor, working, right_dnf[row], budget, row)
        if negated is None:
            continue  # the right side holds everywhere: row never survives
        clauses = _conjoin_dnfs(left_dnf[row], negated, budget, row)
        if clauses:
            entries.append((row, clauses))
    return entries


def _conjoin_dnfs(left_clauses, right_clauses, budget: int, row) -> list:
    """The DNF of (∨left) ∧ (∨right): pairwise conjunction products."""
    if len(left_clauses) * len(right_clauses) > budget:
        raise SetOpBudgetExceededError(
            budget, f"conjunction product of row {row!r}")
    out = []
    for mine in left_clauses:
        for theirs in right_clauses:
            clause = mine.conjoin(theirs)
            if clause is not None:
                out.append(clause)
    return out


def _negate_dnf(executor, working, clauses, budget: int, row):
    """The DNF of ¬(∨clauses), or None when the disjunction is a tautology.

    Each clause is a conjunction of (component, allowed-set) atoms, so its
    negation is the disjunction of the per-atom complements; the conjunction
    over all clauses expands as a product, clause-budget guarded.
    """
    from .execute import Condition, TRUE_CONDITION

    acc = [TRUE_CONDITION]
    for clause in clauses:
        if clause.is_true():
            return None
        options = []
        for index, allowed in clause.atoms:
            complement = frozenset(
                range(len(working.components[index]))) - allowed
            if complement:
                options.append(Condition(((index, complement),)))
        expanded = []
        for partial in acc:
            for option in options:
                merged = partial.conjoin(option)
                if merged is not None:
                    expanded.append(merged)
            if len(expanded) > budget:
                raise SetOpBudgetExceededError(
                    budget, f"negation expansion of row {row!r}")
        acc = expanded
        if not acc:
            # Some clause cannot be falsified jointly with the others.
            return []
    return acc


# -- bag semantics (INTERSECT ALL / EXCEPT ALL) --------------------------------------------


def _bag_op(executor, working, left, right, operator: str):
    """World-dependent multiplicities: per row, copies are ``min`` (intersect
    all) or the saturating difference (except all) of the per-world counts.

    Unconditional rows use plain multiset arithmetic; uncertain rows
    enumerate the joint alternatives of only their own touched components,
    pinning one condition per joint alternative and copy.
    """
    left_copies = _row_copies(left)
    right_copies = _row_copies(right)
    entries = []
    for row, copies in left_copies.items():
        theirs = right_copies.get(row)
        if theirs is None:
            if operator == "except":
                entries.extend((row, conditions) for conditions in copies)
            continue
        certain_mine = all(_copy_certain(c) for c in copies)
        certain_theirs = all(_copy_certain(c) for c in theirs)
        if certain_mine and certain_theirs:
            if operator == "intersect":
                surviving = min(len(copies), len(theirs))
            else:
                surviving = max(0, len(copies) - len(theirs))
            entries.extend((row, copies[i]) for i in range(surviving))
            continue
        entries.extend(_enumerated_copies(executor, working, row, copies,
                                          theirs, operator))
    return entries


def _row_copies(entries) -> dict[tuple, list[list]]:
    """Per distinct row, the list of per-copy condition disjunctions."""
    copies: dict[tuple, list[list]] = {}
    for row, conditions in entries:
        copies.setdefault(row, []).append(list(conditions))
    return copies


def _copy_certain(conditions) -> bool:
    return any(condition.is_true() for condition in conditions)


def _enumerated_copies(executor, working, row, mine, theirs, operator: str):
    """Per-copy pinned conditions for one uncertain bag-operation row."""
    from .execute import Condition

    involved = sorted({
        index
        for conditions in (mine + theirs)
        for condition in conditions
        for index in condition.component_ids()})
    slots: list[list] = []
    for combo, _ in joint_alternatives(
            working.components, involved, executor.limit,
            operation="enumerate the set-operation row joint of"):
        choice = dict(zip(involved, combo))
        count_mine = sum(
            1 for conditions in mine
            if any(condition.holds(choice) for condition in conditions))
        count_theirs = sum(
            1 for conditions in theirs
            if any(condition.holds(choice) for condition in conditions))
        if operator == "intersect":
            surviving = min(count_mine, count_theirs)
        else:
            surviving = max(0, count_mine - count_theirs)
        if not surviving:
            continue
        atoms = tuple(
            (index, frozenset([alt_index]))
            for index, alt_index in zip(involved, combo)
            if len(working.components[index]) > 1)
        pinned = Condition(atoms)
        while len(slots) < surviving:
            slots.append([])
        for copy_index in range(surviving):
            slots[copy_index].append(pinned)
    return [(row, conditions) for conditions in slots]
