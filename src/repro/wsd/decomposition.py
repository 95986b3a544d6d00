"""World-set decompositions: compact, factorised world-sets.

A :class:`WorldSetDecomposition` (WSD) represents a possibly astronomically
large set of possible worlds as

* a **template**: for every relation, a list of template tuples whose cells
  are either constants or :class:`~repro.wsd.fields.Field` placeholders, plus
  optional *presence* fields deciding whether a tuple exists at all, and
* a list of independent **components**, each assigning joint values to a
  group of fields.

The represented world-set is the product of the components: every choice of
one alternative per component yields one world.  A WSD whose components have
``k_1, ..., k_m`` alternatives therefore represents ``k_1 * ... * k_m`` worlds
while storing only ``sum_i |fields_i| * k_i`` cells — this is the
representation behind the "10^10^6 worlds" argument of the companion papers.

The class supports enumeration (guarded, for testing and for conversion to the
explicit backend), conditioning (``assert`` restricted to template predicates),
and normalisation into maximally factorised form (see
:mod:`repro.wsd.normalize`).  Questions about a decomposition are asked in
I-SQL through a session; :func:`joint_alternatives` is the one guarded
iterator over the joint alternatives of a subset of components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from itertools import count as _counter, product
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from ..errors import DecompositionError, EnumerationLimitError
from ..relational.catalog import Catalog
from ..relational.relation import Relation
from ..relational.schema import Schema
from ..worldset.world import World
from ..worldset.worldset import WorldSet
from .component import Component
from .fields import Field

__all__ = ["TemplateTuple", "Template", "WorldSetDecomposition",
           "DEFAULT_ENUMERATION_LIMIT", "ensure_enumerable",
           "joint_alternatives"]

#: Enumeration guard: converting a WSD to an explicit world-set refuses to
#: materialise more worlds than this unless the caller raises the limit.
DEFAULT_ENUMERATION_LIMIT = 100_000


def ensure_enumerable(world_count: int, limit: int | None,
                      operation: str = "enumerate") -> None:
    """Raise :class:`EnumerationLimitError` when *world_count* exceeds *limit*.

    This is the single enumeration guard shared by explicit materialisation
    (:meth:`WorldSetDecomposition.iter_assignments`) and joint component
    enumeration, whose one iterator is :func:`joint_alternatives`.  A
    *limit* of ``None`` disables the guard.
    """
    if limit is not None and world_count > limit:
        raise EnumerationLimitError(world_count, limit, operation=operation)


def joint_alternatives(components: Sequence[Component],
                       involved: Sequence[int], limit: int | None,
                       operation: str = "jointly enumerate"
                       ) -> Iterator[tuple[tuple[int, ...], float]]:
    """Yield ``(combo, weight)`` per joint alternative of the *involved*
    components.

    *combo* aligns with *involved* (one alternative index per component) and
    *weight* is the product of the chosen alternatives' effective
    probabilities.  The joint size is checked against *limit* by
    :func:`ensure_enumerable` before anything is yielded; ``None`` disables
    the check for callers that guard with their own budget.
    """
    ensure_enumerable(math.prod(len(components[index]) for index in involved),
                      limit, operation=operation)
    masses = [components[index].effective_probabilities()
              for index in involved]
    for combo in product(*(range(len(mass)) for mass in masses)):
        weight = 1.0
        for mass, alternative in zip(masses, combo):
            weight *= mass[alternative]
        yield combo, weight


@dataclass(slots=True)
class TemplateTuple:
    """One template tuple: constants and field placeholders, plus presence.

    Treated as immutable after construction: :meth:`fields` is computed once
    and cached, because groundings and component-joint sweeps call it per
    tuple per query.  The class is slotted — template tuples dominate the
    storage of large decompositions.
    """

    relation: str
    tuple_id: int
    cells: tuple[Any, ...]
    presence: Optional[Field] = None
    _fields: Optional[tuple[Field, ...]] = dataclass_field(
        default=None, init=False, repr=False, compare=False)

    def fields(self) -> tuple[Field, ...]:
        """All fields referenced by this template tuple (cells + presence)."""
        cached = self._fields
        if cached is None:
            found = [cell for cell in self.cells if isinstance(cell, Field)]
            if self.presence is not None:
                found.append(self.presence)
            cached = tuple(found)
            self._fields = cached
        return cached

    def instantiate(self, assignment: dict[Field, Any]) -> Optional[tuple]:
        """Return the concrete tuple under *assignment*, or None when absent."""
        if self.presence is not None and not assignment.get(self.presence, True):
            return None
        values = []
        for cell in self.cells:
            if isinstance(cell, Field):
                if cell not in assignment:
                    raise DecompositionError(f"unassigned field {cell}")
                values.append(assignment[cell])
            else:
                values.append(cell)
        return tuple(values)


@dataclass(slots=True)
class Template:
    """The template part of a WSD: schemas plus template tuples per relation."""

    schemas: dict[str, Schema] = dataclass_field(default_factory=dict)
    tuples: list[TemplateTuple] = dataclass_field(default_factory=list)

    def add_relation(self, name: str, schema: Schema) -> None:
        """Declare a relation with *schema* (template tuples refer to it by name)."""
        self.schemas[name] = schema

    def add_tuple(self, relation: str, cells: Sequence[Any],
                  presence: Optional[Field] = None) -> TemplateTuple:
        """Append a template tuple to *relation* and return it."""
        if relation not in self.schemas:
            raise DecompositionError(f"unknown template relation {relation!r}")
        if len(cells) != len(self.schemas[relation]):
            raise DecompositionError(
                f"template tuple arity {len(cells)} does not match schema of "
                f"{relation!r}")
        template_tuple = TemplateTuple(relation, len(self.tuples), tuple(cells),
                                       presence)
        self.tuples.append(template_tuple)
        return template_tuple

    def relation_tuples(self, relation: str) -> list[TemplateTuple]:
        """The template tuples of *relation*, in insertion order."""
        return [t for t in self.tuples if t.relation == relation]

    def replace_constant_tuples(self, relation: str,
                                rows: Iterable[Sequence[Any]]) -> None:
        """Replace every template tuple of *relation* by constant *rows*.

        Only for a certain relation (no fields): dropping its tuples can then
        uncover no field, and constant rows add none, so the decomposition's
        invariants need no re-validation.
        """
        self.tuples = [t for t in self.tuples if t.relation != relation]
        for row in rows:
            self.add_tuple(relation, row)

    def all_fields(self) -> set[Field]:
        """Every field referenced anywhere in the template."""
        return {f for t in self.tuples for f in t.fields()}

    def constant_cell_count(self) -> int:
        """Number of constant cells stored in the template."""
        return sum(1 for t in self.tuples for cell in t.cells
                   if not isinstance(cell, Field))


#: Monotonic, process-wide source of relation versions (see ``versions``).
_VERSIONS = _counter(1)


class WorldSetDecomposition:
    """A template plus independent components: the compact world-set."""

    def __init__(self, template: Template,
                 components: Iterable[Component] = ()) -> None:
        self.template = template
        self.components: list[Component] = list(components)
        self._validate()
        #: Per-relation cache key for derived artefacts (symbolic
        #: groundings): relation name -> a version no other state of that
        #: relation ever had.  Ground tuples embed component *indices*, so a
        #: version is only ever carried between states that share this
        #: component list: every constructed decomposition — install,
        #: ``assert``, decorations, normalisation, recovery — starts with
        #: fresh versions for all relations; in-place DML on one certain
        #: relation renews only that relation's (:meth:`bump_version`).
        self.versions: dict[str, int] = {}
        self.renew_versions()

    def renew_versions(self) -> None:
        """Give every relation a fresh version (after an in-place change
        that may touch components, fields or component indices)."""
        self.versions = {name: next(_VERSIONS)
                         for name in self.template.schemas}

    def bump_version(self, relation: str) -> None:
        """Give *relation* alone a fresh version: its constant template
        tuples changed in place, nothing else did."""
        self.versions[relation] = next(_VERSIONS)

    # -- invariants ----------------------------------------------------------------------

    def _validate(self) -> None:
        covered: set[Field] = set()
        for component in self.components:
            for f in component.fields:
                if f in covered:
                    raise DecompositionError(
                        f"field {f} appears in more than one component")
                covered.add(f)
        missing = self.template.all_fields() - covered
        if missing:
            raise DecompositionError(
                "template fields not covered by any component: "
                + ", ".join(str(f) for f in sorted(missing)))

    def is_probabilistic(self) -> bool:
        """True when every component carries probabilities."""
        return bool(self.components) and all(
            component.is_probabilistic() for component in self.components)

    # -- size measures ------------------------------------------------------------------------

    def world_count(self) -> int:
        """The number of represented worlds (product of component sizes)."""
        count = 1
        for component in self.components:
            count *= len(component)
        return count

    def log10_world_count(self) -> float:
        """log10 of the world count (safe for astronomically large counts)."""
        return sum(math.log10(len(component)) for component in self.components)

    def storage_size(self) -> int:
        """Stored cells: template constants plus component alternative cells.

        This is the size measure the scalability benchmark (SCALE-1) compares
        against the total tuple count of the equivalent explicit world-set.
        """
        return (self.template.constant_cell_count()
                + sum(component.storage_size() for component in self.components))

    # -- enumeration -----------------------------------------------------------------------------

    def iter_assignments(self, limit: int | None = DEFAULT_ENUMERATION_LIMIT
                         ) -> Iterator[tuple[dict[Field, Any], float | None]]:
        """Yield ``(assignment, probability)`` for every represented world.

        Enumeration is exponential in the number of components; the *limit*
        guard protects against accidentally materialising a compactly
        represented world-set (pass ``None`` to disable it).  Exceeding the
        guard raises :class:`~repro.errors.EnumerationLimitError`, which
        carries the offending world count and the limit.
        """
        ensure_enumerable(self.world_count(), limit)
        if not self.components:
            yield {}, 1.0
            return
        choice_lists = []
        for component in self.components:
            masses = (component.effective_probabilities()
                      if component.is_probabilistic()
                      else [None] * len(component))
            choice_lists.append(list(zip(component.alternatives, masses)))
        for combination in product(*choice_lists):
            assignment: dict[Field, Any] = {}
            probability: float | None = 1.0
            probabilistic = True
            for component, (alternative, mass) in zip(self.components,
                                                      combination):
                assignment.update(alternative.value_map(component.fields))
                if mass is None:
                    probabilistic = False
                else:
                    probability *= mass
            yield assignment, (probability if probabilistic else None)

    def instantiate(self, assignment: dict[Field, Any]) -> Catalog:
        """Build the concrete database (catalog) for one assignment."""
        catalog = Catalog()
        for name, schema in self.template.schemas.items():
            relation = Relation(schema, [], name=name)
            for template_tuple in self.template.relation_tuples(name):
                row = template_tuple.instantiate(assignment)
                if row is not None:
                    relation.insert(row)
            catalog.create(name, relation)
        return catalog

    def to_worldset(self, limit: int | None = DEFAULT_ENUMERATION_LIMIT) -> WorldSet:
        """Materialise the explicit world-set (guarded by *limit*)."""
        worlds = []
        for assignment, probability in self.iter_assignments(limit):
            worlds.append(World(self.instantiate(assignment), probability))
        world_set = WorldSet(worlds)
        world_set.relabel()
        return world_set

    # -- conditioning (assert) ---------------------------------------------------------------------------------

    def condition(self, predicate: Callable[[dict[Field, Any]], bool],
                  fields: Iterable[Field]) -> "WorldSetDecomposition":
        """Keep only the worlds satisfying *predicate* over *fields*.

        The components covering *fields* are merged into one (the condition
        may correlate them), conditioned, and the result re-normalised; all
        other components are untouched.  This is the decomposition-level
        counterpart of the ``assert`` operation.
        """
        involved = set(fields)
        touched = [c for c in self.components if set(c.fields) & involved]
        untouched = [c for c in self.components if not (set(c.fields) & involved)]
        if not touched:
            if not predicate({}):
                raise DecompositionError("assert dropped every world")
            return WorldSetDecomposition(self.template, list(self.components))
        merged = touched[0]
        for component in touched[1:]:
            merged = merged.merge(component)
        conditioned = merged.condition(
            lambda assignment: predicate(assignment))
        return WorldSetDecomposition(self.template, untouched + [conditioned])

    # -- comparison -----------------------------------------------------------------------------------------------

    def equivalent_to_worldset(self, world_set: WorldSet,
                               relations: Sequence[str] | None = None,
                               compare_probabilities: bool = True,
                               limit: int | None = DEFAULT_ENUMERATION_LIMIT) -> bool:
        """Check semantic equivalence with an explicit world-set (small inputs)."""
        materialised = self.to_worldset(limit)
        names = relations if relations is not None else list(self.template.schemas)
        return materialised.same_world_contents(
            world_set, relations=names,
            compare_probabilities=compare_probabilities and self.is_probabilistic())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"WorldSetDecomposition({len(self.components)} components, "
                f"~10^{self.log10_world_count():.1f} worlds, "
                f"{self.storage_size()} stored cells)")
