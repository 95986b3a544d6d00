"""Constructors of world-set decompositions.

These builders produce :class:`~repro.wsd.decomposition.WorldSetDecomposition`
objects from the situations the paper (and its companions) care about:

* ``from_key_repair`` — the compact counterpart of ``repair by key``: one
  template tuple and one component per key group, instead of one world per
  repair (exponentially many);
* ``from_choice_of`` — the compact counterpart of ``choice of``: a single
  component choosing the partition, controlling the presence of every tuple;
* ``from_worldset`` — the generic explicit-to-compact conversion: one big
  component with one alternative per world, which :func:`repro.wsd.normalize.
  normalize` then factorises.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import DecompositionError, ProbabilityError
from ..relational.constraints import key_repair_groups
from ..relational.relation import Relation
from ..relational.schema import Schema
from ..worldset.worldset import WorldSet
from .component import Alternative, Component
from .decomposition import Template, WorldSetDecomposition
from .fields import EXISTS_ATTRIBUTE, Field

__all__ = [
    "from_key_repair",
    "from_choice_of",
    "from_worldset",
    "add_certain_relation",
]


def add_certain_relation(template: Template, relation: Relation,
                         name: str | None = None) -> None:
    """Add a complete (certain) relation to *template*: all cells constant."""
    relation_name = name or relation.name
    if not relation_name:
        raise DecompositionError("add_certain_relation requires a name")
    template.add_relation(relation_name, relation.schema.without_qualifiers())
    for row in relation.rows:
        template.add_tuple(relation_name, row)


def _weight_of(relation: Relation, row: tuple, weight: str) -> float:
    index = relation.schema.index_of(weight)
    value = row[index]
    if value is None or isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProbabilityError(
            f"weight attribute {weight!r} must be numeric, got {value!r}")
    if value < 0:
        raise ProbabilityError(f"negative weight {value!r}")
    return float(value)


def from_key_repair(relation: Relation, key: Sequence[str],
                    weight: str | None = None,
                    target_name: str | None = None,
                    output_columns: Sequence[str] | None = None,
                    extra_certain: Sequence[Relation] = ()) -> WorldSetDecomposition:
    """Build the WSD of ``relation repair by key`` without enumerating repairs.

    The template holds one tuple per key group: the key attributes are
    constants, the non-key attributes are fields.  Each key group becomes one
    component whose alternatives are the group's tuples (restricted to the
    non-key attributes), weighted by *weight* when given.  The number of
    represented worlds is the product of the group sizes, but the storage is
    linear in the size of the input relation.

    *output_columns* optionally restricts the repaired relation's schema (the
    paper's Example 2.3 keeps ``A, B, C`` and drops the weight column ``D``);
    the weight column can still be used for weighting even when dropped.
    """
    name = target_name or relation.name or "I"
    full_schema = relation.schema.without_qualifiers()
    if output_columns is None:
        schema = full_schema
    else:
        schema = full_schema.project(
            [full_schema.index_of(column) for column in output_columns])
    key_lower = {attribute.lower() for attribute in key}
    non_key_columns = [column for column in schema
                       if column.name.lower() not in key_lower]
    template = Template()
    template.add_relation(name, schema)
    for certain in extra_certain:
        add_certain_relation(template, certain)
    components: list[Component] = []
    groups = key_repair_groups(relation, key)
    if not groups:
        raise DecompositionError("cannot repair an empty relation")
    for group_value, rows in groups:
        tuple_id = len(template.tuples)
        cells: list[object] = []
        fields_of_tuple: list[Field] = []
        value_by_key = dict(zip([k.lower() for k in key], group_value))
        for column in schema:
            if column.name.lower() in key_lower:
                cells.append(value_by_key[column.name.lower()])
            else:
                field = Field(name, tuple_id, column.name)
                fields_of_tuple.append(field)
                cells.append(field)
        template.add_tuple(name, cells)
        if fields_of_tuple:
            alternatives = _group_alternatives(relation, rows, non_key_columns,
                                               weight)
            components.append(Component(fields_of_tuple, alternatives))
        elif len(rows) > 1 and weight is not None:
            # All attributes are key attributes: the repairs of this group are
            # indistinguishable, so the group contributes no uncertainty.
            pass
    return WorldSetDecomposition(template, components)


def _group_alternatives(relation: Relation, rows: list[tuple],
                        non_key_columns, weight: str | None) -> list[Alternative]:
    indexes = [relation.schema.index_of(column.name) for column in non_key_columns]
    raw: list[tuple[tuple, float | None]] = []
    for row in rows:
        values = tuple(row[i] for i in indexes)
        raw.append((values, None if weight is None else _weight_of(relation, row,
                                                                   weight)))
    if weight is None:
        # Duplicate value combinations collapse (set-of-worlds semantics).
        seen: list[tuple] = []
        for values, _ in raw:
            if values not in seen:
                seen.append(values)
        return [Alternative(values) for values in seen]
    total = sum(w for _, w in raw)  # type: ignore[misc]
    if total <= 0:
        raise ProbabilityError("weights in key group must have a positive sum")
    merged: dict[tuple, float] = {}
    order: list[tuple] = []
    for values, w in raw:
        if values not in merged:
            merged[values] = 0.0
            order.append(values)
        merged[values] += w / total  # type: ignore[operator]
    return [Alternative(values, merged[values]) for values in order]


def from_choice_of(relation: Relation, attributes: Sequence[str],
                   weight: str | None = None,
                   target_name: str | None = None) -> WorldSetDecomposition:
    """Build the WSD of ``relation choice of attributes``.

    Every tuple of the relation becomes a template tuple with constant cells
    and a presence field; one single component chooses the partition value and
    thereby the presence vector of all tuples simultaneously.
    """
    name = target_name or relation.name or "I"
    schema = relation.schema.without_qualifiers()
    indexes = [relation.schema.index_of(a) for a in attributes]
    template = Template()
    template.add_relation(name, schema)
    presence_fields: list[Field] = []
    partition_values: list[tuple] = []
    tuple_partitions: list[tuple] = []
    for position, row in enumerate(relation.rows):
        field = Field(name, position, EXISTS_ATTRIBUTE)
        presence_fields.append(field)
        template.add_tuple(name, row, presence=field)
        value = tuple(row[i] for i in indexes)
        tuple_partitions.append(value)
        if value not in partition_values:
            partition_values.append(value)
    if not partition_values:
        raise DecompositionError("cannot apply choice-of to an empty relation")
    if weight is None:
        weights = [None] * len(partition_values)
    else:
        sums = []
        for value in partition_values:
            sums.append(sum(_weight_of(relation, row, weight)
                            for row, part in zip(relation.rows, tuple_partitions)
                            if part == value))
        total = sum(sums)
        if total <= 0:
            raise ProbabilityError("choice-of weights must have a positive sum")
        weights = [s / total for s in sums]
    alternatives = []
    for value, probability in zip(partition_values, weights):
        presence_vector = tuple(part == value for part in tuple_partitions)
        alternatives.append(Alternative(presence_vector, probability))
    component = Component(presence_fields, alternatives)
    return WorldSetDecomposition(template, [component])


def from_worldset(world_set: WorldSet, relation_name: str) -> WorldSetDecomposition:
    """Convert an explicit world-set (restricted to one relation) into a WSD.

    The template lists every tuple appearing in any world with a presence
    field; a single component has one alternative per world giving the
    presence vector (and the world's probability).  The result is a correct
    but unnormalised WSD — run :func:`repro.wsd.normalize.normalize` to
    factorise it into independent components.
    """
    if not world_set.worlds:
        raise DecompositionError("cannot convert an empty world-set")
    schema: Schema | None = None
    universe: list[tuple] = []
    seen: set[tuple] = set()
    for world in world_set.worlds:
        relation = world.relation(relation_name)
        if schema is None:
            schema = relation.schema.without_qualifiers()
        for row in relation.rows:
            if row not in seen:
                seen.add(row)
                universe.append(row)
    assert schema is not None
    template = Template()
    template.add_relation(relation_name, schema)
    presence_fields = []
    for position, row in enumerate(universe):
        field = Field(relation_name, position, EXISTS_ATTRIBUTE)
        presence_fields.append(field)
        template.add_tuple(relation_name, row, presence=field)
    alternatives = []
    for world in world_set.worlds:
        rows = set(world.relation(relation_name).rows)
        presence_vector = tuple(row in rows for row in universe)
        alternatives.append(Alternative(presence_vector, world.probability))
    component = Component(presence_fields, alternatives)
    return WorldSetDecomposition(template, [component])
