"""World-sets: finite sets of possible worlds with optional probabilities.

A :class:`WorldSet` is the explicit (enumerated) representation of incomplete
information: each member :class:`World` is one complete database.  This is the
*reference* backend of the reproduction — its semantics is exactly the
possible-worlds semantics of the paper, and the compact world-set
decomposition backend (:mod:`repro.wsd`) is checked against it.

The class holds the state the explicit backend's I-SQL engine
(:mod:`repro.core.executor`) works on:

* per-world mapping (possible-worlds query evaluation),
* splitting a world into several (``repair by key``, ``choice of``),
* the normalised world weights ``conf`` sums over,
* order-insensitive comparison of world-sets (the parity checks).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from ..errors import WorldSetError
from ..relational.catalog import Catalog
from ..relational.relation import Relation
from .world import World

__all__ = ["WorldSet"]

_WORLD_LABELS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _default_label(index: int) -> str:
    """A, B, ..., Z, A1, B1, ... — stable readable world labels."""
    letter = _WORLD_LABELS[index % len(_WORLD_LABELS)]
    round_number = index // len(_WORLD_LABELS)
    return letter if round_number == 0 else f"{letter}{round_number}"


class WorldSet:
    """A finite set of possible worlds.

    The set preserves insertion order so results are reproducible and so the
    paper's world labels (A, B, C, D, ...) stay attached to the same worlds.
    """

    __slots__ = ("worlds",)

    def __init__(self, worlds: Iterable[World] = ()) -> None:
        self.worlds: list[World] = list(worlds)

    # -- constructors -----------------------------------------------------------------

    @classmethod
    def single(cls, catalog: Catalog | dict[str, Relation] | None = None,
               probability: float | None = None,
               label: str | None = None) -> "WorldSet":
        """A world-set containing exactly one (complete) world."""
        return cls([World(catalog, probability, label)])

    # -- container protocol ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.worlds)

    def __iter__(self) -> Iterator[World]:
        return iter(self.worlds)

    def __getitem__(self, index: int) -> World:
        return self.worlds[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WorldSet({len(self.worlds)} worlds)"

    def is_probabilistic(self) -> bool:
        """True when the worlds carry probabilities."""
        if not self.worlds:
            return False
        return self.worlds[0].probability is not None

    def probabilities(self) -> list[float | None]:
        """The list of world probabilities, in order."""
        return [world.probability for world in self.worlds]

    def labels(self) -> list[str | None]:
        """The list of world labels, in order."""
        return [world.label for world in self.worlds]

    def world_by_label(self, label: str) -> World:
        """Return the world labelled *label*."""
        for world in self.worlds:
            if world.label == label:
                return world
        raise WorldSetError(f"no world labelled {label!r}")

    def relabel(self) -> "WorldSet":
        """Assign fresh default labels A, B, C, ... in order."""
        for index, world in enumerate(self.worlds):
            world.label = _default_label(index)
        return self

    # -- per-world mapping (possible-worlds semantics) -----------------------------------

    def map_worlds(self, transform: Callable[[World], World]) -> "WorldSet":
        """Apply *transform* to every world, keeping order."""
        return WorldSet([transform(world) for world in self.worlds])

    # -- world creation (repair-by-key, choice-of) ----------------------------------------

    def expand(self, splitter: Callable[[World], Sequence[tuple[World, float | None]]]
               ) -> "WorldSet":
        """Replace each world by several alternatives.

        *splitter* maps a world to a sequence of ``(new world, local weight)``
        pairs.  When the input world-set is probabilistic (or local weights are
        given) the new world's probability is the parent probability times the
        local weight.  A local weight of ``None`` means an unweighted split: it
        keeps a non-probabilistic world-set non-probabilistic, and divides a
        probabilistic parent's mass uniformly among its alternatives so the
        total probability stays one.
        """
        result: list[World] = []
        for world in self.worlds:
            alternatives = list(splitter(world))
            if not alternatives:
                raise WorldSetError(
                    "a world split produced no alternative worlds")
            for new_world, weight in alternatives:
                if weight is None:
                    if world.probability is None:
                        new_world.probability = None
                    else:
                        new_world.probability = (world.probability
                                                 / len(alternatives))
                else:
                    parent = world.probability if world.probability is not None else 1.0
                    new_world.probability = parent * weight
                result.append(new_world)
        expanded = WorldSet(result)
        expanded.relabel()
        return expanded

    # -- world weights (conf) ----------------------------------------------------------------------

    def _world_weights(self) -> list[float]:
        if not self.worlds:
            return []
        raw = [world.probability for world in self.worlds]
        given = [weight for weight in raw if weight is not None]
        if not given:
            uniform = 1.0 / len(self.worlds)
            return [uniform] * len(self.worlds)
        if len(given) < len(raw):
            # Partially weighted: the probability-None worlds share the
            # residual mass uniformly, mirroring
            # :meth:`repro.wsd.component.Component.effective_probabilities`
            # so both backends read mixed weighting identically.
            residual = max(0.0, 1.0 - sum(given))
            share = residual / (len(raw) - len(given))
            weights = [share if weight is None else float(weight)
                       for weight in raw]
        else:
            weights = [float(weight) for weight in raw]
        total = sum(weights)
        if total > 0:
            # Normalise: weighted splits of probability-None worlds can
            # leave the raw masses summing to the parent count, and a
            # confidence is a probability, not a raw mass.
            return [weight / total for weight in weights]
        return weights

    # -- comparison and display ---------------------------------------------------------------------

    def same_world_contents(self, other: "WorldSet",
                            relations: Iterable[str] | None = None,
                            compare_probabilities: bool = False,
                            tolerance: float = 1e-6) -> bool:
        """Compare two world-sets as *sets* of worlds (order-insensitive).

        Worlds are matched by their relation contents (restricted to
        *relations* when given); probabilities are compared within
        *tolerance* when *compare_probabilities* is true.
        """
        if len(self.worlds) != len(other.worlds):
            return False
        remaining = list(other.worlds)
        for world in self.worlds:
            for index, candidate in enumerate(remaining):
                if not world.same_contents(candidate, relations):
                    continue
                if compare_probabilities:
                    mine = world.probability or 0.0
                    theirs = candidate.probability or 0.0
                    if abs(mine - theirs) > tolerance:
                        continue
                del remaining[index]
                break
            else:
                return False
        return True

    def describe(self, relation_names: Iterable[str] | None = None,
                 max_rows: int | None = None) -> str:
        """Return a printable rendering of every world."""
        blocks = [world.describe(relation_names, max_rows=max_rows)
                  for world in self.worlds]
        return ("\n" + "=" * 40 + "\n").join(blocks)
