"""Components of a world-set decomposition.

A :class:`Component` groups a set of fields that vary *together*: it lists the
joint assignments (its :class:`Alternative` local worlds) the fields can take,
optionally with probabilities.  Different components are independent — the
world-set represented by a decomposition is the product of its components'
alternatives, which is what makes the representation exponentially more
compact than enumerating worlds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from ..errors import DecompositionError, ProbabilityError
from .fields import Field

__all__ = ["Alternative", "Component"]


@dataclass(frozen=True)
class Alternative:
    """One local world of a component: a joint assignment of its fields.

    ``values`` is aligned with the owning component's ``fields`` tuple.
    ``probability`` is ``None`` in non-probabilistic decompositions.
    """

    values: tuple[Any, ...]
    probability: float | None = None

    def value_map(self, fields: Sequence[Field]) -> dict[Field, Any]:
        """Return the assignment as a mapping (using the owning fields)."""
        return dict(zip(fields, self.values))


class Component:
    """A set of fields together with their possible joint assignments."""

    __slots__ = ("fields", "alternatives", "_effective")

    def __init__(self, fields: Sequence[Field],
                 alternatives: Iterable[Alternative | tuple]) -> None:
        if not fields:
            raise DecompositionError("a component needs at least one field")
        self.fields: tuple[Field, ...] = tuple(fields)
        if len(set(self.fields)) != len(self.fields):
            raise DecompositionError("duplicate field in component")
        normalized: list[Alternative] = []
        for alternative in alternatives:
            if not isinstance(alternative, Alternative):
                alternative = Alternative(tuple(alternative))
            if len(alternative.values) != len(self.fields):
                raise DecompositionError(
                    f"alternative arity {len(alternative.values)} does not match "
                    f"the component's {len(self.fields)} fields")
            normalized.append(alternative)
        if not normalized:
            raise DecompositionError("a component needs at least one alternative")
        self.alternatives: list[Alternative] = normalized
        self._effective: list[float] | None = None
        self._validate_probabilities()

    # -- invariants -----------------------------------------------------------------

    def _validate_probabilities(self) -> None:
        probabilities = [a.probability for a in self.alternatives]
        with_p = [p for p in probabilities if p is not None]
        if not with_p:
            return
        if any(p < 0 for p in with_p):
            raise ProbabilityError("negative alternative probability")
        total = sum(with_p)
        if len(with_p) != len(probabilities):
            # Partially weighted: the unweighted alternatives share the
            # residual mass uniformly (see :meth:`effective_probabilities`),
            # so the explicit weights must leave non-negative residual.
            if total > 1.0 + 1e-6:
                raise ProbabilityError(
                    "weighted alternatives of a partially-weighted component "
                    f"sum to {total}, leaving no residual mass for the "
                    "unweighted alternatives")
            return
        if abs(total - 1.0) > 1e-6:
            raise ProbabilityError(
                f"component alternative probabilities sum to {total}, expected 1")

    def is_probabilistic(self) -> bool:
        """True when some alternative carries a probability.

        A partially-weighted component (weighted alternatives next to
        ``probability=None`` ones) counts as probabilistic: the unweighted
        alternatives carry the uniform share of the residual mass.
        """
        return any(a.probability is not None for a in self.alternatives)

    def effective_probabilities(self) -> list[float]:
        """Per-alternative probability mass, always summing to one.

        * fully weighted: the stored probabilities;
        * fully unweighted: uniform ``1 / len``;
        * partially weighted: explicit probabilities are kept and the
          ``None`` alternatives split the residual ``1 - sum(given)``
          uniformly — the decomposition counterpart of
          :meth:`repro.worldset.worldset.WorldSet._world_weights`
          normalisation, which keeps confidences probabilities even when
          weighted and unweighted uncertainty mix.

        The list is computed once per component and cached (components are
        treated as immutable after construction), so hot confidence loops do
        not re-allocate it.
        """
        cached = self._effective
        if cached is not None:
            return cached
        probabilities = [a.probability for a in self.alternatives]
        missing = sum(1 for p in probabilities if p is None)
        if missing == len(probabilities):
            uniform = 1.0 / len(probabilities)
            effective = [uniform] * len(probabilities)
        elif missing == 0:
            effective = [float(p) for p in probabilities]
        else:
            residual = max(0.0, 1.0 - sum(p for p in probabilities
                                          if p is not None))
            share = residual / missing
            effective = [share if p is None else float(p)
                         for p in probabilities]
        self._effective = effective
        return effective

    # -- size and membership ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.alternatives)

    def arity(self) -> int:
        """Number of fields in the component."""
        return len(self.fields)

    def storage_size(self) -> int:
        """Number of stored cells (|fields| x |alternatives|) — the size
        measure used by the scalability experiments."""
        return len(self.fields) * len(self.alternatives)

    def field_index(self, target: Field) -> int:
        """Index of *target* within this component's fields."""
        try:
            return self.fields.index(target)
        except ValueError as exc:
            raise DecompositionError(f"field {target} not in component") from exc

    # -- conditioning -----------------------------------------------------------------------------

    def condition(self, predicate: Callable[[dict[Field, Any]], bool]) -> "Component":
        """Keep only the alternatives satisfying *predicate* and renormalise.

        This implements ``assert`` at the component level when the asserted
        condition only involves this component's fields.
        """
        kept = [(alternative, probability)
                for alternative, probability in zip(self.alternatives,
                                                    self.effective_probabilities())
                if predicate(alternative.value_map(self.fields))]
        if not kept:
            raise DecompositionError(
                "conditioning removed every alternative of the component")
        if self.is_probabilistic():
            total = sum(probability for _, probability in kept)
            if total <= 0:
                raise ProbabilityError("conditioning left zero probability mass")
            survivors = [Alternative(alternative.values, probability / total)
                         for alternative, probability in kept]
        else:
            survivors = [alternative for alternative, _ in kept]
        return Component(self.fields, survivors)

    # -- restructuring ------------------------------------------------------------------------------

    def project(self, fields: Sequence[Field],
                renormalize: bool = True) -> "Component":
        """Project the alternatives onto *fields*, merging duplicates.

        The probability of a projected alternative is the sum of the
        probabilities of the alternatives mapping to it.
        """
        indexes = [self.field_index(f) for f in fields]
        effective = self.effective_probabilities()
        seen: dict[tuple, float | None] = {}
        order: list[tuple] = []
        for alternative, mass in zip(self.alternatives, effective):
            key = tuple(alternative.values[i] for i in indexes)
            weight: float | None = mass
            if alternative.probability is None and not renormalize \
                    and not self.is_probabilistic():
                weight = None
            if key not in seen:
                order.append(key)
                seen[key] = weight
            elif weight is not None:
                seen[key] = (seen[key] or 0.0) + weight
        alternatives = [Alternative(key, seen[key]) for key in order]
        return Component(list(fields), alternatives)

    def merge(self, other: "Component") -> "Component":
        """Product of two independent components into one (the inverse of a
        split); used when a condition couples previously independent fields."""
        overlap = set(self.fields) & set(other.fields)
        if overlap:
            raise DecompositionError(
                f"cannot merge components sharing fields: {sorted(map(str, overlap))}")
        fields = self.fields + other.fields
        alternatives = []
        if not self.is_probabilistic() and not other.is_probabilistic():
            for mine in self.alternatives:
                for theirs in other.alternatives:
                    alternatives.append(Alternative(mine.values + theirs.values))
            return Component(fields, alternatives)
        # At least one side is weighted: merge with effective masses, so a
        # weighted component merged with an unweighted (uniform) or
        # partially-weighted one still yields a proper distribution.
        for mine, mine_mass in zip(self.alternatives,
                                   self.effective_probabilities()):
            for theirs, theirs_mass in zip(other.alternatives,
                                           other.effective_probabilities()):
                alternatives.append(Alternative(mine.values + theirs.values,
                                                mine_mass * theirs_mass))
        return Component(fields, alternatives)

    # -- display -------------------------------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = ", ".join(str(f) for f in self.fields)
        return f"Component([{names}], {len(self.alternatives)} alternatives)"
