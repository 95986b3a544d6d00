"""Probability bookkeeping for world-sets.

World-sets are either *non-probabilistic* (every world has probability
``None``) or *probabilistic* (every world carries a probability and the
probabilities sum to one).  This module holds the normalisation ``assert``
applies to the surviving worlds (Example 2.5 of the paper).
"""

from __future__ import annotations

from typing import Sequence

from ..errors import ProbabilityError

__all__ = ["normalize"]


def normalize(probabilities: Sequence[float]) -> list[float]:
    """Scale *probabilities* so they sum to one.

    Raises :class:`ProbabilityError` when the total mass is zero, which is
    what happens when an ``assert`` drops every world.
    """
    total = float(sum(probabilities))
    if total <= 0:
        raise ProbabilityError(
            "cannot normalise: total probability mass is zero")
    return [value / total for value in probabilities]
