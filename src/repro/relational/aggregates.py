"""Aggregate functions over groups of rows.

Each aggregate is an :class:`Aggregator` with the classic ``initialize`` /
``accumulate`` / ``finalize`` protocol, so the group-by operator can stream
rows through it.  NULL handling follows SQL: NULL inputs are skipped by every
aggregate except ``count(*)``, and aggregates over an empty (or all-NULL)
input return NULL, except ``count`` which returns 0.
"""

from __future__ import annotations

from typing import Any, Callable

from ..errors import AggregateError

__all__ = [
    "Aggregator",
    "CountAggregator",
    "SumAggregator",
    "AvgAggregator",
    "MinAggregator",
    "MaxAggregator",
    "create_aggregator",
    "AGGREGATE_NAMES",
]


class Aggregator:
    """Streaming aggregate: feed values with :meth:`accumulate`, read the
    result with :meth:`finalize`.

    ``distinct`` aggregates deduplicate their non-NULL inputs before
    aggregation, as in ``count(distinct A)``.
    """

    def __init__(self, distinct: bool = False) -> None:
        self.distinct = distinct
        self._seen: set[Any] = set()

    def accumulate(self, value: Any) -> None:
        """Feed one input value (possibly NULL) to the aggregate."""
        if value is None and not self.counts_nulls():
            return
        if self.distinct:
            key = value
            if key in self._seen:
                return
            self._seen.add(key)
        self._add(value)

    def counts_nulls(self) -> bool:
        """Whether NULL inputs participate (only ``count(*)`` says yes)."""
        return False

    def _add(self, value: Any) -> None:
        raise NotImplementedError

    def finalize(self) -> Any:
        """Return the aggregate result."""
        raise NotImplementedError


class CountAggregator(Aggregator):
    """``count(expr)`` / ``count(*)``: number of (non-NULL) inputs."""

    def __init__(self, distinct: bool = False, count_star: bool = False) -> None:
        super().__init__(distinct=distinct)
        self.count_star = count_star
        self._count = 0

    def counts_nulls(self) -> bool:
        return self.count_star

    def _add(self, value: Any) -> None:
        self._count += 1

    def finalize(self) -> int:
        return self._count


class SumAggregator(Aggregator):
    """``sum(expr)``: sum of the non-NULL inputs, NULL when there are none."""

    def __init__(self, distinct: bool = False) -> None:
        super().__init__(distinct=distinct)
        self._total: Any = None

    def _add(self, value: Any) -> None:
        _require_number(value, "sum")
        self._total = value if self._total is None else self._total + value

    def finalize(self) -> Any:
        return self._total


class AvgAggregator(Aggregator):
    """``avg(expr)``: arithmetic mean of the non-NULL inputs."""

    def __init__(self, distinct: bool = False) -> None:
        super().__init__(distinct=distinct)
        self._total = 0.0
        self._count = 0

    def _add(self, value: Any) -> None:
        _require_number(value, "avg")
        self._total += float(value)
        self._count += 1

    def finalize(self) -> Any:
        if self._count == 0:
            return None
        return self._total / self._count


class MinAggregator(Aggregator):
    """``min(expr)``: smallest non-NULL input."""

    def __init__(self, distinct: bool = False) -> None:
        super().__init__(distinct=distinct)
        self._best: Any = None

    def _add(self, value: Any) -> None:
        if self._best is None or _less_than(value, self._best):
            self._best = value

    def finalize(self) -> Any:
        return self._best


class MaxAggregator(Aggregator):
    """``max(expr)``: largest non-NULL input."""

    def __init__(self, distinct: bool = False) -> None:
        super().__init__(distinct=distinct)
        self._best: Any = None

    def _add(self, value: Any) -> None:
        if self._best is None or _less_than(self._best, value):
            self._best = value

    def finalize(self) -> Any:
        return self._best


def _require_number(value: Any, where: str) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise AggregateError(f"{where} requires numeric inputs, got {value!r}")


def _less_than(left: Any, right: Any) -> bool:
    """Ordering used by min/max; mixed types order numbers < text < bool."""
    from .types import sql_compare

    result = sql_compare(left, right)
    return result is not None and result < 0


_FACTORIES: dict[str, Callable[[bool, bool], Aggregator]] = {
    "count": lambda distinct, star: CountAggregator(distinct, star),
    "sum": lambda distinct, star: SumAggregator(distinct),
    "avg": lambda distinct, star: AvgAggregator(distinct),
    "min": lambda distinct, star: MinAggregator(distinct),
    "max": lambda distinct, star: MaxAggregator(distinct),
}

#: Names recognised as aggregate functions by the parser and planner.
AGGREGATE_NAMES = frozenset(_FACTORIES)


def create_aggregator(name: str, distinct: bool = False,
                      count_star: bool = False) -> Aggregator:
    """Instantiate the aggregator implementing *name* (case-insensitive)."""
    factory = _FACTORIES.get(name.lower())
    if factory is None:
        raise AggregateError(f"unknown aggregate function {name!r}")
    return factory(distinct, count_star)
