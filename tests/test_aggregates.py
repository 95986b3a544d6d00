"""Unit tests for aggregate functions (repro.relational.aggregates).

Aggregate values are asked for the way a user asks: an I-SQL ``select`` on a
one-world session.  Each value test runs on both backends: the explicit
backend's per-world evaluation streams the rows through the aggregators of
this module, and the wsd backend's aggregate engine must give the same value.
"""

from __future__ import annotations

import pytest

from repro import MayBMS
from repro.errors import AggregateError
from repro.relational.aggregates import AGGREGATE_NAMES, create_aggregator
from repro.relational.relation import Relation


@pytest.fixture(params=["explicit", "wsd"])
def select_aggregate(request):
    """The value of ``select <expression> from T`` over a one-column T(V)."""
    def select(expression, values):
        db = MayBMS({"T": Relation(["V"], [(value,) for value in values])},
                    backend=request.param)
        [(value,)] = db.execute(f"select {expression} from T;")
        return value
    return select


class TestRegistry:
    def test_known_names(self):
        assert AGGREGATE_NAMES == {"count", "sum", "avg", "min", "max"}

    def test_unknown_aggregate_raises(self):
        with pytest.raises(AggregateError):
            create_aggregator("median")


class TestCount:
    def test_count_skips_nulls(self, select_aggregate):
        assert select_aggregate("count(V)", [1, None, 2]) == 2

    def test_count_star_counts_nulls(self):
        aggregator = create_aggregator("count", count_star=True)
        for value in [1, None, None]:
            aggregator.accumulate(value)
        assert aggregator.finalize() == 3

    def test_count_empty_is_zero(self, select_aggregate):
        assert select_aggregate("count(V)", []) == 0

    def test_count_distinct(self, select_aggregate):
        assert select_aggregate("count(distinct V)", [1, 1, 2, None, 2]) == 2


class TestSum:
    def test_sum_basic(self, select_aggregate):
        assert select_aggregate("sum(V)", [10, 14, 20]) == 44

    def test_sum_skips_nulls(self, select_aggregate):
        assert select_aggregate("sum(V)", [10, None, 5]) == 15

    def test_sum_of_nothing_is_null(self, select_aggregate):
        assert select_aggregate("sum(V)", []) is None
        assert select_aggregate("sum(V)", [None, None]) is None

    def test_sum_distinct(self, select_aggregate):
        assert select_aggregate("sum(distinct V)", [5, 5, 10]) == 15

    def test_sum_rejects_text(self, select_aggregate):
        with pytest.raises(AggregateError):
            select_aggregate("sum(V)", ["a"])


class TestAvgMinMax:
    def test_avg(self, select_aggregate):
        assert select_aggregate("avg(V)", [10, 20]) == 15.0

    def test_avg_empty_is_null(self, select_aggregate):
        assert select_aggregate("avg(V)", [None]) is None

    def test_min_max_numbers(self, select_aggregate):
        assert select_aggregate("min(V)", [3, 1, 2]) == 1
        assert select_aggregate("max(V)", [3, 1, 2]) == 3

    def test_min_max_text(self, select_aggregate):
        assert select_aggregate("min(V)", ["c2", "c4"]) == "c2"
        assert select_aggregate("max(V)", ["c2", "c4"]) == "c4"

    def test_min_max_skip_nulls(self, select_aggregate):
        assert select_aggregate("min(V)", [None, 5, None]) == 5
        assert select_aggregate("max(V)", [None]) is None

    def test_figure2_world_sums(self, figure2_worlds):
        """The per-world sums of Example 2.8 (44, 49, 50, 55)."""
        db = MayBMS()
        db.world_set = figure2_worlds
        answers = db.execute("select sum(B) from I;").answers_by_label()
        sums = {label: relation.rows for label, relation in answers.items()}
        assert sums == {"A": [(44,)], "B": [(49,)], "C": [(50,)], "D": [(55,)]}
