"""Unit tests for the Relation container and its relational operations."""

from __future__ import annotations

import pytest

from repro import MayBMS
from repro.errors import SchemaError, TypeMismatchError
from repro.relational.relation import Relation
from repro.relational.schema import Column, Schema
from repro.relational.types import SqlType


@pytest.fixture
def numbers():
    return Relation(Schema([Column("K", SqlType.INTEGER),
                            Column("V", SqlType.TEXT)]),
                    [(1, "one"), (2, "two"), (2, "two"), (3, "three")],
                    name="numbers")


class TestConstruction:
    def test_rows_are_coerced_to_schema(self):
        relation = Relation([Column("A", SqlType.INTEGER)], [("5",)])
        assert relation.rows == [(5,)]

    def test_arity_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            Relation(["A", "B"], [(1,)])

    def test_bad_value_reports_column(self):
        with pytest.raises(TypeMismatchError) as excinfo:
            Relation([Column("Age", SqlType.INTEGER)], [("old",)])
        assert "Age" in str(excinfo.value)


class TestEquality:
    def test_bag_equality_counts_duplicates(self, numbers):
        duplicate_free = numbers.distinct()
        assert not numbers.bag_equal(duplicate_free)
        assert numbers.distinct().bag_equal(duplicate_free)

    def test_eq_requires_same_column_names(self, numbers):
        renamed = numbers.with_schema(Schema(["X", "Y"]))
        assert numbers != renamed
        assert numbers.bag_equal(renamed)  # contents still compare

    def test_fingerprint_is_order_insensitive(self):
        first = Relation(["A"], [(1,), (2,)])
        second = Relation(["A"], [(2,), (1,)])
        assert first.fingerprint() == second.fingerprint()


class TestMutation:
    def test_insert_and_delete(self, numbers):
        numbers.insert((4, "four"))
        assert (4, "four") in numbers.rows
        removed = numbers.delete_where(lambda row: row[0] == 2)
        assert removed == 2
        assert all(row[0] != 2 for row in numbers.rows)

    def test_update_where(self, numbers):
        changed = numbers.update_where(lambda row: row[0] == 1,
                                       lambda row: (row[0], "ONE"))
        assert changed == 1
        assert (1, "ONE") in numbers.rows


class TestCoreOperations:
    def test_project_columns_by_name(self, numbers):
        assert numbers.project_columns(["V", "K"]).schema.names() == ["V", "K"]

    def test_distinct(self, numbers):
        assert len(numbers.distinct()) == 3

    def test_cross_join(self):
        left = Relation(Schema(["A"]).with_qualifier("l"), [(1,), (2,)])
        right = Relation(Schema(["B"]).with_qualifier("r"), [(10,), (20,)])
        product = left.cross_join(right)
        assert len(product) == 4
        assert product.schema.qualified_names() == ["l.A", "r.B"]

    def test_union_intersect_difference_set_semantics(self):
        first = Relation(["A"], [(1,), (2,), (2,)])
        second = Relation(["A"], [(2,), (3,)])
        assert sorted(first.union(second).rows) == [(1,), (2,), (3,)]
        assert first.intersect(second).rows == [(2,)]
        assert first.difference(second).rows == [(1,)]

    def test_union_all_keeps_duplicates(self):
        first = Relation(["A"], [(1,), (1,)])
        second = Relation(["A"], [(1,)])
        assert len(first.union(second, distinct=False)) == 3

    def test_bag_difference_respects_multiplicity(self):
        first = Relation(["A"], [(1,), (1,), (2,)])
        second = Relation(["A"], [(1,)])
        assert sorted(first.difference(second, distinct=False).rows) == [(1,), (2,)]

    def test_set_ops_require_same_arity(self):
        with pytest.raises(SchemaError):
            Relation(["A"], []).union(Relation(["A", "B"], []))

    def test_limit_and_offset(self, numbers):
        assert len(numbers.limit(2)) == 2
        assert numbers.limit(2, offset=3).rows == [(3, "three")]
        assert len(numbers.limit(None, offset=1)) == 3

class TestOperatorsThroughISql:
    """Selection, projection, joins, sorting and grouping as I-SQL asks
    for them: the per-world plans of the explicit backend run them, and the
    wsd backend must give the same answers on a complete database."""

    @staticmethod
    def answer(db, sql):
        [world_answer] = db.execute(sql).world_answers
        return world_answer.relation

    def test_select(self, numbers):
        db = MayBMS({"numbers": numbers})
        assert len(self.answer(db, "select * from numbers where K > 1;")) == 3

    def test_project_keeps_duplicates(self, numbers):
        projected = self.answer(MayBMS({"numbers": numbers}),
                                "select V from numbers;")
        assert projected.schema.names() == ["V"]
        assert len(projected) == 4

    def test_computed_column(self, numbers):
        extended = self.answer(MayBMS({"numbers": numbers}),
                               "select K, V, K * 2 as Doubled from numbers;")
        assert extended.schema.names()[-1] == "Doubled"
        assert extended.rows[0][-1] == 2

    def test_equi_join_skips_nulls(self):
        db = MayBMS({"L": Relation(["C"], [("c2",), ("c9",), (None,)]),
                     "R": Relation(["C", "E"], [("c2", "e1"), (None, "e9")])})
        joined = self.answer(db, "select * from L, R where L.C = R.C;")
        assert joined.rows == [("c2", "c2", "e1")]

    def test_order_by_with_nulls_and_mixed_directions(self):
        db = MayBMS({"T": Relation(["A", "B"],
                                   [(2, "x"), (None, "y"), (1, "z")])})
        ordered = self.answer(db, "select A from T order by A;")
        assert [row[0] for row in ordered.rows] == [None, 1, 2]
        descending = self.answer(db, "select A from T order by A desc;")
        assert [row[0] for row in descending.rows] == [2, 1, None]

    def test_group_by(self, numbers):
        groups = self.answer(MayBMS({"numbers": numbers}),
                             "select K, count(*) from numbers group by K;")
        assert sorted(groups.rows) == [(1, 1), (2, 2), (3, 1)]

    def test_aliases_name_the_answer_columns(self, numbers):
        renamed = self.answer(MayBMS({"numbers": numbers}),
                              "select K as X, V as Y from numbers;")
        assert renamed.schema.names() == ["X", "Y"]
        assert renamed.bag_equal(numbers)

    @pytest.mark.parametrize("backend", ["explicit", "wsd"])
    def test_insert_with_column_list_pads_nulls(self, backend):
        db = MayBMS(backend=backend)
        db.execute("create table T (A, B);")
        db.execute("insert into T values (1, 2);")
        db.execute("insert into T (A) values (3);")
        assert sorted(db.execute("select possible A, B from T;").rows()) == \
            [(1, 2), (3, None)]

    @pytest.mark.parametrize("backend", ["explicit", "wsd"])
    def test_created_table_starts_empty(self, backend):
        db = MayBMS(backend=backend)
        db.execute("create table T (A);")
        assert len(db.relation("T")) == 0
        assert db.execute("select possible A from T;").rows() == []

    @pytest.mark.parametrize("sql", [
        "select possible K from numbers where K > 1;",
        "select possible V, K * 2 as Doubled from numbers;",
        "select possible L.C, R.E from L, R where L.C = R.C;",
        "select possible K, count(*) from numbers group by K;",
        "select possible V from numbers where not exists "
        "(select * from R where R.E = 'e9' and K = 2);",
    ])
    def test_wsd_backend_agrees_on_one_world(self, numbers, sql):
        """The wsd engine on a complete database answers like the oracle."""
        catalog = {"numbers": numbers,
                   "L": Relation(["C"], [("c2",), ("c9",), (None,)]),
                   "R": Relation(["C", "E"], [("c2", "e1"), (None, "e9")])}
        expected = MayBMS(catalog).execute(sql).rows()
        assert expected
        assert sorted(MayBMS(catalog, backend="wsd").execute(sql).rows(),
                      key=repr) == sorted(expected, key=repr)


class TestDisplay:
    def test_pretty_contains_headers_and_rows(self, numbers):
        text = numbers.pretty()
        assert "K" in text and "V" in text
        assert "three" in text

    def test_pretty_truncation_notice(self, numbers):
        text = numbers.pretty(max_rows=1)
        assert "more rows" in text

    def test_with_name_requalifies_columns(self, numbers):
        renamed = numbers.with_name("n2")
        assert renamed.schema.qualified_names() == ["n2.K", "n2.V"]
        assert renamed.name == "n2"
