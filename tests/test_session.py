"""Unit tests for the MayBMS session: DDL, DML, views, explain, errors."""

from __future__ import annotations

import pytest

from repro import MayBMS
from repro.errors import (
    AnalysisError,
    ConstraintViolationError,
    ParseError,
    ReproError,
    UnknownRelationError,
    UnsupportedFeatureError,
    WorldSetError,
)
from repro.relational.relation import Relation


class TestProgrammaticApi:
    def test_create_table_and_insert(self):
        db = MayBMS()
        db.create_table("T", ["A", "B"], rows=[(1, "x")])
        db.insert("T", [(2, "y")])
        assert db.relation("T").rows == [(1, "x"), (2, "y")]
        assert db.table_names() == ["T"]

    def test_register_relation(self):
        db = MayBMS()
        db.register_relation(Relation(["A"], [(1,)], name="R"))
        assert db.relation("R").rows == [(1,)]
        with pytest.raises(AnalysisError):
            db.register_relation(Relation(["A"], []))  # no name

    def test_relation_by_world_label(self, db_figure2):
        relation = db_figure2.relation("I", world_label="D")
        assert len(relation) == 3

    def test_execute_script_returns_all_results(self, db_figure1):
        results = db_figure1.execute_script(
            "create table X as select * from S; select * from X;")
        assert len(results) == 2
        assert results[1].world_answers[0].relation.rows == \
            db_figure1.relation("S").rows


class TestDdl:
    def test_create_table_with_columns_and_types(self):
        db = MayBMS()
        db.execute("create table W (Id integer, Name text);")
        assert db.relation("W").schema.names() == ["Id", "Name"]

    def test_create_duplicate_table_rejected(self, db_figure1):
        with pytest.raises(ReproError):
            db_figure1.execute("create table R (A text);")

    def test_drop_table(self, db_figure1):
        db_figure1.execute("drop table S;")
        assert "S" not in db_figure1.table_names()
        with pytest.raises(UnknownRelationError):
            db_figure1.execute("drop table S;")
        db_figure1.execute("drop table if exists S;")

    def test_create_and_drop_view(self, db_figure1):
        db_figure1.execute("create view V as select * from R;")
        assert db_figure1.view_names() == ["v"] or db_figure1.view_names() == ["V"]
        db_figure1.execute("drop view V;")
        assert db_figure1.view_names() == []
        with pytest.raises(UnknownRelationError):
            db_figure1.execute("drop view V;")

    def test_duplicate_view_rejected(self, db_figure1):
        db_figure1.execute("create view V as select * from R;")
        with pytest.raises(AnalysisError):
            db_figure1.execute("create view V as select * from S;")

    def test_create_table_as_materialises_in_every_world(self, db_figure2):
        db_figure2.execute("create table Sums as select sum(B) as total from I;")
        totals = sorted(world.relation("Sums").rows[0][0]
                        for world in db_figure2.world_set)
        assert totals == [44, 49, 50, 55]

    def test_transient_relations_not_leaked(self, db_figure2):
        names = db_figure2.table_names()
        assert all(not name.startswith("#") for name in names)


class TestDml:
    def test_insert_applies_to_every_world(self, db_figure2):
        db_figure2.execute("insert into I values ('a9', 99, 'c9');")
        for world in db_figure2.world_set:
            assert ("a9", 99, "c9") in world.relation("I").rows

    def test_insert_with_column_list_reorders(self):
        db = MayBMS()
        db.execute("create table T (A integer, B text);")
        db.execute("insert into T (B, A) values ('x', 1);")
        assert db.relation("T").rows == [(1, "x")]

    def test_insert_violating_key_discarded_in_all_worlds(self):
        """Section 2: a constraint violation in some world discards the update."""
        db = MayBMS()
        db.execute("create table T (Id integer primary key, V text);")
        db.execute("insert into T values (1, 'x');")
        with pytest.raises(ConstraintViolationError):
            db.execute("insert into T values (1, 'y');")
        # The original tuple is still the only one, in the only world.
        assert db.relation("T").rows == [(1, "x")]

    def test_update_and_delete(self, db_figure1):
        db_figure1.execute("update R set B = B + 1 where A = 'a3';")
        assert ("a3", 21, "c5", 6) in db_figure1.relation("R").rows
        result = db_figure1.execute("delete from R where A = 'a1';")
        assert result.rowcount == 2
        assert all(row[0] != "a1" for row in db_figure1.relation("R").rows)

    def test_update_runs_independently_per_world(self, db_figure2):
        result = db_figure2.execute("update I set B = 0 where C = 'c1';")
        zero_counts = sorted(
            sum(1 for row in world.relation("I").rows if row[1] == 0)
            for world in db_figure2.world_set)
        assert zero_counts == [0, 0, 1, 1]  # only the worlds containing c1
        # Worlds disagree on the count: no single rowcount, a range instead.
        assert result.rowcount is None
        assert result.message == "updated 0-1 row(s) per world"
        # A certain relation loses the same rows in all four worlds: the
        # count is per world, not summed over worlds.
        assert db_figure2.execute(
            "delete from R where A = 'a1';").rowcount == 2

    def test_insert_select_requires_world_independent_answer(self, db_figure2):
        with pytest.raises(UnsupportedFeatureError):
            db_figure2.execute("insert into R select A, B, C, 1 from I;")

    def test_insert_select_world_independent_works(self, db_figure1):
        db_figure1.execute("create table S2 (C text, E text);")
        db_figure1.execute("insert into S2 select * from S;")
        assert db_figure1.relation("S2").bag_equal(db_figure1.relation("S"))


class TestExplainAndErrors:
    def test_explain_select(self, db_figure1):
        result = db_figure1.execute("explain select * from R where A = 'a1';")
        assert "Scan(R" in result.message
        assert "Filter" in result.message or "Project" in result.message

    def test_explain_create_table_as(self, db_figure2):
        result = db_figure2.execute("explain create table X as select * from I;")
        assert "Scan" in result.message

    def test_unknown_table_in_query(self, db_figure1):
        with pytest.raises(UnknownRelationError):
            db_figure1.execute("select * from Missing;")

    def test_parse_error_propagates(self, db_figure1):
        with pytest.raises(ParseError):
            db_figure1.execute("selectx * from R;")

    def test_assert_dropping_all_worlds_raises(self, db_figure2):
        with pytest.raises(WorldSetError):
            db_figure2.execute(
                "create table X as select * from I assert exists"
                "(select * from I where A = 'zzz');")

    def test_world_transformer_inside_subquery_rejected(self, db_figure1):
        with pytest.raises(UnsupportedFeatureError):
            db_figure1.execute(
                "select * from R where exists "
                "(select * from S choice of E);")

    def test_view_inside_scalar_subquery_rejected(self, db_figure1):
        db_figure1.execute("create view V as select * from R;")
        with pytest.raises(UnsupportedFeatureError):
            db_figure1.execute("select * from R where exists (select * from V);")


class TestCompoundQueries:
    def test_union_runs_per_world(self, db_figure1):
        result = db_figure1.execute(
            "select C from R union select C from S;")
        assert result.is_world_rows()
        rows = set(result.world_answers[0].relation.rows)
        assert rows == {("c1",), ("c2",), ("c3",), ("c4",), ("c5",)}

    def test_union_all_keeps_duplicates(self, db_figure1):
        result = db_figure1.execute("select C from S union all select C from S;")
        assert len(result.world_answers[0].relation) == 6

    def test_intersect_and_except(self, db_figure1):
        intersect = db_figure1.execute("select C from R intersect select C from S;")
        assert sorted(intersect.world_answers[0].relation.rows) == [("c2",), ("c4",)]
        except_ = db_figure1.execute("select C from S except select C from R;")
        assert except_.world_answers[0].relation.rows == []


class TestResultObjects:
    def test_pretty_of_world_rows_mentions_worlds(self, db_figure2):
        result = db_figure2.execute("select sum(B) from I;")
        text = result.pretty()
        assert "world" in text
        assert "P = " in text

    def test_pretty_of_rows_and_command(self, db_figure2):
        rows_result = db_figure2.execute("select possible sum(B) from I;")
        assert "sum" in rows_result.pretty()
        command = db_figure2.execute("create table Z as select * from I;")
        assert "created table" in command.pretty()

    def test_scalar_requires_1x1(self, db_figure2):
        result = db_figure2.execute("select possible sum(B) from I;")
        with pytest.raises(ValueError):
            result.scalar()

    def test_iteration_over_results(self, db_figure2):
        rows = list(db_figure2.execute("select possible sum(B) from I;"))
        assert len(rows) == 4
        per_world = list(db_figure2.execute("select sum(B) from I;"))
        assert len(per_world) == 4
