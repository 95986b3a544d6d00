"""Integration tests: data cleaning by constraints and queries (Section 3.2)."""

from __future__ import annotations

import pytest

from repro import MayBMS
from repro.cleaning import (
    CleaningPipeline,
    enforce_functional_dependency,
    repair_key_step,
    swap_candidates_sql,
)
from repro.datasets import (
    cleaning_swap_relation_s,
    figure6_expected_worlds,
    figure7_expected_worlds,
)
from repro.relational.relation import Relation
from repro.workloads import census_like_relation


class TestSwapCandidates:
    def test_figure5_swap_table(self, db_cleaning):
        db_cleaning.execute(swap_candidates_sql("R", "S", "SSN", "TEL"))
        relation = db_cleaning.relation("S")
        assert set(relation.rows) == set(cleaning_swap_relation_s().rows)
        assert relation.schema.names() == ["SSN", "TEL", "SSN'", "TEL'"]

    def test_identical_values_produce_single_reading(self):
        db = MayBMS({"R": Relation(["A", "B"], [(5, 5)])})
        db.execute(swap_candidates_sql("R", "S", "A", "B"))
        assert len(db.relation("S")) == 1


class TestRepairAndAssert:
    def test_figure6_four_readings(self, db_cleaning):
        db_cleaning.execute(swap_candidates_sql("R", "S", "SSN", "TEL"))
        db_cleaning.execute(repair_key_step("S", "T", key=["SSN", "TEL"],
                                            select_columns=["SSN'", "TEL'"]))
        assert db_cleaning.world_count() == 4
        observed = {world.relation("T").fingerprint()
                    for world in db_cleaning.world_set}
        expected = {relation.fingerprint()
                    for relation in figure6_expected_worlds().values()}
        assert observed == expected

    def test_figure7_fd_enforcement_drops_world_b(self, db_cleaning):
        for statement in CleaningPipeline("R", "SSN", "TEL").statements():
            db_cleaning.execute(statement)
        assert db_cleaning.world_count() == 3
        observed = {world.relation("U").fingerprint()
                    for world in db_cleaning.world_set}
        expected = {relation.fingerprint()
                    for relation in figure7_expected_worlds().values()}
        assert observed == expected

    def test_dropped_world_is_the_one_violating_the_fd(self, db_cleaning):
        for statement in CleaningPipeline("R", "SSN", "TEL").statements():
            db_cleaning.execute(statement)
        for world in db_cleaning.world_set:
            ssn_values = [row[0] for row in world.relation("U").rows]
            assert len(ssn_values) == len(set(ssn_values))


class TestCleaningPipeline:
    def test_report_world_counts(self, db_cleaning):
        report = CleaningPipeline("R", "SSN", "TEL").run(db_cleaning)
        assert report.world_counts == [1, 4, 3]
        assert set(db_cleaning.relation("S").rows) == \
            set(cleaning_swap_relation_s().rows)
        assert {world.relation("U").fingerprint()
                for world in db_cleaning.world_set} == \
            {relation.fingerprint()
             for relation in figure7_expected_worlds().values()}
        assert report.final_world_count == 3
        assert "repair by key" in report.statements[1]
        assert len(report.summary().splitlines()) == 3

    def test_statement_text_matches_paper_structure(self):
        statements = CleaningPipeline("R", "SSN", "TEL").statements()
        assert "union" in statements[0]
        assert "repair by key SSN, TEL" in statements[1]
        assert "assert not exists" in statements[2]

    def test_fd_statement_generator(self):
        sql = enforce_functional_dependency("T", "U", "SSN'", "TEL'")
        assert "t1.SSN' = t2.SSN'" in sql
        assert "t1.TEL' <> t2.TEL'" in sql

    def test_pipeline_on_larger_census_data(self):
        census = census_like_relation(people=3, conflicts_per_person=2, seed=1)
        db = MayBMS({"Census": census})
        db.execute(repair_key_step("Census", "Clean", key=["SSN"],
                                   select_columns=["SSN", "Name", "Marital"],
                                   weight="W"))
        assert db.world_count() == 2 ** 3
        assert sum(w.probability for w in db.world_set) == pytest.approx(1.0)
        # Every repaired world satisfies the SSN key.
        for world in db.world_set:
            ssns = [row[0] for row in world.relation("Clean").rows]
            assert len(ssns) == len(set(ssns))

    def test_weighted_pipeline(self, ):
        relation = Relation(["SSN", "TEL", "W"], [(1, 2, 3), (4, 1, 1)])
        db = MayBMS({"R": relation})
        db.execute(
            "create table S as "
            "select SSN, TEL, W, SSN as SSN', TEL as TEL' from R union "
            "select SSN, TEL, W, TEL as SSN', SSN as TEL' from R;")
        db.execute("create table T as select SSN', TEL' from S "
                   "repair by key SSN, TEL weight W;")
        assert db.world_count() == 4
        assert sum(w.probability for w in db.world_set) == pytest.approx(1.0)
