"""Integration tests: every worked example of Section 2 of the paper.

Each test cites the example it reproduces; the expected values are the ones
printed in the paper (Figures 1 and 2, Examples 2.1 - 2.10).  Where the
paper's numbers are rounded we compare against the exact fractions.
"""

from __future__ import annotations

import pytest

from repro.datasets import figure2_expected_probabilities


class TestExample21PlainSelect:
    """Example 2.1: a plain SELECT runs in every world and is not materialised."""

    def test_answer_per_world(self, db_figure2):
        result = db_figure2.execute("select * from I where A = 'a3';")
        assert result.is_world_rows()
        assert len(result.world_answers) == 4
        for answer in result.world_answers:
            assert answer.relation.rows == [("a3", 20, "c5")]

    def test_input_world_set_unchanged(self, db_figure2):
        before = db_figure2.world_count()
        db_figure2.execute("select * from I where A = 'a3';")
        assert db_figure2.world_count() == before
        assert "J" not in db_figure2.table_names()


class TestExample22CreateTableAs:
    """Example 2.2: CREATE TABLE AS materialises the answer in every world."""

    def test_relation_d_added_to_every_world(self, db_figure2):
        db_figure2.execute("create table D as select * from I where A = 'a3';")
        for world in db_figure2.world_set:
            assert world.relation("D").rows == [("a3", 20, "c5")]


class TestExample23And24RepairByKey:
    """Examples 2.3 / 2.4 and Figure 2: repairs of R on key A, with weights."""

    def test_unweighted_repair_creates_four_worlds(self, db_figure1):
        db_figure1.execute(
            "create table I as select A, B, C from R repair by key A;")
        assert db_figure1.world_count() == 4
        assert all(world.probability is None for world in db_figure1.world_set)

    def test_every_world_keeps_r_and_s(self, db_figure2):
        for world in db_figure2.world_set:
            assert world.has_relation("R")
            assert world.has_relation("S")
            r, s = world.relation("R"), world.relation("S")
            assert len(r) == 5 and r.schema.names() == ["A", "B", "C", "D"]
            assert len(s) == 3 and s.schema.names() == ["C", "E"]
            assert ("a1", 10, "c1", 2) in r.rows and ("c4", "e2") in s.rows

    def test_weighted_repair_probabilities_match_figure2(self, db_figure2,
                                                         figure2_worlds):
        assert db_figure2.world_count() == 4
        assert db_figure2.world_set.same_world_contents(
            figure2_worlds, relations=["I"], compare_probabilities=True)

    def test_paper_rounded_probabilities(self, db_figure2):
        rounded = sorted(round(w.probability, 2) for w in db_figure2.world_set)
        assert rounded == sorted(
            round(p, 2) for p in figure2_expected_probabilities().values())
        assert sum(w.probability for w in db_figure2.world_set) == pytest.approx(1.0)


class TestExample25Assert:
    """Example 2.5: assert drops worlds A and C; survivors renormalise."""

    def test_assert_drops_worlds_with_c1(self, db_figure2):
        db_figure2.execute(
            "create table J as select * from I "
            "assert not exists(select * from I where C = 'c1');")
        assert db_figure2.world_count() == 2
        for world in db_figure2.world_set:
            assert all(row[2] != "c1" for row in world.relation("I").rows)
            assert world.relation("J").bag_equal(world.relation("I"))

    def test_renormalised_probabilities_are_044_and_056(self, db_figure2):
        db_figure2.execute(
            "create table J as select * from I "
            "assert not exists(select * from I where C = 'c1');")
        rounded = sorted(round(w.probability, 2) for w in db_figure2.world_set)
        assert rounded == [0.44, 0.56]
        assert sum(w.probability for w in db_figure2.world_set) == pytest.approx(1.0)

    def test_plain_select_with_assert_does_not_change_state(self, db_figure2):
        result = db_figure2.execute(
            "select * from I assert not exists(select * from I where C = 'c1');")
        assert len(result.world_answers) == 2
        assert db_figure2.world_count() == 4  # session state untouched


class TestExample26And27ChoiceOf:
    """Examples 2.6 / 2.7: choice-of partitions, optionally weighted."""

    def test_choice_of_e_creates_two_worlds(self, db_figure1):
        result = db_figure1.execute("select * from S choice of E;")
        assert len(result.world_answers) == 2
        partitions = {tuple(sorted(answer.relation.rows))
                      for answer in result.world_answers}
        assert (("c2", "e1"), ("c4", "e1")) in partitions
        assert (("c4", "e2"),) in partitions

    def test_choice_of_does_not_change_session_state(self, db_figure1):
        db_figure1.execute("select * from S choice of E;")
        assert db_figure1.world_count() == 1

    def test_weighted_choice_probabilities_example_2_7(self, db_figure1):
        result = db_figure1.execute("select * from R choice of A weight D;")
        probabilities = sorted(round(answer.probability, 2)
                               for answer in result.world_answers)
        assert probabilities == [0.26, 0.35, 0.39]
        assert sum(answer.probability
                   for answer in result.world_answers) == pytest.approx(1.0)


class TestExample28PossibleSum:
    """Example 2.8: per-world sums and the possible-sums query."""

    def test_per_world_sums(self, db_figure2):
        result = db_figure2.execute("select sum(B) from I;")
        sums = sorted(answer.relation.rows[0][0]
                      for answer in result.world_answers)
        assert sums == [44, 49, 50, 55]

    def test_possible_sum_collects_all_world_answers(self, db_figure2):
        result = db_figure2.execute("select possible sum(B) from I;")
        assert result.is_rows()
        assert sorted(row[0] for row in result.rows()) == [44, 49, 50, 55]


class TestExample29CertainChoiceOf:
    """Example 2.9: certain E over choice-of C is {(e1)}."""

    def test_certain_e(self, db_figure1):
        result = db_figure1.execute("select certain E from S choice of C;")
        assert result.rows() == [("e1",)]

    def test_possible_variant_returns_both_values(self, db_figure1):
        result = db_figure1.execute("select possible E from S choice of C;")
        assert sorted(row[0] for row in result.rows()) == ["e1", "e2"]


class TestExample210Conf:
    """Example 2.10: confidence of a world-level condition.

    Note on the expected value: the paper reports 0.53 referring to a column
    ``Time`` that does not appear in Figure 1; with the printed data and the
    condition ``sum(B) < 50`` the qualifying worlds are A (sum 44, P=2/18)
    and B (sum 49, P=6/18), giving 4/9 ~ 0.44.  The README section
    "Paper vs reproduction" records the discrepancy; the machinery (sum of
    surviving world probabilities) is identical.
    """

    def test_conf_of_sum_condition(self, db_figure2):
        result = db_figure2.execute(
            "select conf from I where 50 > (select sum(B) from I);")
        assert result.is_rows()
        assert result.scalar() == pytest.approx(4 / 9)

    def test_conf_sums_world_probabilities(self, db_figure2):
        result = db_figure2.execute(
            "select conf from I where 56 > (select sum(B) from I);")
        assert result.scalar() == pytest.approx(1.0)
        result = db_figure2.execute(
            "select conf from I where 10 > (select sum(B) from I);")
        assert result.scalar() == pytest.approx(0.0)

    def test_row_confidence_variant(self, db_figure2):
        result = db_figure2.execute("select conf, A, B, C from I;")
        confidences = {row[:3]: row[3] for row in result.rows()}
        assert confidences[("a1", 10, "c1")] == pytest.approx(2 / 8)
        assert confidences[("a1", 15, "c2")] == pytest.approx(6 / 8)
        assert confidences[("a3", 20, "c5")] == pytest.approx(1.0)
        # A repeat (statement-cache hit) answers the same.
        assert db_figure2.execute("select conf, A, B, C from I;").rows() == \
            result.rows()

    def test_possible_and_certain_relate_to_conf(self, db_figure2):
        """A tuple is possible iff conf > 0 and certain iff conf = 1."""
        conf = {row[:3]: row[3] for row in
                db_figure2.execute("select conf, A, B, C from I;").rows()}
        possible = {tuple(row) for row in
                    db_figure2.execute("select possible A, B, C from I;").rows()}
        certain = {tuple(row) for row in
                   db_figure2.execute("select certain A, B, C from I;").rows()}
        assert possible == {row for row, p in conf.items() if p > 0}
        assert certain == {row for row, p in conf.items()
                           if p == pytest.approx(1.0)}
