"""Integration tests: the whale-tracking demonstration (Section 3.1, Figures 3-4)."""

from __future__ import annotations


from repro.datasets import figure4_expected_groups
from repro.tracking import (
    attack_possibility_sql,
    gender_independence_check,
    paper_whale_model,
    protective_cow_view_sql,
)
from repro.tracking.queries import group_by_adult_position_sql


class TestFigure3Worlds:
    def test_dataset_has_six_worlds(self, whale_worlds):
        assert len(whale_worlds) == 6
        assert whale_worlds.labels() == ["A", "B", "C", "D", "E", "F"]

    def test_observation_model_reproduces_figure3(self, whale_worlds):
        generated = paper_whale_model().build_world_set()
        assert generated.same_world_contents(whale_worlds, relations=["I"])

    def test_every_world_tracks_three_whales(self, whale_worlds):
        for world in whale_worlds:
            assert len(world.relation("I")) == 3


class TestAttackQuery:
    """Query Q: is it possible the calf (id 1) moves to position b?"""

    def test_possible_attack_is_yes(self, db_whales):
        result = db_whales.execute(attack_possibility_sql())
        assert result.rows() == [("yes",)]

    def test_worlds_a_to_d_support_the_answer(self, db_whales):
        per_world = db_whales.execute(
            "select 'yes' from I where Id=1 and Pos='b';")
        supporting = [answer.label for answer in per_world.world_answers
                      if answer.relation.rows]
        assert supporting == ["A", "B", "C", "D"]

    def test_impossible_position_returns_empty(self, db_whales):
        result = db_whales.execute(
            "select possible 'yes' from I where Id=1 and Pos='a';")
        assert result.rows() == []


class TestValidViews:
    """The Valid / Valid' views encode the expert knowledge differently."""

    def test_query_q_empty_on_valid(self, db_whales):
        db_whales.execute(protective_cow_view_sql("Valid", drop_worlds=True))
        result = db_whales.execute(
            "select possible 'yes' from Valid where Id=1 and Pos='b';")
        assert result.rows() == []

    def test_query_q_empty_on_valid_prime(self, db_whales):
        db_whales.execute(protective_cow_view_sql("Valid'", drop_worlds=False))
        result = db_whales.execute(
            "select possible 'yes' from Valid' where Id=1 and Pos='b';")
        assert result.rows() == []

    def test_certain_differs_between_valid_and_valid_prime(self, db_whales,
                                                           whale_worlds):
        db_whales.execute(protective_cow_view_sql("Valid", drop_worlds=True))
        db_whales.execute(protective_cow_view_sql("Valid'", drop_worlds=False))
        certain_valid = db_whales.execute("select certain * from Valid;")
        certain_valid_prime = db_whales.execute("select certain * from Valid';")
        # Valid keeps only world E, so its certain answer is I_E ...
        world_e_rows = set(whale_worlds.world_by_label("E").relation("I").rows)
        assert set(map(tuple, certain_valid.rows())) == world_e_rows
        # ... while Valid' is empty in five of the six worlds.
        assert certain_valid_prime.rows() == []

    def test_views_do_not_change_session_state(self, db_whales):
        db_whales.execute(protective_cow_view_sql("Valid", drop_worlds=True))
        db_whales.execute("select certain * from Valid;")
        assert db_whales.world_count() == 6

    def test_possible_on_valid_returns_only_world_e_tuples(self, db_whales,
                                                           whale_worlds):
        db_whales.execute(protective_cow_view_sql("Valid", drop_worlds=True))
        possible = db_whales.execute("select possible * from Valid;")
        world_e_rows = set(whale_worlds.world_by_label("E").relation("I").rows)
        assert set(map(tuple, possible.rows())) == world_e_rows


class TestGroupsConstruction:
    """The group-worlds-by query building Figure 4."""

    def test_groups_match_figure4(self, db_whales):
        db_whales.execute(group_by_adult_position_sql())
        expected = figure4_expected_groups()
        # Worlds A-D (adult sperm whale at position c) share the 4-row group,
        # worlds E and F (position b) share the 2-row group.
        for label in "ABCD":
            world = db_whales.world_set.world_by_label(label)
            assert set(world.relation("Groups").rows) == set(expected["c"].rows)
        for label in "EF":
            world = db_whales.world_set.world_by_label(label)
            assert set(world.relation("Groups").rows) == set(expected["b"].rows)

    def test_group_count_and_sizes(self, db_whales):
        result = db_whales.execute(
            "select possible i2.Gender as G2, i3.Gender as G3 "
            "from I i2, I i3 where i2.Id = 2 and i3.Id = 3 "
            "group worlds by (select Pos from I where Id = 2);")
        assert len(result.world_answers) == 6
        sizes = sorted({len(answer.relation) for answer in result.world_answers})
        assert sizes == [2, 4]

    def test_gender_independence_check_as_in_paper(self, db_whales):
        db_whales.execute(group_by_adult_position_sql())
        for world in db_whales.world_set:
            groups = world.relation("Groups")
            assert gender_independence_check(groups)

    def test_dependence_detected_when_genders_correlated(self):
        from repro.relational.relation import Relation

        correlated = Relation(["G2", "G3"], [("cow", "cow"), ("bull", "bull")])
        assert not gender_independence_check(correlated)

    def test_certain_within_groups(self, db_whales):
        result = db_whales.execute(
            "select certain i3.Gender as G3 from I i3 where i3.Id = 3 "
            "group worlds by (select Pos from I where Id = 2);")
        answers = result.answers_by_label()
        # In the E/F group the orca is certainly a cow; in A-D it is not certain.
        assert answers["E"].rows == [("cow",)]
        assert answers["A"].rows == []
