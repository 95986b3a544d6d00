"""FIG3 / FIG4 — the whale-tracking scenario: query Q, the Valid views, Groups."""

from __future__ import annotations

from repro.datasets import figure4_expected_groups
from repro.tracking import (
    attack_possibility_sql,
    gender_independence_check,
    protective_cow_view_sql,
)
from repro.tracking.queries import group_by_adult_position_sql

from conftest import print_table


def test_query_q_possible_attack(benchmark, fresh_whales_db):
    db = fresh_whales_db()

    def query():
        return db.execute(attack_possibility_sql())

    result = benchmark(query)
    assert result.rows() == [("yes",)]
    print_table("Query Q: possible attack on the calf?",
                ["answer"], [(row[0],) for row in result.rows()])


def test_valid_views_and_certain_answers(benchmark, fresh_whales_db):
    def run():
        db = fresh_whales_db()
        db.execute(protective_cow_view_sql("Valid", drop_worlds=True))
        db.execute(protective_cow_view_sql("Valid'", drop_worlds=False))
        q_valid = db.execute(
            "select possible 'yes' from Valid where Id=1 and Pos='b';")
        certain_valid = db.execute("select certain * from Valid;")
        certain_valid_prime = db.execute("select certain * from Valid';")
        return q_valid, certain_valid, certain_valid_prime

    q_valid, certain_valid, certain_valid_prime = benchmark(run)
    assert q_valid.rows() == []
    assert len(certain_valid.rows()) == 3  # the world E instance of I
    assert certain_valid_prime.rows() == []
    print_table("Valid vs Valid': certain tuples",
                ["view", "certain tuples"],
                [("Valid", len(certain_valid.rows())),
                 ("Valid'", len(certain_valid_prime.rows()))])


def test_groups_reproduce_figure4(benchmark, fresh_whales_db):
    def run():
        db = fresh_whales_db()
        db.execute(group_by_adult_position_sql())
        return db

    db = benchmark(run)
    expected = figure4_expected_groups()
    for label in "ABCD":
        groups = db.world_set.world_by_label(label).relation("Groups")
        assert set(groups.rows) == set(expected["c"].rows)
    for label in "EF":
        groups = db.world_set.world_by_label(label).relation("Groups")
        assert set(groups.rows) == set(expected["b"].rows)
    for world in db.world_set:
        assert gender_independence_check(world.relation("Groups"))
    rows = []
    for key, relation in expected.items():
        for row in sorted(relation.rows):
            rows.append((f"worlds with adult at '{key}'", *row))
    print_table("Figure 4: possible gender combinations per world group",
                ["group", "G2", "G3"], rows)
