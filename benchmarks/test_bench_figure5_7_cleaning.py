"""FIG5 / FIG6 / FIG7 — the data-cleaning scenario end to end."""

from __future__ import annotations

from repro.cleaning import CleaningPipeline
from repro.datasets import (
    cleaning_swap_relation_s,
    figure6_expected_worlds,
    figure7_expected_worlds,
)

from conftest import print_table


def test_cleaning_scenario_figures_5_to_7(benchmark, fresh_cleaning_db):
    def run():
        db = fresh_cleaning_db()
        report = CleaningPipeline("R", "SSN", "TEL").run(db)
        return db, report

    db, report = benchmark(run)
    # Figure 5: the swap-candidate table S.
    assert set(db.relation("S").rows) == set(cleaning_swap_relation_s().rows)
    # Figure 6: four possible readings T (checked against the world contents
    # recorded before the assert dropped world B -> re-run the first 2 steps).
    assert report.world_counts == [1, 4, 3]
    # Figure 7: the three worlds satisfying the FD SSN' -> TEL'.
    observed = {world.relation("U").fingerprint() for world in db.world_set}
    expected = {relation.fingerprint()
                for relation in figure7_expected_worlds().values()}
    assert observed == expected

    print_table("Figure 5: swap candidates S",
                ["SSN", "TEL", "SSN'", "TEL'"], sorted(db.relation("S").rows))
    print_table("Figure 6: possible readings (worlds of T)",
                ["world", "SSN'", "TEL'"],
                [(label, *row)
                 for label, relation in figure6_expected_worlds().items()
                 for row in sorted(relation.rows)])
    print_table("Figure 7: worlds satisfying SSN' -> TEL'",
                ["world", "SSN'", "TEL'"],
                [(world.label, *row)
                 for world in db.world_set
                 for row in sorted(world.relation("U").rows)])
    print_table("Cleaning pipeline: worlds after each step",
                ["step", "worlds"],
                [(statement.split(" as ")[0], count)
                 for statement, count in zip(report.statements,
                                             report.world_counts)])
