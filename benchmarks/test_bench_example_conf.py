"""EX2.10 — confidence computation.

The paper prints 0.53 for ``select conf from I where 50 > (select sum(Time)
from I)``, referring to a column ``Time`` that does not occur in Figure 1.
With the printed data and ``sum(B)`` the qualifying worlds are A (sum 44) and
B (sum 49), whose exact probabilities are 2/18 and 6/18, so the reproduced
value is 4/9 ~ 0.44.  The README section "Paper vs reproduction" records
the discrepancy; the machinery (the sum of the probabilities of the
qualifying worlds) is the paper's.
"""

from __future__ import annotations

import pytest

from conftest import print_table

SETUP_SQL = "create table I as select A, B, C from R repair by key A weight D;"
CONF_SQL = "select conf from I where 50 > (select sum(B) from I);"


def test_example_2_10_world_condition_confidence(benchmark, fresh_figure1_db):
    db = fresh_figure1_db()
    db.execute(SETUP_SQL)

    def query():
        return db.execute(CONF_SQL)

    result = benchmark(query)
    assert result.scalar() == pytest.approx(4 / 9)
    qualifying = [
        (world.label, world.relation("I").rows and
         sum(row[1] for row in world.relation("I").rows), round(world.probability, 4))
        for world in db.world_set]
    print_table("Example 2.10: per-world sum(B) and probability",
                ["world", "sum(B)", "P"], qualifying)
    print_table("Example 2.10: select conf (sum(B) < 50)",
                ["conf (measured)", "conf (paper, using 'Time')"],
                [(round(result.scalar(), 4), 0.53)])


def test_tuple_confidence_variant(benchmark, fresh_figure1_db):
    db = fresh_figure1_db()
    db.execute(SETUP_SQL)

    def query():
        return db.execute("select conf, A, B, C from I;")

    result = benchmark(query)
    confidences = {row[:3]: round(row[3], 4) for row in result.rows()}
    assert confidences[("a3", 20, "c5")] == pytest.approx(1.0)
    assert confidences[("a1", 10, "c1")] == pytest.approx(0.25)
    print_table("Tuple confidences of I",
                ["A", "B", "C", "conf"],
                [(*key, value) for key, value in sorted(confidences.items())])
