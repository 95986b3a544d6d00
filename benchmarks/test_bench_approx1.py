"""BENCH_APPROX1 — graceful degradation: strict refusal vs. anytime sampling.

The robustness counterpart to SCALE-2: a correlated self-join ``conf``
over a chain of skewed key-repair components (one 99:1 weighted choice per
key group), executed under deliberately tiny resource budgets, so the
exact tiers (d-tree, then guarded enumeration) are *forced* over budget at
every sweep point.  Two query shapes stress both estimators:

* **rare** — both joined groups must pick their 1%-probability repair:
  every clause has probability ``1e-4``, the whole DNF ``~1e-3``.  Naive
  sampling would need millions of draws to even see a hit; the Karp–Luby
  estimator answers with bounded *relative* error in one batch;
* **dense** — either side picks the rare repair: a mid-range confidence
  the naive Monte-Carlo leg estimates within its Wilson interval.

Three legs answer each point:

* **exact** — an unconstrained d-tree session provides the ground truth
  (the chain DNF is hierarchical, so exact stays polynomial throughout);
* **strict** — the tiny-budget session with ``degradation="strict"``:
  must refuse with a structured :class:`~repro.errors.ResourceBudgetError`
  (kind + budget + observed), never a crash;
* **anytime** — the same tiny budgets with ``degradation="anytime"``:
  must *answer* both refused queries, the dense estimate within
  ``max(4 * epsilon, 0.02)`` of the exact value and the rare estimate
  within 10% relative error.

A strict leg that stops refusing, an anytime leg that stops answering, or
an estimate that drifts out of its advertised contract all fail the test.
"""

from __future__ import annotations

import time

import pytest

from repro import MayBMS, ResourceBudgets
from repro.errors import ResourceBudgetError
from repro.relational.relation import Relation
from repro.relational.schema import Column, Schema
from repro.relational.types import SqlType
from repro.wsd import AnytimeBudget

from conftest import approx1_parameters, print_table

PARAMS = approx1_parameters()

REPAIR_STATEMENT = ("create table I as "
                    "select K, P1 from Dirty repair by key K weight W;")

#: Both neighbouring groups pick their 1%-probability repair (Karp–Luby
#: regime: union bound ~1e-3, far below the naive-sampling resolution).
RARE_QUERY = ("select conf from I i1, L, I i2 "
              "where i1.K = L.A and i2.K = L.B "
              "and i1.P1 = 1 and i2.P1 = 1;")

#: Either neighbouring group picks the rare repair (naive Monte-Carlo
#: regime: a mid-range confidence with a real Wilson interval).
DENSE_QUERY = ("select conf from I i1, L, I i2 "
               "where i1.K = L.A and i2.K = L.B "
               "and (i1.P1 = 1 or i2.P1 = 1);")


def _build_inputs(groups: int):
    schema = Schema([Column("K", SqlType.INTEGER),
                     Column("P1", SqlType.INTEGER),
                     Column("W", SqlType.INTEGER)])
    rows = []
    for key in range(groups):
        rows.append((key, 0, 99))  # the common repair (p = 0.99)
        rows.append((key, 1, 1))   # the rare repair (p = 0.01)
    dirty = Relation(schema, rows, name="Dirty")
    link = Relation(Schema([Column("A", SqlType.INTEGER),
                            Column("B", SqlType.INTEGER)]),
                    [(k, k + 1) for k in range(groups - 1)], name="L")
    return dirty, link


def _session(dirty, link, **kwargs):
    db = MayBMS({"Dirty": dirty, "L": link}, backend="wsd", **kwargs)
    db.execute(REPAIR_STATEMENT)
    return db


def _timed(callable_):
    start = time.perf_counter()
    result = callable_()
    return result, (time.perf_counter() - start) * 1000.0


def test_approx1_anytime_answers_what_strict_refuses():
    budgets = ResourceBudgets.coerce(PARAMS["budgets"])
    anytime = AnytimeBudget(max_samples=PARAMS["max_samples"],
                            target_epsilon=PARAMS["epsilon"], seed=7)
    rows = []
    for groups in PARAMS["groups"]:
        dirty, link = _build_inputs(groups)
        worlds = 2 ** groups

        exact_db = _session(dirty, link)
        rare_result, exact_ms = _timed(
            lambda: exact_db.execute(RARE_QUERY))
        rare_exact = rare_result.rows()[0][0]
        dense_exact = exact_db.execute(DENSE_QUERY).rows()[0][0]
        assert not rare_result.approximate

        strict_db = _session(dirty, link, budgets=budgets,
                             degradation="strict")
        refusal_kinds = []
        for query in (RARE_QUERY, DENSE_QUERY):
            with pytest.raises(ResourceBudgetError) as refusal:
                strict_db.execute(query)
            payload = refusal.value.payload()
            assert payload["observed"] > payload["budget"]
            refusal_kinds.append(payload["kind"])

        anytime_db = _session(dirty, link, budgets=budgets,
                              degradation="anytime", anytime=anytime)
        rare_estimate, rare_ms = _timed(
            lambda: anytime_db.execute(RARE_QUERY))
        dense_estimate, dense_ms = _timed(
            lambda: anytime_db.execute(DENSE_QUERY))

        # The headline guarantees: both refused queries are answered, each
        # estimator honouring its accuracy contract against the exact
        # ground truth.
        assert rare_estimate.approximate
        rare_value = rare_estimate.rows()[0][0]
        rare_contract = rare_estimate.approximation
        assert "karp-luby" in rare_contract["estimators"]
        assert rare_value == pytest.approx(rare_exact, rel=0.1)

        assert dense_estimate.approximate
        dense_value = dense_estimate.rows()[0][0]
        dense_contract = dense_estimate.approximation
        assert dense_value == pytest.approx(
            dense_exact, abs=max(4.0 * dense_contract["epsilon"], 0.02))

        rows.append((groups, worlds, round(exact_ms, 2),
                     round(rare_ms, 2), round(dense_ms, 2),
                     rare_contract["samples"] + dense_contract["samples"],
                     round(abs(rare_value - rare_exact) / rare_exact, 5),
                     round(abs(dense_value - dense_exact), 5),
                     f"refused ({'/'.join(sorted(set(refusal_kinds)))})"))

    headers = ["point", "worlds", "exact ms", "rare anytime ms",
               "dense anytime ms", "samples", "rare rel err",
               "dense abs err", "strict"]
    print_table("APPROX-1: graceful degradation (conf under tiny budgets)",
                headers, rows)
