"""Shared helpers for the benchmark series.

Every series both *checks* its correctness and work-counter guarantees and
*prints* the table it reproduces, so running::

    pytest benchmarks/ -s

prints the series on stdout.  Wall-clock is printed, never asserted: the
end-to-end benchmark in ``bench/`` is where timings are judged.  The paper's
worked examples and figures are asserted in ``tests/test_paper_examples.py``
and the scenario tests, and printed by ``examples/``.

Setting ``REPRO_BENCH_SMOKE=1`` shrinks the sweep parameters to tiny grids,
so CI can run the whole benchmark suite in seconds as a smoke test (the
code paths and the correctness assertions are fully exercised).
"""

from __future__ import annotations

import os

from repro.workloads import DirtyRelationSpec

#: True when the benchmarks run as a CI smoke test with tiny sweeps.
BENCH_SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "").strip().lower() in {
    "1", "true", "yes", "on"}


def scalability_sweep_parameters() -> dict:
    """Keyword arguments for the SCALE-1 sweep (tiny under smoke mode)."""
    if BENCH_SMOKE:
        # Keep one point past the explicit limit so the infeasible branch
        # of the latency series is exercised even in smoke mode.
        return {"groups": (2, 5), "options": (2,), "explicit_limit": 16}
    return {"groups": (2, 4, 6, 8, 10, 12), "options": (2, 4),
            "explicit_limit": 5000}


def scale1_grounding_parameters() -> dict:
    """Parameters for the SCALE-1 grounding-heavy columnar sweep.

    ``groups`` are the sweep points (key groups of the dirty relation;
    ``groups * options`` ground tuples flow through every filter /
    projection batch); ``options`` sizes the per-group alternatives;
    ``repetitions`` sizes the per-point timing samples.  The sweep times
    the same prepared symbolic query with the columnar batch engine and
    with its row-at-a-time loops forced, and prints both latencies.
    """
    if BENCH_SMOKE:
        return {"groups": (30, 60), "options": 4, "repetitions": 15}
    return {"groups": (200, 400, 800), "options": 8, "repetitions": 25}


def scale2_specs() -> tuple[DirtyRelationSpec, DirtyRelationSpec]:
    """The (explicit-feasible, enumeration-infeasible) SCALE-2 workloads."""
    if BENCH_SMOKE:
        return (DirtyRelationSpec(groups=3, options=2, seed=3),
                DirtyRelationSpec(groups=12, options=2, seed=3))
    return (DirtyRelationSpec(groups=8, options=2, seed=3),
            DirtyRelationSpec(groups=60, options=4, seed=3))


def scale2_correlated_parameters() -> dict:
    """Parameters for the SCALE-2 correlated-``conf`` sweep.

    ``groups`` are the sweep points (key groups of the dirty relation, each a
    component of the repair; the self-join correlates neighbouring groups, so
    a joint enumeration would be ``options ** groups``).
    ``explicit_limit`` bounds the world count the explicit backend runs at.
    """
    if BENCH_SMOKE:
        return {"groups": (3, 6), "options": 2, "explicit_limit": 64}
    return {"groups": (4, 8, 12, 16, 20, 24), "options": 2,
            "explicit_limit": 256}


def scale3_aggregate_parameters() -> dict:
    """Parameters for the SCALE-3 decomposed-aggregate sweep.

    ``groups`` are the sweep points (key groups of the dirty relation, each
    one independent component of the repair, so the world count is
    ``options ** groups``).  ``explicit_limit`` bounds the points the
    explicit backend materialises.  ``payload_domain`` keeps aggregate
    values in a small range so the distinct partial sums stay
    pseudo-polynomial (the regime the Minkowski-sum DP exploits).
    """
    if BENCH_SMOKE:
        return {"groups": (3, 6), "options": 2, "explicit_limit": 16,
                "payload_domain": 10}
    return {"groups": (8, 12, 20, 24), "options": 2, "explicit_limit": 256,
            "payload_domain": 10}


def scale4_grouping_parameters() -> dict:
    """Parameters for the SCALE-4 world-grouping / set-operation sweep.

    ``groups`` are the sweep points (key groups of the dirty relation, one
    independent component each; world count is ``options ** groups``).
    ``explicit_limit`` bounds the points the explicit backend materialises.
    ``payload_domain`` keeps the grouping aggregate's value lattice small so
    the native engine's convolution states stay pseudo-polynomial.
    """
    if BENCH_SMOKE:
        return {"groups": (3, 6), "options": 2, "explicit_limit": 16,
                "payload_domain": 6}
    return {"groups": (8, 10, 20, 24), "options": 2, "explicit_limit": 256,
            "payload_domain": 6}


def approx1_parameters() -> dict:
    """Parameters for the APPROX-1 graceful-degradation sweep.

    ``groups`` are the sweep points (key groups of the dirty relation; the
    correlated self-join makes the joint space ``2 ** groups``).  The
    strict leg runs under deliberately tiny resource budgets
    (``budgets``), so every point is a forced overrun; the anytime leg
    answers the same refused query by sampling, with ``max_samples`` /
    ``epsilon`` bounding its work.
    """
    if BENCH_SMOKE:
        return {"groups": (8, 12), "budgets": {"enumeration_limit": 64,
                                               "dtree_nodes": 16},
                "max_samples": 8192, "epsilon": 0.02}
    return {"groups": (8, 16, 24, 32), "budgets": {"enumeration_limit": 64,
                                                   "dtree_nodes": 16},
            "max_samples": 40000, "epsilon": 0.01}


def scale5_serving_parameters() -> dict:
    """Parameters for the SCALE-5 serving (prepared statements) sweep.

    ``groups`` are the sweep points (key groups of the dirty relation);
    ``options`` is deliberately high — grounding work per template tuple is
    linear in the alternative count, so the compile-once path (parse +
    shape analysis + symbolic grounding) dominates cold execution and the
    prepared/cold ratio measures what serving actually amortises.
    ``threads`` are the read-scaling points; ``reads_per_thread`` /
    ``cold_repetitions`` / ``warm_repetitions`` size the timing samples.
    """
    if BENCH_SMOKE:
        return {"groups": (4, 8), "options": 12, "threads": (1, 2),
                "reads_per_thread": 5, "cold_repetitions": 5,
                "warm_repetitions": 25, "writer_rounds": 4}
    return {"groups": (10, 20, 40), "options": 12, "threads": (1, 2, 4, 8),
            "reads_per_thread": 40, "cold_repetitions": 9,
            "warm_repetitions": 80, "writer_rounds": 10}


def scale6_multiprocess_parameters() -> dict:
    """Parameters for the SCALE-6 multi-process scale-out sweep.

    ``groups``/``options`` size the grounding-heavy SCALE-5 workload the
    pool serves; ``workers`` are the pool sizes swept against the
    single-process one-client HTTP baseline; ``clients`` is how many
    concurrent HTTP client threads drive each pool point;
    ``reads_per_client`` sizes the timed read runs;
    ``cold_repetitions``/``hit_repetitions`` size the result-cache cold
    vs hit latency samples; the ``mixed_*`` knobs size the heavy-traffic
    read/DML scenario whose every answer is checked against a serial
    replay of the committed write order.
    """
    if BENCH_SMOKE:
        return {"groups": 8, "options": 12, "workers": (1, 2),
                "clients": 4, "reads_per_client": 6,
                "cold_repetitions": 3, "hit_repetitions": 40,
                "mixed_readers": 4, "mixed_reads": 6,
                "mixed_writers": 2, "mixed_writes": 3}
    return {"groups": 20, "options": 12, "workers": (1, 2, 4),
            "clients": 8, "reads_per_client": 25,
            "cold_repetitions": 5, "hit_repetitions": 200,
            "mixed_readers": 8, "mixed_reads": 25,
            "mixed_writers": 2, "mixed_writes": 8}


def dur1_parameters() -> dict:
    """Parameters for the BENCH_DUR1 durability sweep.

    ``writes`` are the sweep points: the WAL length (committed statements)
    at which per-commit latency (fsync on), full-replay recovery time,
    snapshot (checkpoint) cost and post-snapshot recovery time are
    measured.  Automatic snapshots are disabled during the run so the
    recovery leg genuinely replays the whole log.
    """
    if BENCH_SMOKE:
        return {"writes": (20, 60)}
    return {"writes": (200, 1000, 5000)}


def print_table(title: str, headers: list[str], rows: list[tuple]) -> None:
    """Print a small aligned table (one benchmark series)."""
    rendered = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    print(f"\n== {title} ==")
    print(" | ".join(header.ljust(widths[i]) for i, header in enumerate(headers)))
    print("-+-".join("-" * width for width in widths))
    for row in rendered:
        print(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))

