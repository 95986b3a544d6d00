"""BENCH_DUR1 — the durable store: commit latency, recovery time, snapshots.

The durable store's cost model, measured (numbers printed, not asserted):

* **commit latency** — a durable commit appends one CRC'd WAL record and
  fsyncs it (the default policy); the per-commit median is the price of
  the committed-stays-committed guarantee;
* **recovery vs. WAL length** — reopening a directory whose WAL holds N
  records replays all N; the time should grow roughly linearly with N
  (the point of snapshots is to bound exactly this);
* **snapshot cost and its payoff** — one ``checkpoint()`` serialises the
  full decomposition into SQLite and rotates the WAL; recovery afterwards
  replays **zero** records (asserted), so the post-snapshot reopen time is
  the floor recovery cost.

Correctness is asserted alongside the timings: every recovery lands on the
exact generation the writer acknowledged.
"""

from __future__ import annotations

import statistics
import time

from repro import MayBMS

from conftest import dur1_parameters, print_table

PARAMS = dur1_parameters()

SETUP = (
    "create table R (K, V, W);",
    "insert into R values (1, 10, 0.5);",
    "insert into R values (1, 20, 0.5);",
    "insert into R values (2, 30, 1.5);",
    "create table I as select K, V from R repair by key K weight W;",
    "create table EVENTS (N, X);",
)


def _run_workload(data_dir: str, writes: int) -> tuple[float, int]:
    """Commit the workload durably; return (median commit ms, generation)."""
    db = MayBMS(backend="wsd", data_dir=data_dir,
                durability={"snapshot_every": None})
    for sql in SETUP:
        db.execute(sql)
    samples = []
    for index in range(writes):
        sql = f"insert into EVENTS values ({index}, {index % 7});"
        start = time.perf_counter()
        db.execute(sql)
        samples.append((time.perf_counter() - start) * 1000.0)
    generation = db.state_generation
    db.close()
    return statistics.median(samples), generation


def _timed_recovery(data_dir: str) -> tuple[float, MayBMS]:
    start = time.perf_counter()
    db = MayBMS(backend="wsd", data_dir=data_dir,
                durability={"snapshot_every": None})
    return (time.perf_counter() - start) * 1000.0, db


class TestDur1Durability:
    def test_commit_recovery_and_snapshot_costs(self, tmp_path_factory):
        headers = ["point", "writes", "commit_ms", "recovery_ms",
                   "replayed", "checkpoint_ms", "recovery2_ms",
                   "replayed2"]
        rows = []
        for writes in PARAMS["writes"]:
            data_dir = str(tmp_path_factory.mktemp(f"dur1-{writes}"))
            commit_ms, generation = _run_workload(data_dir, writes)
            assert generation == len(SETUP) + writes

            recovery_ms, db = _timed_recovery(data_dir)
            assert db.state_generation == generation
            replayed = db.recovery.replayed_records
            assert replayed == generation  # the whole log, no snapshots yet

            start = time.perf_counter()
            db.checkpoint()
            checkpoint_ms = (time.perf_counter() - start) * 1000.0
            db.close()

            recovery2_ms, db2 = _timed_recovery(data_dir)
            assert db2.state_generation == generation
            replayed2 = db2.recovery.replayed_records
            assert replayed2 == 0  # the snapshot covers everything
            db2.close()

            rows.append((writes, writes, round(commit_ms, 3),
                         round(recovery_ms, 2), replayed,
                         round(checkpoint_ms, 2), round(recovery2_ms, 2),
                         replayed2))
        print_table("BENCH_DUR1: durable commits, recovery, snapshots",
                    headers, rows)
