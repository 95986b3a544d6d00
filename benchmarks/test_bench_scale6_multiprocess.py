"""BENCH_SCALE6 — multi-process scale-out serving.

BENCH_SCALE5_threads showed the ceiling this series breaks: one process's
CPU-bound read throughput is flat from 1 to 8 threads (the GIL).  SCALE-6
measures the pre-fork worker pool (``python -m repro serve --workers N``)
against that ceiling on the same grounding-heavy workload, over real HTTP:

* **read scale-out** — aggregate reads/s of a pool at 1/2/4 workers vs the
  single-process one-client baseline, result caches disabled so the sweep
  measures execution scaling, not caching.  Every HTTP answer must equal
  the in-process serial answer; the throughput is printed, not asserted
  (pool speed and spread are judged by the ``pool_reads`` workload of the
  end-to-end benchmark in ``bench/``).
* **result-cache cold vs hit** — first-request latency (parse + plan +
  ground + evaluate + render) vs a generation-keyed
  :class:`~repro.serving.prepared.ResultCache` hit of the same request.
  The timings are printed; the test asserts exact counters from
  ``/stats``: result-cache hits rise by exactly the number of hit-leg
  requests, while statement-cache misses and grounding-cache lookups do
  not move.
* **mixed read/DML heavy traffic** — reader and writer clients hammer a
  pool concurrently; every answer must equal a serial replay of the
  committed write order at the generation the answer reports, to 1e-9 —
  the single-process linearizability check, across processes.
"""

from __future__ import annotations

import json
import os
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import MayBMS
from repro.serving import MayBMSServer, WorkerPool
from repro.workloads import DirtyRelationSpec
from repro.workloads.generators import dirty_key_relation

from conftest import print_table, scale6_multiprocess_parameters

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="the worker pool requires os.fork")

PARAMS = scale6_multiprocess_parameters()

REPAIR_STATEMENT = ("create table I as "
                    "select K, P1, P2 from Dirty repair by key K weight W;")

#: The grounding-heavy SCALE-5 read the pool serves over HTTP.
READ_SQL = "select conf, K from I where P1 > ? and K < ?;"
READ_PARAMS = (2, max(PARAMS["groups"] // 2, 1))


def _build_session() -> MayBMS:
    spec = DirtyRelationSpec(groups=PARAMS["groups"],
                             options=PARAMS["options"], seed=7)
    db = MayBMS({"Dirty": dirty_key_relation(spec)}, backend="wsd")
    db.execute(REPAIR_STATEMENT)
    return db


def _post(address, sql, params=()):
    host, port = address
    request = urllib.request.Request(
        f"http://{host}:{port}/query",
        data=json.dumps({"sql": sql, "params": list(params)}).encode(),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


def _get(address, path):
    host, port = address
    with urllib.request.urlopen(f"http://{host}:{port}{path}",
                                timeout=60) as response:
        return json.load(response)


def _timed_read_run(address, clients: int, reads: int) -> tuple[float, list]:
    """Drive ``clients`` threads of ``reads`` HTTP reads; return (s, rows)."""
    answers: list = []
    errors: list[Exception] = []
    answers_lock = threading.Lock()
    barrier = threading.Barrier(clients + 1, timeout=60)

    def client():
        try:
            barrier.wait()
            for _ in range(reads):
                status, payload = _post(address, READ_SQL, READ_PARAMS)
                assert status == 200, payload
                with answers_lock:
                    answers.append(payload["rows"])
        except Exception as error:  # pragma: no cover - diagnostics
            errors.append(error)

    pool = [threading.Thread(target=client) for _ in range(clients)]
    for thread in pool:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in pool:
        thread.join(timeout=300)
    elapsed = time.perf_counter() - start
    assert not errors, errors
    assert len(answers) == clients * reads
    return elapsed, answers


class TestScale6ReadScaleOut:
    def test_pool_reads_match_the_serial_answer(self):
        session = _build_session()
        expected = sorted((list(row) for row in
                           session.execute(READ_SQL, READ_PARAMS).rows()),
                          key=repr)
        reads = PARAMS["reads_per_client"]
        rows = []
        # Baseline: the single-process threaded server, ONE client, no
        # result cache — the un-scaled-out serving stack of SCALE-5.
        server = MayBMSServer(session, port=0, result_cache_size=0)
        threading.Thread(target=server.httpd.serve_forever,
                         daemon=True).start()
        try:
            elapsed, answers = _timed_read_run(server.address, 1, reads)
        finally:
            server.shutdown()
        rows.append(("1-process", 1, reads, round(elapsed * 1000.0, 1),
                     round(reads / elapsed, 1)))
        assert all(sorted(answer, key=repr) == expected
                   for answer in answers)
        clients = PARAMS["clients"]
        for workers in PARAMS["workers"]:
            pool_session = _build_session()
            with WorkerPool(pool_session, workers=workers, port=0,
                            result_cache_size=0) as pool:
                elapsed, answers = _timed_read_run(pool.address, clients,
                                                   reads)
            rows.append((workers, clients, clients * reads,
                         round(elapsed * 1000.0, 1),
                         round(clients * reads / elapsed, 1)))
            # Exactness survives scale-out: every HTTP answer equals the
            # in-process serial answer.
            assert all(sorted(answer, key=repr) == expected
                       for answer in answers)
        headers = ["workers", "clients", "reads", "wall ms", "reads/s"]
        print_table("SCALE-6: multi-process read scale-out", headers, rows)


class TestScale6ResultCache:
    def test_result_cache_hits_skip_execution(self):
        cold_samples: list[float] = []
        cold_rows = None
        server = None
        for _ in range(PARAMS["cold_repetitions"]):
            if server is not None:
                server.shutdown()
            server = MayBMSServer(_build_session(), port=0,
                                  result_cache_size=64)
            threading.Thread(target=server.httpd.serve_forever,
                             daemon=True).start()
            start = time.perf_counter()
            status, payload = _post(server.address, READ_SQL, READ_PARAMS)
            cold_samples.append((time.perf_counter() - start) * 1000.0)
            assert status == 200
            cold_rows = payload["rows"]
        # The last server stays up for the hit leg: repeats of the same
        # (sql, params) at the same generation come straight from the
        # result cache.
        try:
            before = _get(server.address, "/stats")
            hit_samples = []
            for _ in range(PARAMS["hit_repetitions"]):
                start = time.perf_counter()
                status, payload = _post(server.address, READ_SQL,
                                        READ_PARAMS)
                hit_samples.append((time.perf_counter() - start) * 1000.0)
                assert status == 200
                assert payload["rows"] == cold_rows  # byte-identical answer
            after = _get(server.address, "/stats")
        finally:
            server.shutdown()
        # Pass/fail on work counted, not on wall-clock: every hit-leg
        # request was served from the result cache, and none of them
        # prepared a statement or touched the grounding cache.
        assert after["result_cache"]["hits"] - \
            before["result_cache"]["hits"] == PARAMS["hit_repetitions"]
        assert after["statement_cache"]["misses"] == \
            before["statement_cache"]["misses"]

        def groundings(stats):
            return (stats["stats"]["ground_cache_hits"]
                    + stats["stats"]["ground_cache_misses"])

        assert groundings(after) == groundings(before)
        rows = [("cold", len(cold_samples),
                 round(statistics.median(cold_samples), 3)),
                ("hit", len(hit_samples),
                 round(statistics.median(hit_samples), 3))]
        headers = ["leg", "samples", "median ms"]
        print_table("SCALE-6: result cache cold vs hit", headers, rows)


class TestScale6MixedTraffic:
    def test_mixed_read_dml_matches_serial_replay(self):
        session = _build_session()
        session.execute("create table T (X integer);")
        session.execute("insert into T values (1);")
        base = session.state_generation
        read_sql = "select conf from I, T where P1 > X;"
        write_sql = "insert into T values (?);"
        observations: list[tuple[int, list]] = []
        commits: list[tuple[int, int]] = []
        errors: list[Exception] = []
        record = threading.Lock()

        with WorkerPool(session, workers=2, port=0) as pool:
            def reader():
                try:
                    for _ in range(PARAMS["mixed_reads"]):
                        status, payload = _post(pool.address, read_sql)
                        assert status == 200, payload
                        with record:
                            observations.append((payload["generation"],
                                                 payload["rows"]))
                except Exception as error:  # pragma: no cover - diagnostics
                    errors.append(error)

            def writer(seed: int):
                try:
                    for step in range(PARAMS["mixed_writes"]):
                        value = (seed * PARAMS["mixed_writes"] + step) % 5
                        status, payload = _post(pool.address, write_sql,
                                                (value,))
                        assert status == 200, payload
                        with record:
                            commits.append((payload["generation"], value))
                except Exception as error:  # pragma: no cover - diagnostics
                    errors.append(error)

            threads = [threading.Thread(target=reader)
                       for _ in range(PARAMS["mixed_readers"])]
            threads += [threading.Thread(target=writer, args=(seed,))
                        for seed in range(PARAMS["mixed_writers"])]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
            elapsed = time.perf_counter() - start
            assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        # Writes serialised into dense, unique generations.
        generations = sorted(generation for generation, _ in commits)
        expected_count = PARAMS["mixed_writers"] * PARAMS["mixed_writes"]
        assert generations == list(range(base + 1,
                                         base + 1 + expected_count))
        # Serial replay of the committed order; every concurrent answer
        # must match the serial answer of the generation it reports.
        replay = _build_session()
        replay.execute("create table T (X integer);")
        replay.execute("insert into T values (1);")
        expected = {base: sorted(replay.execute(read_sql).rows(),
                                 key=repr)}
        for generation, value in sorted(commits):
            replay.execute(write_sql, (value,))
            expected[generation] = sorted(replay.execute(read_sql).rows(),
                                          key=repr)
        assert len(observations) == \
            PARAMS["mixed_readers"] * PARAMS["mixed_reads"]
        for generation, rows in observations:
            serial = expected[generation]
            ordered = sorted(rows, key=repr)
            assert len(ordered) == len(serial), generation
            for actual, wanted in zip(ordered, serial):
                assert actual == pytest.approx(wanted, abs=1e-9), generation
        total = len(observations) + len(commits)
        print(f"\nSCALE-6 mixed traffic: {total} requests "
              f"({len(commits)} commits) in {elapsed * 1000.0:.1f}ms — "
              f"all answers match serial replay")
