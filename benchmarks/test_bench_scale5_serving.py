"""BENCH_SCALE5 — the serving layer: prepared statements under concurrency.

SCALE-1..4 made every query class scale with the *representation*; this
series measures whether the engine scales with *traffic*.  Three questions,
all asserted on answers and work counters (the timings are printed but are
not pass/fail):

* **cold vs. prepared** — executing a statement from scratch pays parse +
  classification + shape analysis + symbolic grounding before evaluating;
  a prepared statement pays evaluation only.  Every cold execution must
  miss the statement and ground caches; over the warm repetitions of the
  prepared statement the statement-cache misses, plan compiles and ground
  misses must not move.
* **read scaling** — one session, N threads of prepared reads under the
  generation read/write lock.  During the threaded runs no plan is
  compiled and nothing is re-grounded, and every concurrent answer must
  equal the serial answer exactly.
* **concurrent DML parity** — readers and writers hammer one session; the
  committed write order is replayed serially and every concurrent answer
  must match the serial answer of the generation it observed to 1e-9.
"""

from __future__ import annotations

import statistics
import threading
import time

import pytest

from repro import MayBMS
from repro.workloads import DirtyRelationSpec
from repro.workloads.generators import dirty_key_relation
from repro.wsd.plan_cache import GLOBAL_PLAN_CACHE

from conftest import print_table, scale5_serving_parameters

PARAMS = scale5_serving_parameters()

REPAIR_STATEMENT = ("create table I as "
                    "select K, P1, P2 from Dirty repair by key K weight W;")

#: The repeated query: parameterised, symbolic (selection + conf), touching
#: every component — the shape a serving workload repeats millions of times.
REPEATED_QUERY = "select conf, K from I where P1 > ? and K < ?;"


def _build_session(groups: int) -> MayBMS:
    spec = DirtyRelationSpec(groups=groups, options=PARAMS["options"], seed=7)
    relation = dirty_key_relation(spec)
    db = MayBMS({"Dirty": relation}, backend="wsd")
    db.execute(REPAIR_STATEMENT)
    return db


def _median(samples: list[float]) -> float:
    return statistics.median(samples)


def _query_arguments(groups: int) -> tuple:
    return (2, max(groups // 2, 1))


class TestScale5ColdVsPrepared:
    def test_prepared_reexecution_skips_compilation(self):
        rows = []
        for groups in PARAMS["groups"]:
            arguments = _query_arguments(groups)
            cold_samples = []
            for _ in range(PARAMS["cold_repetitions"]):
                db = _build_session(groups)
                statement_misses = db.statement_cache.misses
                ground_misses = db.backend.stats.ground_cache_misses
                start = time.perf_counter()
                cold_result = db.execute(REPEATED_QUERY, arguments)
                cold_samples.append((time.perf_counter() - start) * 1000.0)
                # The cold path really pays compilation and grounding.
                assert db.statement_cache.misses > statement_misses
                assert db.backend.stats.ground_cache_misses > ground_misses
            db = _build_session(groups)
            prepared = db.prepare(REPEATED_QUERY)
            warm_result = prepared.execute(arguments)
            statement_misses = db.statement_cache.misses
            compiles = GLOBAL_PLAN_CACHE.compiles
            ground_misses = db.backend.stats.ground_cache_misses
            warm_samples = []
            for _ in range(PARAMS["warm_repetitions"]):
                start = time.perf_counter()
                warm_result = prepared.execute(arguments)
                warm_samples.append((time.perf_counter() - start) * 1000.0)
            # The prepared path amortises all of it: no statement compiled,
            # no plan analysed, nothing re-grounded over the warm runs.
            assert db.statement_cache.misses == statement_misses
            assert GLOBAL_PLAN_CACHE.compiles == compiles
            assert db.backend.stats.ground_cache_misses == ground_misses
            # Identical answers on both paths.
            assert sorted(warm_result.rows(), key=repr) == \
                sorted(cold_result.rows(), key=repr)
            cold = _median(cold_samples)
            warm = _median(warm_samples)
            speedup = cold / warm
            rows.append((groups, PARAMS["options"],
                         round(cold, 3), round(warm, 3),
                         round(speedup, 1)))
        headers = ["groups", "options", "cold ms", "prepared ms", "speedup"]
        print_table("SCALE-5: cold vs prepared latency", headers, rows)

    def test_statement_cache_makes_plain_execute_fast(self):
        """Plain execute(sql) hits the LRU: over ten repeats it misses no
        statement, compiles no plan and grounds nothing, and answers exactly
        as the prepared path does.  The timings are printed, not asserted."""
        groups = PARAMS["groups"][0]
        arguments = _query_arguments(groups)
        db = _build_session(groups)
        db.execute(REPEATED_QUERY, arguments)  # compile + warm
        hits = db.statement_cache.hits
        misses = db.statement_cache.misses
        compiles = GLOBAL_PLAN_CACHE.compiles
        ground_misses = db.backend.stats.ground_cache_misses
        start = time.perf_counter()
        for _ in range(10):
            via_cache = db.execute(REPEATED_QUERY, arguments)
        via_cache_ms = (time.perf_counter() - start) / 10 * 1000.0
        assert db.statement_cache.hits == hits + 10
        assert db.statement_cache.misses == misses
        assert GLOBAL_PLAN_CACHE.compiles == compiles
        assert db.backend.stats.ground_cache_misses == ground_misses
        prepared = db.prepare(REPEATED_QUERY)
        start = time.perf_counter()
        for _ in range(10):
            direct = prepared.execute(arguments)
        direct_ms = (time.perf_counter() - start) / 10 * 1000.0
        assert via_cache.rows() == direct.rows()
        print(f"\nSCALE-5: plain execute {via_cache_ms:.3f} ms, "
              f"prepared {direct_ms:.3f} ms (mean of 10)")


class TestScale5SharedPlans:
    def test_fresh_thread_first_execution_compiles_nothing(self):
        """Cold-plan latency parity across threads: compiled plans are
        immutable and process-wide, so a brand-new thread's FIRST prepared
        execution is a shared-cache hit — zero shape analyses, no
        per-thread warm-up."""
        groups = PARAMS["groups"][0]
        db = _build_session(groups)
        # An aggregate-shaped statement, so an execution provably consults
        # the compiled-plan cache (plain conf reads may compile no plan at
        # all, which would make the zero-compiles assertion vacuous).
        prepared = db.prepare(
            "select possible K, sum(P1) from I where P1 > ? group by K;")
        arguments = (2,)
        expected = sorted(prepared.execute(arguments).rows(), key=repr)

        snapshot = prepared.plans.snapshot()
        observed: list = []
        errors: list[BaseException] = []

        def fresh_thread():
            try:
                observed.append(
                    sorted(prepared.execute(arguments).rows(), key=repr))
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        thread = threading.Thread(target=fresh_thread)
        thread.start()
        thread.join(timeout=60)
        assert not errors, errors
        after = prepared.plans.snapshot()
        assert after["compiles"] == snapshot["compiles"], (
            "a fresh thread's first prepared execution must not compile "
            "any plan — the process-wide cache already holds it")
        assert after["hits"] > snapshot["hits"]
        assert observed == [expected]


class TestScale5ReadScaling:
    def test_read_throughput_scales_with_threads(self):
        groups = PARAMS["groups"][-1]
        arguments = _query_arguments(groups)
        db = _build_session(groups)
        prepared = db.prepare(REPEATED_QUERY)
        serial_rows = sorted(prepared.execute(arguments).rows(), key=repr)
        reads = PARAMS["reads_per_thread"]
        rows = []
        compiles = GLOBAL_PLAN_CACHE.compiles
        ground_misses = db.backend.stats.ground_cache_misses
        for threads in PARAMS["threads"]:
            answers: list[list] = []
            errors: list[Exception] = []
            answers_lock = threading.Lock()
            start_barrier = threading.Barrier(threads + 1, timeout=30)

            def worker():
                try:
                    start_barrier.wait()
                    for _ in range(reads):
                        result = prepared.execute(arguments)
                        with answers_lock:
                            answers.append(sorted(result.rows(), key=repr))
                except Exception as error:  # pragma: no cover
                    errors.append(error)

            pool = [threading.Thread(target=worker) for _ in range(threads)]
            for thread in pool:
                thread.start()
            start_barrier.wait()
            start = time.perf_counter()
            for thread in pool:
                thread.join(timeout=120)
            elapsed = time.perf_counter() - start
            assert not errors, errors
            assert len(answers) == threads * reads
            assert all(rows_ == serial_rows for rows_ in answers), \
                "concurrent reads must return the serial answer"
            # Concurrent readers share the compiled plans and the grounding:
            # no thread compiles or re-grounds anything.
            assert GLOBAL_PLAN_CACHE.compiles == compiles, \
                f"a plan was compiled during the {threads}-thread run"
            assert db.backend.stats.ground_cache_misses == ground_misses, \
                f"a relation was re-grounded during the {threads}-thread run"
            throughput = (threads * reads) / elapsed
            rows.append((threads, threads * reads,
                         round(elapsed * 1000.0, 1), round(throughput, 1)))
        # Whether readers overlapped during the timed runs is up to the OS
        # scheduler (sub-ms reads often finish within one GIL slice); the
        # *ability* to overlap is what the lock guarantees — force one
        # deterministic overlap and record the observed peak as bench info.
        overlap = threading.Barrier(2, timeout=10)

        def overlapping_reader():
            with db.lock.read():
                overlap.wait()

        pair = [threading.Thread(target=overlapping_reader)
                for _ in range(2)]
        for thread in pair:
            thread.start()
        for thread in pair:
            thread.join(timeout=10)
        assert db.lock.peak_readers >= 2, \
            "two readers could not hold the lock simultaneously"
        headers = ["threads", "reads", "wall ms", "reads/s"]
        print_table("SCALE-5: multi-threaded read throughput", headers, rows)


class TestScale5ConcurrentDml:
    READERS = 4

    def test_concurrent_dml_parity_with_serial_replay(self):
        groups = PARAMS["groups"][0]
        db = _build_session(groups)
        db.execute("create table T (X integer);")
        db.execute("insert into T values (1);")
        base_generation = db.state_generation
        read_sql = "select conf from I, T where P1 > X;"
        prepared_read = db.prepare(read_sql)
        prepared_write = db.prepare("insert into T values (?);")
        observations: list[tuple[int, float]] = []
        commits: list[tuple[int, int]] = []
        errors: list[Exception] = []
        record_lock = threading.Lock()
        rounds = PARAMS["writer_rounds"]

        def reader():
            try:
                for _ in range(rounds * 2):
                    result, generation = \
                        prepared_read.execute_with_generation(())
                    with record_lock:
                        observations.append((generation, result.scalar()))
            except Exception as error:  # pragma: no cover
                errors.append(error)

        def writer():
            try:
                for step in range(rounds):
                    value = step % 5
                    _, generation = \
                        prepared_write.execute_with_generation((value,))
                    with record_lock:
                        commits.append((generation, value))
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=reader)
                   for _ in range(self.READERS)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors
        # Serial replay of the committed write order.
        replay = _build_session(groups)
        replay.execute("create table T (X integer);")
        replay.execute("insert into T values (1);")
        expected = [replay.execute(read_sql).scalar()]
        for _, value in sorted(commits):
            replay.execute("insert into T values (?);", (value,))
            expected.append(replay.execute(read_sql).scalar())
        for generation, answer in observations:
            serial = expected[generation - base_generation]
            assert answer == pytest.approx(serial, abs=1e-9), (
                f"generation {generation}: concurrent answer {answer!r} "
                f"!= serial {serial!r}")
        assert db.execute(read_sql).scalar() == \
            pytest.approx(expected[-1], abs=1e-9)
