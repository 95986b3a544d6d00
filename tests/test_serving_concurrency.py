"""Concurrency: the generation lock, and mixed query/DML stress parity.

Two layers of coverage:

* :class:`TestGenerationRWLock` pins the lock semantics down
  deterministically (readers overlap, writers exclude everyone, waiting
  writers block new readers, every write bumps the generation);
* :class:`TestConcurrentSessionStress` hammers one wsd session with N
  threads of mixed prepared queries and DML, then **replays the committed
  write order serially** and asserts every concurrent answer equals the
  serial answer of the generation it observed (to 1e-9) — a linearizability
  check that doubles as the zero-stale-cache-hits guarantee: a grounding or
  plan served across a generation bump would produce an answer no serial
  prefix can.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro import MayBMS
from repro.errors import WriteTimeoutError
from repro.serving import GenerationRWLock


def _wait_until(predicate, timeout: float = 5.0) -> bool:
    """Poll *predicate* until it holds or *timeout* elapses."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()

SETUP = """
create table R (A varchar, B integer, C varchar, D integer);
insert into R values ('a1', 10, 'c1', 2);
insert into R values ('a1', 15, 'c2', 6);
insert into R values ('a2', 25, 'c3', 4);
insert into R values ('a2', 20, 'c4', 5);
create table I as select A, B, C from R repair by key A weight D;
create table T (X integer);
insert into T values (12);
"""

#: The reader mix: a symbolic join conf, a decorated aggregate and a
#: parameterised filter — exercising the grounding cache, the compiled
#: aggregate plans and parameter binding concurrently.
READ_QUERIES = [
    ("select conf from I, T where B > X;", ()),
    ("select possible sum(B) from I;", ()),
    ("select conf from I where B > ?;", (14,)),
]


class TestGenerationRWLock:
    def test_readers_overlap(self):
        lock = GenerationRWLock()
        barrier = threading.Barrier(2, timeout=5)
        errors = []

        def reader():
            try:
                with lock.read():
                    barrier.wait()
            except Exception as error:  # pragma: no cover - diagnostics
                errors.append(error)

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5)
        assert not errors
        assert lock.peak_readers == 2

    def test_writer_excludes_readers(self):
        lock = GenerationRWLock()
        order = []
        writer_in = threading.Event()
        release_writer = threading.Event()

        def writer():
            with lock.write():
                order.append("writer-in")
                writer_in.set()
                assert release_writer.wait(timeout=5)
                order.append("writer-out")

        def reader():
            assert writer_in.wait(timeout=5)
            with lock.read():
                order.append("reader-in")

        writer_thread = threading.Thread(target=writer)
        reader_thread = threading.Thread(target=reader)
        writer_thread.start()
        assert writer_in.wait(timeout=5)
        reader_thread.start()
        # Give the reader a moment to block on the held write lock.
        reader_thread.join(timeout=0.2)
        assert "reader-in" not in order
        release_writer.set()
        writer_thread.join(timeout=5)
        reader_thread.join(timeout=5)
        assert order == ["writer-in", "writer-out", "reader-in"]

    def test_waiting_writer_blocks_new_readers(self):
        lock = GenerationRWLock()
        order = []
        first_reader_in = threading.Event()
        release_first_reader = threading.Event()
        writer_started = threading.Event()

        def first_reader():
            with lock.read():
                first_reader_in.set()
                assert release_first_reader.wait(timeout=5)
            order.append("reader1-out")

        def writer():
            writer_started.set()
            with lock.write():
                order.append("writer")

        def second_reader():
            with lock.read():
                order.append("reader2")

        r1 = threading.Thread(target=first_reader)
        w = threading.Thread(target=writer)
        r2 = threading.Thread(target=second_reader)
        r1.start()
        assert first_reader_in.wait(timeout=5)
        w.start()
        assert writer_started.wait(timeout=5)
        # Let the writer reach its wait inside acquire_write, then start a
        # reader that must queue behind it (writer preference).
        w.join(timeout=0.2)
        r2.start()
        r2.join(timeout=0.2)
        assert "reader2" not in order
        release_first_reader.set()
        for thread in (r1, w, r2):
            thread.join(timeout=5)
        assert order.index("writer") < order.index("reader2")

    def test_timed_out_writer_passes_its_wakeup_on(self):
        """The timeout exit path re-notifies the next queued writer.

        ``release_read``/``release_write`` mint exactly **one**
        ``_writer_ok.notify()`` per release, and the condition variable may
        deliver it to a waiter whose timed wait has already expired.  That
        waiter raises :class:`WriteTimeoutError` — and must hand the wakeup
        it consumed to the next queued writer, or that writer sleeps through
        the only notification it was ever going to get (the lost wakeup).
        The regression is pinned deterministically by counting ``notify``
        calls on the writers' condition: the timed-out writer's exit must
        itself produce one, *before* any release does.
        """
        lock = GenerationRWLock()
        notifies: list[int] = []
        inner_notify = lock._writer_ok.notify
        lock._writer_ok.notify = \
            lambda n=1: (notifies.append(n), inner_notify(n))[-1]

        lock.acquire_write()  # held throughout: both queued writers block
        patient_acquired = threading.Event()
        errors: list[Exception] = []

        def patient():
            try:
                lock.acquire_write()
                patient_acquired.set()
                lock.release_write(bump=False)
            except Exception as error:  # pragma: no cover - diagnostics
                errors.append(error)

        patient_thread = threading.Thread(target=patient, daemon=True)
        patient_thread.start()
        assert _wait_until(lambda: lock._writers_waiting == 1)

        doomed_raised: list[Exception] = []

        def doomed():
            try:
                lock.acquire_write(timeout=0.05)
            except WriteTimeoutError as error:
                doomed_raised.append(error)
            else:  # pragma: no cover - the held lock guarantees the raise
                lock.release_write(bump=False)

        doomed_thread = threading.Thread(target=doomed, daemon=True)
        doomed_thread.start()
        doomed_thread.join(timeout=5)
        assert not doomed_thread.is_alive()
        assert doomed_raised, "the doomed writer must time out"
        # The regression assertion: no release has happened yet, so the one
        # recorded notify can only have come from the timed-out writer
        # passing its wakeup on to the still-queued patient writer.
        assert notifies == [1], \
            "a timed-out writer must re-notify the next queued writer"
        assert not patient_acquired.is_set()
        lock.release_write(bump=False)
        assert patient_acquired.wait(timeout=5)
        patient_thread.join(timeout=5)
        assert not errors

    def test_patient_writer_survives_timed_writer_churn(self):
        """A patient writer queued behind churning timed writers still runs.

        Timed writers that give up after 2ms hammer the lock alongside
        readers; a patient ``timeout=None`` writer queued in the middle of
        the churn must acquire once the churn stops — every wakeup token is
        accounted for, none die with a timed-out waiter.
        """
        lock = GenerationRWLock()
        stop_churn = threading.Event()
        acquired = threading.Event()
        errors: list[Exception] = []

        def churn():
            try:
                while not stop_churn.is_set():
                    try:
                        lock.acquire_write(timeout=0.002)
                    except WriteTimeoutError:
                        continue
                    lock.release_write(bump=False)
            except Exception as error:  # pragma: no cover - diagnostics
                errors.append(error)

        def reading():
            try:
                while not stop_churn.is_set():
                    with lock.read():
                        time.sleep(0.001)
            except Exception as error:  # pragma: no cover - diagnostics
                errors.append(error)

        def patient():
            try:
                lock.acquire_write()
                acquired.set()
                lock.release_write(bump=False)
            except Exception as error:  # pragma: no cover - diagnostics
                errors.append(error)

        workers = [threading.Thread(target=churn, daemon=True)
                   for _ in range(3)]
        workers += [threading.Thread(target=reading, daemon=True)
                    for _ in range(2)]
        for thread in workers:
            thread.start()
        time.sleep(0.05)  # churn is in full swing before the patient queues
        patient_thread = threading.Thread(target=patient, daemon=True)
        patient_thread.start()
        time.sleep(0.4)  # let the churn hammer the queued patient writer
        stop_churn.set()
        for thread in workers:
            thread.join(timeout=5)
        assert acquired.wait(timeout=5), \
            "the patient writer lost its wakeup and never acquired"
        patient_thread.join(timeout=5)
        assert not errors

    def test_generation_bumps_once_per_write(self):
        lock = GenerationRWLock()
        assert lock.generation == 0
        with lock.read():
            pass
        assert lock.generation == 0
        with lock.write():
            assert lock.generation == 0  # bumps on release, atomically
        assert lock.generation == 1
        with lock.write():
            pass
        assert lock.generation == 2
        # A failed write releases without bumping.
        with pytest.raises(RuntimeError):
            with lock.write():
                raise RuntimeError("write failed")
        assert lock.generation == 2


class TestConcurrentSessionStress:
    READERS = 6
    WRITERS = 2
    READS_PER_THREAD = 25
    WRITES_PER_THREAD = 8

    def _expected_by_generation(self, writes: list[int]) -> list[dict]:
        """Serial replay: expected answers after each committed write."""
        db = MayBMS(backend="wsd")
        db.execute_script(SETUP)
        expected = [self._answers(db)]
        for value in writes:
            db.execute("insert into T values (?);", (value,))
            expected.append(self._answers(db))
        return expected

    @staticmethod
    def _answers(db: MayBMS) -> dict:
        answers = {}
        for sql, params in READ_QUERIES:
            result = db.execute(sql, params)
            answers[sql] = sorted(result.rows(), key=repr)
        return answers

    def test_mixed_prepared_queries_and_dml_replay_serially(self):
        db = MayBMS(backend="wsd")
        db.execute_script(SETUP)
        base_generation = db.state_generation
        prepared = {sql: db.prepare(sql) for sql, _ in READ_QUERIES}
        insert = db.prepare("insert into T values (?);")
        observations: list[tuple[int, str, list]] = []
        commits: list[tuple[int, int]] = []
        errors: list[Exception] = []
        observed_lock = threading.Lock()
        start = threading.Barrier(self.READERS + self.WRITERS, timeout=10)

        def reader(seed: int) -> None:
            try:
                start.wait()
                for step in range(self.READS_PER_THREAD):
                    sql, params = READ_QUERIES[(seed + step)
                                               % len(READ_QUERIES)]
                    result, generation = \
                        prepared[sql].execute_with_generation(params)
                    with observed_lock:
                        observations.append(
                            (generation, sql,
                             sorted(result.rows(), key=repr)))
            except Exception as error:  # pragma: no cover - diagnostics
                errors.append(error)

        def writer(seed: int) -> None:
            try:
                start.wait()
                for step in range(self.WRITES_PER_THREAD):
                    value = 10 + (seed * self.WRITES_PER_THREAD + step) % 17
                    _, generation = insert.execute_with_generation((value,))
                    with observed_lock:
                        commits.append((generation, value))
            except Exception as error:  # pragma: no cover - diagnostics
                errors.append(error)

        threads = [threading.Thread(target=reader, args=(i,))
                   for i in range(self.READERS)]
        threads += [threading.Thread(target=writer, args=(i,))
                    for i in range(self.WRITERS)]
        # Frequent thread switches interleave the shared grounding cache's
        # lookups, inserts and evictions as finely as possible.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert len(commits) == self.WRITERS * self.WRITES_PER_THREAD
        # Commit generations are dense and unique: every write serialised.
        generations = sorted(generation for generation, _ in commits)
        assert generations == list(range(base_generation + 1,
                                         base_generation + 1 + len(commits)))
        ordered_writes = [value for _, value in sorted(commits)]
        expected = self._expected_by_generation(ordered_writes)
        # Every concurrent answer equals the serial answer of the snapshot
        # (generation) it observed — no torn reads, no stale caches.
        assert len(observations) == self.READERS * self.READS_PER_THREAD
        for generation, sql, rows in observations:
            serial = expected[generation - base_generation][sql]
            assert len(rows) == len(serial), (generation, sql)
            for actual_row, serial_row in zip(rows, serial):
                assert actual_row == pytest.approx(serial_row, abs=1e-9), \
                    (generation, sql)
        # The final concurrent state matches the final serial state.
        final = self._answers(db)
        for sql, rows in final.items():
            serial = expected[-1][sql]
            assert len(rows) == len(serial), sql
            for actual_row, serial_row in zip(rows, serial):
                assert actual_row == pytest.approx(serial_row, abs=1e-9), sql
        # The grounding cache was exercised (hits occurred) and — by the
        # parity above — never served a stale version; the shared cache ends
        # up holding the current state's groundings only.
        assert db.backend.stats.ground_cache_hits > 0
        versions = db.decomposition.versions
        assert all(versions[name] == version
                   for version, name in db.backend._ground_cache)

    def test_explicit_backend_serialises_writers_too(self):
        db = MayBMS(backend="explicit")
        db.execute_script(SETUP)
        insert = db.prepare("insert into T values (?);")
        errors: list[Exception] = []

        def writer(seed: int) -> None:
            try:
                for step in range(5):
                    insert.execute((seed * 5 + step,))
            except Exception as error:  # pragma: no cover - diagnostics
                errors.append(error)

        threads = [threading.Thread(target=writer, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        relation = db.relation("T")
        assert len(relation) == 1 + 4 * 5
