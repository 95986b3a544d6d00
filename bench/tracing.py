"""The traced run: where the time goes, layer by layer, measured from outside.

The program is not instrumented.  The same seeded operation sequence is
replayed in-process, on one thread, three times from identically built
sessions, each pass cutting one level deeper through the program's public
functions:

1. ``op -> http_roundtrip`` against an in-process ``MayBMSServer``;
2. ``op -> execute_request``;
3. ``op -> json_decode, prepare (-> parse on a miss), result_cache_get,
   execute, render, result_cache_put, json_encode``.

Passes 2 and 3 run side by side on two such sessions — operation *i* once
through each, in alternating order — so that a drift in the machine's speed
slows both alike.  Spans ``(pass, id, name, start, end, parent, op)`` stay in memory and are
written to ``out/trace-<workload>.jsonl`` at the end; a span's self time is
its duration minus its children.  Public counters are differenced at pass
boundaries.  The run fails unless pass-3 children add up to
pass-2's ``execute_request`` within 10 %: the proof that the layers sum.

Layers that a replay cannot reach — lock waits under concurrency, the WAL
and snapshots, the worker pool — get small dedicated probes below.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import random
import re
import threading
import time
from dataclasses import asdict
from pathlib import Path

import datasets
from env import OUT
from loadgen import (HttpClient, client_overhead_ms, closed_loop,
                     encode_request, sender)
from repro import MayBMS
from repro.serving import GenerationRWLock, MayBMSServer
from repro.serving.prepared import ResultCache
from repro.serving.server import execute_request, result_payload
from repro.sqlparser.parser import parse_prepared
from repro.wsd.plan_cache import GLOBAL_PLAN_CACHE
from servers import Server, temp_dir
from stats import median, percentile
from timed import BenchmarkError
from workloads import Request, Workload, write_stream

MAX_OPS = 2000
LAYER_TOLERANCE = 0.10
LAYER_ATTEMPTS = 3
DURABILITY = {"fsync": True, "snapshot_every": 256}
#: The steps of pass 3 that together are what ``execute_request`` does.
EXECUTE_REQUEST_STEPS = ("prepare", "result_cache_get", "execute", "render",
                         "result_cache_put")
CLASS_METRIC = {"conf_join": "wsd.confidence.class_ms",
                "agg": "wsd.aggregate.class_ms",
                "group_worlds": "wsd.grouping.class_ms",
                "setop": "wsd.setops.class_ms",
                "sel": "wsd.columnar.class_ms",
                "certain": "wsd.execute.certain_class_ms",
                "anytime": "wsd.approximate.class_ms"}


class Recorder:
    """Spans of one pass: ``[name, start_ns, end_ns, parent, op]`` rows."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.spans: list[list] = []

    def add(self, name: str, start: int, end: int, parent: int | None,
            op: int) -> int:
        self.spans.append([name, start, end, parent, op])
        return len(self.spans) - 1

    def durations_ms(self, name: str) -> list[float]:
        return [(span[2] - span[1]) / 1e6 for span in self.spans
                if span[0] == name]

    def by_op(self, names: tuple[str, ...]) -> dict[int, float]:
        """Per operation, the summed milliseconds of the named spans."""
        totals: dict[int, float] = {}
        for name, start, end, _, op in self.spans:
            if name in names:
                totals[op] = totals.get(op, 0.0) + (end - start) / 1e6
        return totals

    def dump(self, handle) -> None:
        for ident, (name, start, end, parent, op) in enumerate(self.spans):
            handle.write(json.dumps({
                "pass": self.name, "id": ident, "name": name, "start_ns": start,
                "end_ns": end, "parent": parent, "op": op}) + "\n")


class Sessions:
    """The sessions one pass runs against, built the way the workload's
    program is: recovered from a persisted directory for the served
    workloads, in memory for the embedded one."""

    def __init__(self, workload: Workload, seed: int, scratch: str,
                 label: str) -> None:
        served = workload.transport != "embedded"
        if served:
            data_dir = os.path.join(scratch, label)
            datasets.persist(workload.size, seed, data_dir)
            self.main = MayBMS(backend="wsd", data_dir=data_dir,
                               durability=DURABILITY)
        else:
            self.main = datasets.session(workload.size, seed)
        self.approx = (datasets.approx_session(tight=True)
                       if any(r.approx for r in workload.universe(seed))
                       else None)
        self.cache = (ResultCache(workload.result_cache)
                      if served and workload.result_cache else None)

    def of(self, request: Request) -> MayBMS:
        return self.approx if request.approx else self.main

    def counters(self) -> dict:
        backend = self.main.backend
        return {
            "statement": self.main.statement_cache.snapshot(),
            "result": self.cache.snapshot() if self.cache else
            {"hits": 0, "misses": 0},
            "stats": asdict(backend.stats),
            "confidence": asdict(backend.confidence_stats),
            "aggregate": asdict(backend.aggregate_stats),
            "generation": self.main.state_generation,
        }

    def close(self) -> None:
        self.main.close()


def _delta(after: dict, before: dict, group: str, name: str) -> float:
    return after[group][name] - before[group][name]


@contextlib.contextmanager
def quiet_collector():
    """Collect now, then keep the cyclic collector off for one pass.

    A generation-2 collection costs ~10 ms on these heaps and lands on
    whichever span happens to be open; with it running, the same pass
    repeated differs by +-6 % and no layer's share can be trusted.  The
    timed run is not affected: the program runs there as it ships.
    """
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _pool_by_kind(pool: dict[tuple, list[float]], per_op: dict[int, float],
                  kinds: list[tuple]) -> None:
    """Add one pass's per-operation milliseconds to *pool*, by kind."""
    for index, value in per_op.items():
        pool.setdefault(kinds[index], []).append(value)


def _typical_total(pool: dict[tuple, list[float]]) -> float:
    """A pass's total as ``sum(count x median)`` over operation kinds.

    Two passes of a 20 ms replay cannot be compared by their raw sums on a
    shared two-core machine: a few milliseconds of somebody else's work in
    one of them is a 20 % difference.  Operations of one kind (statement
    shape, cache hit or executed, first at its generation or not, parsed or
    not) cost the same in every pass, so each kind enters with its median.
    A kind that occurs once per replay (the one read that grounds, a third
    of ``http_hot_reads``' time) only has a median worth the name once the
    replay has been repeated, which is why attempts are pooled.
    """
    return sum(len(values) * median(values) for values in pool.values())


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


# -- the three passes ------------------------------------------------------------------------


def execute_request_ops(sessions: Sessions, ops: list[Request],
                        recorder: Recorder, plan: dict[str, int]):
    """Pass 2 as a generator: each ``next`` runs one operation.

    *plan* collects the process-wide plan cache's counter deltas over this
    pass's own operations (the cache is shared with whatever pass runs in
    between them).
    """
    clock = time.perf_counter_ns
    for index, request in enumerate(ops):
        session = sessions.of(request)
        plan_before = GLOBAL_PLAN_CACHE.snapshot()
        start = clock()
        status, _, _, _ = execute_request(
            session, request.sql, list(request.params),
            request.options or None,
            result_cache=None if request.approx else sessions.cache)
        end = clock()
        plan_after = GLOBAL_PLAN_CACHE.snapshot()
        if status != 200:
            raise BenchmarkError(f"execute_request answered {status} to "
                                 f"{request.sql!r} {request.params!r}")
        for name in plan:
            plan[name] += plan_after[name] - plan_before[name]
        op = recorder.add("op", start, end, None, index)
        recorder.add("execute_request", start, end, op, index)
        yield


def warm_up(sessions: Sessions, ops: list[Request], budget_s: float) -> None:
    """Untimed pass 2 over *ops*, cut short at the time budget."""
    deadline = time.perf_counter() + budget_s
    for _ in execute_request_ops(sessions, ops, Recorder("warm-up"), {}):
        if time.perf_counter() > deadline:
            break


def layer_ops(sessions: Sessions, ops: list[Request], recorder: Recorder,
              details: dict):
    """Pass 3 as a generator: the steps of one request per ``next``, each
    through a public function.

    *details* receives what only this pass can see: which reads were the
    first at their generation (``cold_ops``), the approximate answers with
    their sample counts (``approx_answers``) and each operation's kind
    (``kinds``).
    """
    clock = time.perf_counter_ns
    bodies = [json.dumps(request.body()).encode() for request in ops]
    cache = sessions.cache
    seen_generations: set[int] = set()
    cold_ops: set[int] = details["cold_ops"]
    kinds: list[tuple] = details["kinds"]
    approx_answers: list[tuple[Request, tuple, int]] = details["approx_answers"]
    for index, request in enumerate(ops):
        session = sessions.of(request)
        statement_cache = session.statement_cache
        use_cache = cache if not request.approx else None
        op = recorder.add("op", 0, 0, None, index)
        # Every span covers exactly one call into the program; the
        # benchmark's own bookkeeping sits between spans and shows up as
        # the op span's self time.
        t0 = clock()
        decoded = json.loads(bodies[index])
        t1 = clock()
        recorder.add("json_decode", t0, t1, op, index)
        sql, params = decoded["sql"], decoded["params"]
        misses = statement_cache.misses
        t1 = clock()
        prepared = session.prepare(sql)
        t2 = clock()
        prepare_span = recorder.add("prepare", t1, t2, op, index)
        missed = statement_cache.misses != misses
        cacheable = (use_cache is not None and prepared.is_read
                     and not request.options)
        payload = None
        if cacheable:
            t2 = clock()
            payload = use_cache.get(
                use_cache.key(sql, params, session.state_generation))
            t3 = clock()
            recorder.add("result_cache_get", t2, t3, op, index)
        executed = payload is None
        if executed:
            arguments, options = tuple(params), request.options or None
            samples = session.backend.stats.sample_counts
            t3 = clock()
            result, generation = prepared.execute_with_generation(
                arguments, options)
            t4 = clock()
            payload = result_payload(result)
            payload["generation"] = generation
            t5 = clock()
            recorder.add("execute", t3, t4, op, index)
            recorder.add("render", t4, t5, op, index)
            if cacheable and not result.approximate:
                t5 = clock()
                use_cache.put(use_cache.key(sql, params, generation), payload)
                t6 = clock()
                recorder.add("result_cache_put", t5, t6, op, index)
            if prepared.is_read and generation not in seen_generations \
                    and not request.approx:
                seen_generations.add(generation)
                cold_ops.add(index)
            if result.approximate:
                approx_answers.append(
                    (request, result.rows()[0],
                     session.backend.stats.sample_counts - samples))
        t7 = clock()
        json.dumps(payload, allow_nan=False).encode()
        t8 = clock()
        recorder.add("json_encode", t7, t8, op, index)
        recorder.spans[op][1:3] = [t0, t8]
        kinds.append((re.sub(r"\d+", "#", sql), missed, executed,
                      index in cold_ops))
        if missed:
            # The parse ran inside ``prepare``; it is measured again here,
            # outside the operation, on the same text and placed in it.
            p0 = clock()
            parse_prepared(sql)
            p1 = clock()
            start = recorder.spans[prepare_span][1]
            recorder.add("parse", start,
                         min(start + (p1 - p0), recorder.spans[prepare_span][2]),
                         prepare_span, index)
        yield


def paired_passes(two: Sessions, three: Sessions, ops: list[Request],
                  budget_s: float) -> tuple[Recorder, Recorder, dict, dict]:
    """Passes 2 and 3 side by side: operation *i* runs once through
    ``execute_request`` on *two* and once step by step on *three*, in
    alternating order, before operation *i + 1* starts.

    Run one after the other, two 0.6 s passes of the same work differ by
    +-10 % on a shared machine (its speed drifts between them); taken in
    turns, whatever slows one pass slows the other.  Both sessions are in
    the same state at every operation, as they would be after separate
    passes.  Stops early at the time budget (which fixes the replay length).

    Returns ``(pass 2, pass 3, pass-3 details, pass-2 plan-cache deltas)``.
    """
    pass2, pass3 = Recorder("execute_request"), Recorder("layers")
    plan = {"compiles": 0, "hits": 0}
    details: dict = {"cold_ops": set(), "kinds": [], "approx_answers": []}
    turns = (execute_request_ops(two, ops, pass2, plan),
             layer_ops(three, ops, pass3, details))
    deadline = time.perf_counter() + budget_s
    for index in range(len(ops)):
        for turn in turns if index % 2 == 0 else turns[::-1]:
            next(turn)
        if time.perf_counter() > deadline:
            break
    return pass2, pass3, details, plan


def pass_http(workload: Workload, sessions: Sessions, ops: list[Request],
              budget_s: float) -> tuple[Recorder, dict]:
    """Pass 1: loopback HTTP against in-process servers, one client."""
    recorder = Recorder("http")
    keepalive = workload.transport != "newconn"
    servers, clients = {}, {}
    for label, session in (("main", sessions.main), ("approx", sessions.approx)):
        if session is None:
            continue
        server = MayBMSServer(
            session, port=0,
            result_cache_size=workload.result_cache if label == "main"
            and workload.transport != "embedded" else 0)
        threading.Thread(target=server.httpd.serve_forever,
                         kwargs={"poll_interval": 0.05}, daemon=True).start()
        servers[label] = server
        clients[label] = HttpClient(server.address, keepalive)
    clock = time.perf_counter_ns
    deadline = clock() + int(budget_s * 1e9)
    sizes, connects = [], []
    try:
        for index, request in enumerate(ops):
            client = clients["approx" if request.approx else "main"]
            raw = encode_request("/query", request.body(), close=not keepalive)
            start = clock()
            status, body = client.exchange(raw)
            end = clock()
            if status != 200:
                raise BenchmarkError(f"HTTP {status} to {request.sql!r}")
            op = recorder.add("op", start, end, None, index)
            recorder.add("http_roundtrip", start, end, op, index)
            sizes.append(len(body))
            connects.append(client.connect_s * 1000.0)
            if end > deadline:
                break
        if keepalive:   # what a new connection costs, for reference
            probe = HttpClient(servers["main"].address, keepalive=False)
            for _ in range(20):
                probe.get("/health")
                connects.append(probe.connect_s * 1000.0)
            connects = connects[-20:]
    finally:
        for client in clients.values():
            client.close()
        for server in servers.values():
            server.shutdown()
    return recorder, {"response_bytes": median(sizes),
                      "connect_ms": median(connects)}


# -- probes for layers a replay cannot reach -------------------------------------------------


def probe_locks() -> float:
    """Milliseconds for one uncontended ``acquire_read`` + ``release_read``."""
    lock = GenerationRWLock()
    rounds = 20_000
    start = time.perf_counter()
    for _ in range(rounds):
        lock.acquire_read()
        lock.release_read()
    return (time.perf_counter() - start) * 1000.0 / rounds


def probe_read_wait(workload: Workload, seed: int, scratch: str,
                    ops_per_client: int) -> float:
    """Read latency under the workload's concurrent writes minus the same
    reads with the writes removed (two in-process client threads)."""
    medians = []
    for label, keep_writes in (("wait-rw", True), ("wait-ro", False)):
        sessions = Sessions(workload, seed, scratch, label)
        try:
            def call(request: Request):
                return execute_request(sessions.main, request.sql,
                                       list(request.params), None,
                                       result_cache=sessions.cache)[:2]
            streams = [
                (request for request in workload.stream(seed, thread)
                 if keep_writes or not request.is_write)
                for thread in range(workload.clients)]
            logs = closed_loop(streams, [call] * workload.clients,
                               seconds=600.0, max_ops=ops_per_client)
        finally:
            sessions.close()
        medians.append(median([op.ms for log in logs for op in log
                               if not op.request.is_write]))
    return medians[0] - medians[1]


def probe_storage(workload: Workload, seed: int, scratch: str) -> dict:
    """The WAL, snapshots and recovery on this workload's dataset size.

    300 writes cross one ``snapshot_every = 256`` boundary; the directory is
    then reopened without closing the writer, as after a crash.
    """
    size = workload.size
    data_dir = os.path.join(scratch, "storage")
    durable = datasets.session(size, seed, data_dir=data_dir,
                               durability=DURABILITY)
    memory = datasets.session(size, seed)
    start = time.perf_counter()
    durable.checkpoint()
    checkpoint_ms = (time.perf_counter() - start) * 1000.0
    health = durable.durability_health()
    durable_ms, memory_ms, wal_growth, stalls = [], [], [], []
    writes = write_stream(random.Random(f"storage:{seed}"),
                          size.groups)
    for _ in range(300):
        write = next(writes)
        start = time.perf_counter()
        durable.execute(write.sql, write.params)
        mid = time.perf_counter()
        memory.execute(write.sql, write.params)
        end = time.perf_counter()
        after = durable.durability_health()
        if after["snapshot_generation"] != health["snapshot_generation"]:
            stalls.append((mid - start) * 1000.0)
        else:
            durable_ms.append((mid - start) * 1000.0)
            wal_growth.append(after["wal_bytes"] - health["wal_bytes"])
        memory_ms.append((end - mid) * 1000.0)
        health = after
    files = [entry for entry in Path(data_dir).iterdir() if entry.is_file()]
    snapshots = [entry for entry in files if entry.name.startswith("snapshot-")]
    start = time.perf_counter()
    reopened = MayBMS(backend="wsd", data_dir=data_dir, durability=DURABILITY)
    recovery_ms = (time.perf_counter() - start) * 1000.0
    replayed = reopened.recovery.replayed_records
    if reopened.state_generation != durable.state_generation:
        raise BenchmarkError("the storage probe lost acknowledged writes")
    reopened.close()
    durable.close()
    return {
        "storage.wal.commit_ms": median(durable_ms) - median(memory_ms),
        "storage.wal.bytes_per_write": median(wal_growth),
        "storage.snapshot.checkpoint_ms": checkpoint_ms,
        "storage.snapshot.bytes": max(e.stat().st_size for e in snapshots),
        "storage.snapshot.count": len(snapshots),
        "storage.snapshot.stall_ms": max(stalls, default=0.0),
        "storage.store.recovery_ms": recovery_ms,
        "storage.store.replayed_records": replayed,
        "storage.store.disk_bytes_per_user_byte":
            sum(e.stat().st_size for e in files)
            / datasets.user_bytes(size, seed),
    }


def _drive(server: Server, workload: Workload, seed: int,
           seconds: float) -> float:
    """Reads per second of the workload's own traffic against *server*."""
    encoded: dict[int, bytes] = {}
    calls = [sender(HttpClient(server.address, keepalive=False), encoded)
             for _ in range(workload.clients)]
    streams = [workload.stream(seed, thread)
               for thread in range(workload.clients)]
    started = time.perf_counter()
    logs = closed_loop(streams, calls, seconds)
    ops = [op for log in logs for op in log]
    if any(op.status != 200 for op in ops):
        raise BenchmarkError("the worker-pool probe saw a failed read")
    return len(ops) / (max(op.end for op in ops) - started)


def _requests_by_pid(address, samples: int = 24) -> dict[int, int]:
    """Requests each worker has prepared so far, keyed by answering pid."""
    client = HttpClient(address, keepalive=False)
    counts: dict[int, int] = {}
    for _ in range(samples):
        _, stats = client.get("/stats")
        cache = stats["statement_cache"]
        counts[stats["scale_out"]["pid"]] = cache["hits"] + cache["misses"]
    return counts


def probe_workers(workload: Workload, seed: int, scratch: str,
                  seconds: float, writes: int) -> dict:
    """The pre-fork pool against one process, on the workload's traffic."""
    rates = {}
    metrics = {}
    for workers in (2, 1):
        data_dir = os.path.join(scratch, f"workers-{workers}")
        datasets.persist(workload.size, seed, data_dir)
        with Server(data_dir, ("--workers", str(workers),
                               "--result-cache", "0")) as server:
            server.start()
            if workers == 1:
                rates[workers] = _drive(server, workload, seed, seconds)
                continue
            before = _requests_by_pid(server.address)
            rates[workers] = _drive(server, workload, seed, seconds)
            after = _requests_by_pid(server.address)
            served = [after[pid] - before.get(pid, 0) for pid in after]
            metrics["serving.workers.busiest_worker_share"] = \
                max(served) / max(sum(served), 1)
            client = HttpClient(server.address, keepalive=False)
            stream = write_stream(random.Random(f"pool:{seed}"),
                                  workload.size.groups)
            forward_ms, lag_ms = [], []
            for _ in range(writes):
                start = time.perf_counter()
                status, payload = client.query(next(stream).body())
                acked = time.perf_counter()
                if status != 200:
                    raise BenchmarkError(f"forwarded write failed: {payload}")
                forward_ms.append((acked - start) * 1000.0)
                caught_up: set[int] = set()
                while len(caught_up) < len(after):
                    _, health = client.get("/health")
                    if health["generation"] >= payload["generation"]:
                        caught_up.add(health["scale_out"]["pid"])
                    if time.perf_counter() - acked > 10.0:
                        raise BenchmarkError("replication did not catch up")
                lag_ms.append((time.perf_counter() - acked) * 1000.0)
            metrics["serving.workers.forward_write_ms"] = median(forward_ms)
            metrics["serving.workers.replication_lag_ms"] = median(lag_ms)
    metrics["serving.workers.speedup_vs_single"] = rates[2] / rates[1]
    return metrics


# -- the traced run --------------------------------------------------------------------------


def _approximate_metrics(answers: list[tuple[Request, tuple, int]]) -> dict:
    """Sampling effort and honesty of the anytime tier's answers: interval
    width, and the share of intervals that contain the exact confidence
    (computed once per statement under the default, generous budgets)."""
    if not answers:
        return {"wsd.approximate.samples_per_op": 0.0,
                "wsd.approximate.interval_width": 0.0,
                "wsd.approximate.coverage": 0.0}
    exact_session = datasets.approx_session(tight=False)
    exact: dict[str, float] = {}
    covered, width, samples = 0, 0.0, 0
    for request, (_, low, high), drawn in answers:
        if request.sql not in exact:
            exact[request.sql] = exact_session.execute(request.sql).scalar()
        covered += low - 1e-12 <= exact[request.sql] <= high + 1e-12
        width += high - low
        samples += drawn
    return {"wsd.approximate.samples_per_op": samples / len(answers),
            "wsd.approximate.interval_width": width / len(answers),
            "wsd.approximate.coverage": covered / len(answers)}


def run_traced(workload: Workload, seed: int, seconds: float
               ) -> tuple[dict[str, float], list[str], list[str], int]:
    """``(per-layer metrics, printable table, problems, operations
    replayed over the three passes)`` of one workload."""
    ops_source = workload.interleaved(seed)
    ops = [next(ops_source) for _ in range(MAX_OPS)]
    overhead_ms = client_overhead_ms(workload.transport != "newconn")
    with temp_dir(f"trace-{workload.name}") as scratch:
        # Untimed: the first execution of every code path pays for imports
        # and interpreter warm-up, which would otherwise all land in pass 2.
        sessions = Sessions(workload, seed, scratch, "pass0")
        warm_up(sessions, ops[:MAX_OPS // 10], seconds * 0.1)
        sessions.close()

        # Passes 2 and 3, repeated on fresh sessions (at most three times)
        # while they disagree; every repeat adds its samples to the pools.
        pool2: dict[tuple, list[float]] = {}
        pool3: dict[tuple, list[float]] = {}
        ratios = []
        for attempt in range(LAYER_ATTEMPTS):
            two = Sessions(workload, seed, scratch, f"pass2-{attempt}")
            three = Sessions(workload, seed, scratch, f"pass3-{attempt}")
            before = two.counters()
            with quiet_collector():
                pass2, pass3, details, plan = paired_passes(
                    two, three, ops, seconds * 0.6)
            after = two.counters()
            two.close()
            three.close()
            ops = ops[:len(pass2.durations_ms("op"))]
            _pool_by_kind(pool2, pass2.by_op(("execute_request",)),
                          details["kinds"])
            _pool_by_kind(pool3, pass3.by_op(EXECUTE_REQUEST_STEPS),
                          details["kinds"])
            ratios.append(_typical_total(pool3) / _typical_total(pool2))
            if abs(ratios[-1] - 1.0) <= LAYER_TOLERANCE:
                break

        sessions = Sessions(workload, seed, scratch, "pass1")
        with quiet_collector():
            pass1, http = pass_http(workload, sessions, ops, seconds * 0.3)
        sessions.close()

        metrics = probe_storage(workload, seed, scratch)
        metrics["serving.locks.read_wait_ms"] = (
            probe_read_wait(workload, seed, scratch, max(len(ops) // 8, 20))
            if workload.writes else 0.0)
        if "--workers" in workload.serve_args:
            metrics.update(probe_workers(
                workload, seed, scratch, max(seconds / 4.0, 1.0),
                writes=int(min(50, max(5, seconds * 2)))))
        else:
            metrics.update({
                "serving.workers.speedup_vs_single": 0.0,
                "serving.workers.busiest_worker_share": 0.0,
                "serving.workers.forward_write_ms": 0.0,
                "serving.workers.replication_lag_ms": 0.0})

    count = len(ops)
    execute_request_ms = pass2.durations_ms("execute_request")
    roundtrip_ms = pass1.durations_ms("http_roundtrip")
    step_sums = pass3.by_op(EXECUTE_REQUEST_STEPS)
    json_sums = pass3.by_op(("json_decode", "json_encode"))
    op_ms = pass3.durations_ms("op")
    layers_sum_ratio = ratios[-1]
    json_ms = median(list(json_sums.values()))
    cold = details["cold_ops"]
    executes = {span[4]: (span[2] - span[1]) / 1e6
                for span in pass3.spans if span[0] == "execute"}
    reads = {i for i, request in enumerate(ops) if not request.is_write}
    warm_ms = median([ms for i, ms in executes.items()
                      if i in reads and i not in cold])
    cold_ms = median([ms for i, ms in executes.items() if i in cold])
    stats_delta = {name: _delta(after, before, "stats", name)
                   for name in after["stats"]}
    confidence = {name: _delta(after, before, "confidence", name)
                  for name in after["confidence"]}
    aggregate = {name: _delta(after, before, "aggregate", name)
                 for name in ("queries", "clusters", "convolutions")}
    expansions = (confidence["independence_partitions"]
                  + confidence["exclusive_sums"]
                  + confidence["shannon_expansions"])
    metrics.update({
        "serving.server.http_roundtrip_ms": median(roundtrip_ms),
        "serving.server.execute_request_ms": median(execute_request_ms),
        "serving.server.json_ms": json_ms,
        "serving.server.http_overhead_ms":
            median(roundtrip_ms)
            - median(execute_request_ms[:len(roundtrip_ms)]) - json_ms,
        "serving.server.render_ms": median(pass3.durations_ms("render")),
        "serving.server.response_bytes": http["response_bytes"],
        "serving.server.connect_ms": http["connect_ms"],
        "serving.prepared.statement_cache_hit_ratio": _ratio(
            _delta(after, before, "statement", "hits"),
            _delta(after, before, "statement", "misses")),
        "serving.prepared.result_cache_hit_ratio": _ratio(
            _delta(after, before, "result", "hits"),
            _delta(after, before, "result", "misses")),
        "serving.prepared.prepare_ms": median(pass3.durations_ms("prepare")),
        "serving.locks.uncontended_acquire_ms": probe_locks(),
        "serving.locks.generation_bumps":
            after["generation"] - before["generation"],
        "sqlparser.parse_ms": median(pass3.durations_ms("parse")),
        "sqlparser.statements_parsed":
            _delta(after, before, "statement", "misses"),
        "core.execute_ms": warm_ms,
        "core.cold_execute_ms": cold_ms,
        "wsd.execute.ground_ms": cold_ms - warm_ms,
        "wsd.execute.ground_cache_hit_ratio": _ratio(
            stats_delta["ground_cache_hits"],
            stats_delta["ground_cache_misses"]),
        "wsd.execute.columnar_batches_per_op":
            stats_delta["columnar_batches"] / count,
        "wsd.execute.rowwise_fallbacks": stats_delta["rowwise_fallbacks"],
        "wsd.execute.tier_fallbacks":
            stats_delta["fallback"] + stats_delta["aggregate_fallbacks"]
            + stats_delta["group_fallbacks"],
        "wsd.plan_cache.compiles": plan["compiles"],
        "wsd.plan_cache.hit_ratio": _ratio(plan["hits"], plan["compiles"]),
        "wsd.confidence.closed_form_per_op": confidence["closed_form"] / count,
        "wsd.confidence.dtree_per_op": confidence["dtree"] / count,
        "wsd.confidence.shannon_per_op":
            confidence["shannon_expansions"] / count,
        "wsd.confidence.memo_hit_ratio": _ratio(confidence["memo_hits"],
                                                expansions),
        "wsd.confidence.enumeration_fallbacks":
            confidence["enumeration_fallbacks"],
        "wsd.aggregate.clusters_per_op":
            aggregate["clusters"] / max(aggregate["queries"], 1),
        "wsd.aggregate.convolutions_per_op":
            aggregate["convolutions"] / max(aggregate["queries"], 1),
        "wsd.aggregate.peak_states": after["aggregate"]["peak_states"],
        "loadgen.op_p99_ms": percentile(roundtrip_ms, 99),
        "loadgen.overhead_ms": overhead_ms,
        "trace.overhead_share":
            (sum(op_ms) - sum(step_sums.values()) - sum(json_sums.values()))
            / sum(op_ms),
        "trace.layers_sum_ratio": layers_sum_ratio,
    })
    by_class: dict[str, list[float]] = {}
    for index, ms in executes.items():
        by_class.setdefault(ops[index].cls, []).append(ms)
    for cls, name in CLASS_METRIC.items():
        metrics[name] = median(by_class.get(cls, []))
    metrics.update(_approximate_metrics(details["approx_answers"]))

    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"trace-{workload.name}.jsonl", "w") as handle:
        for recorder in (pass1, pass2, pass3):
            recorder.dump(handle)

    table = _where_the_time_goes(workload, count, len(roundtrip_ms), pass3,
                                 metrics, op_ms)
    problems = []
    if abs(layers_sum_ratio - 1.0) > LAYER_TOLERANCE:
        problems.append(
            f"pass-3 steps / pass-2 execute_request over {count} operations "
            f"(count x median per kind) was {ratios} over {len(ratios)} pooled "
            f"attempts: "
            f"the layers do not add up within {LAYER_TOLERANCE:.0%}")
    return metrics, table, problems, 2 * count + len(roundtrip_ms)


def _where_the_time_goes(workload: Workload, count: int, http_count: int,
                         pass3: Recorder, metrics: dict,
                         op_ms: list[float]) -> list[str]:
    total = sum(op_ms)
    lines = [f"where the time goes — {workload.name} "
             f"({count} operations replayed in-process, one thread; "
             f"{http_count} of them over loopback HTTP)",
             f"  {'layer':<34}{'spans':>7}{'total ms':>12}{'share':>8}"
             f"{'median us':>12}"]
    children: dict[int, int] = {}
    for name, start, end, parent, _ in pass3.spans:
        if parent is not None:
            children[parent] = children.get(parent, 0) + (end - start)
    order = ("op", "json_decode", "prepare", "parse", "result_cache_get",
             "execute", "render", "result_cache_put", "json_encode")
    for wanted in order:
        selfs = [(span[2] - span[1] - children.get(ident, 0)) / 1e6
                 for ident, span in enumerate(pass3.spans)
                 if span[0] == wanted]
        if not selfs:
            continue
        label = {"op": "op (self: span recorder)",
                 "prepare": "prepare (self: statement cache)",
                 "parse": "  parse (re-measured)"}.get(wanted, wanted)
        lines.append(f"  {label:<34}{len(selfs):>7}{sum(selfs):>12.2f}"
                     f"{sum(selfs) / total:>8.1%}{median(selfs) * 1000:>12.1f}")
    lines.append(
        f"  http round trip {metrics['serving.server.http_roundtrip_ms']:.3f}"
        f" ms = execute_request "
        f"{metrics['serving.server.execute_request_ms']:.3f} + json "
        f"{metrics['serving.server.json_ms']:.3f} + http overhead "
        f"{metrics['serving.server.http_overhead_ms']:.3f} (medians)")
    lines.append(
        f"  pass-3 steps / pass-2 execute_request = "
        f"{metrics['trace.layers_sum_ratio']:.3f} "
        f"(sum of count x median per kind of operation)")
    return lines
