"""The timed run: tracing off, every end-to-end metric of one workload.

Phases (only the window is timed):

1. client-cost calibration and the explicit-vs-wsd cross check;
2. set-up, three times over (build, repair, persist, spawn the CLI, wait for
   ``/health``, warm up) — the median is ``setup_s``, the last one stays up;
3. the closed-loop window;
4. for a workload that writes: recovery, three times over — ``SIGKILL``,
   restart on the same directory, time until ``/health`` reports the last
   acknowledged generation;
5. with the program stopped, every answer is checked.

A metric a workload cannot have (write latency without writes) is absent
from its result, not zero.
"""

from __future__ import annotations

import re
import resource
import time
from dataclasses import dataclass, field

import checks
import datasets
from loadgen import (MAX_OVERHEAD_MS, MAX_OVERHEAD_NEWCONN_MS, HttpClient, Op,
                     client_overhead_ms, closed_loop, encode_request, sender)
from repro.serving.server import result_payload
from servers import Server, temp_dir
from stats import median, percentile
from workloads import OBS_SCAN, Request, Workload

SETUP_REPEATS = 3
RECOVERY_REPEATS = 3
#: ``ops_per_s`` is the median rate over this many slices of the window.
RATE_SLICES = 10
_GENERATION = re.compile(rb'"generation": (\d+)\}\s*$')


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a trustworthy result; abort the run."""


@dataclass
class Outcome:
    """What one run measured and whether every answer was right."""

    workload: str
    seed: int
    seconds: float
    metrics: dict[str, float] = field(default_factory=dict)
    #: How many latency samples stand behind each percentile metric.
    samples: dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.errors

    def fail(self, reason: str) -> None:
        self.errors.append(reason)


def generation_of(body: bytes) -> int | None:
    """The ``generation`` a raw ``/query`` answer reports (it is last)."""
    match = _GENERATION.search(body)
    return int(match.group(1)) if match else None


def cold_reads(history: list[Op], seen: set[int]) -> list[Op]:
    """Reads that were the first answered at their reported generation."""
    cold = []
    for op in sorted(history, key=lambda op: op.end):
        if op.request.is_write or op.status != 200:
            continue
        generation = generation_of(op.body)
        if generation is not None and generation not in seen:
            seen.add(generation)
            cold.append(op)
    return cold


# -- targets: the program under test, run one of two ways ------------------------------------


class Target:
    """The program under test, set up and torn down around one run."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.streams: list = []
        self.warmup_ops: list[Op] = []
        #: The generation the program reports once set up.
        self.base_generation = 0

    def __enter__(self) -> "Target":
        return self

    def __exit__(self, *exc_info) -> None:
        self.teardown()

    def teardown(self) -> None:
        """Stop whatever :meth:`setup` started."""


class HttpTarget(Target):
    """The CLI server as a subprocess, driven over loopback HTTP."""

    def __init__(self, workload: Workload, seed: int) -> None:
        super().__init__(workload, seed)
        self.keepalive = workload.transport == "keepalive"
        self._encoded = {
            request.index: encode_request("/query", request.body(),
                                          close=not self.keepalive)
            for request in workload.universe(seed)}
        self._scratch = temp_dir(workload.name)
        self._setups = 0
        self.data_dir = ""
        self.server: Server | None = None
        self.clients: list[HttpClient] = []

    def __exit__(self, *exc_info) -> None:
        try:
            self.teardown()
        finally:
            self._scratch.cleanup()

    def teardown(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        if self.server is not None:
            self.server.kill()
            self.server = None

    def performers(self) -> list:
        return [sender(client, self._encoded) for client in self.clients]

    def setup(self) -> float:
        """Build, persist, spawn, wait for health, warm up; seconds taken."""
        started = time.perf_counter()
        self._setups += 1
        self.data_dir = f"{self._scratch.name}/data-{self._setups}"
        datasets.persist(self.workload.size, self.seed, self.data_dir)
        self.server = Server(self.data_dir, self.workload.serve_args)
        self.server.start()
        self.clients = [HttpClient(self.server.address, self.keepalive)
                        for _ in range(self.workload.clients)]
        self.streams = [self.workload.stream(self.seed, thread)
                        for thread in range(self.workload.clients)]
        _, health = HttpClient(self.server.address, False).get("/health")
        self.base_generation = health["generation"]
        logs = closed_loop(self.streams, self.performers(), seconds=600.0,
                           max_ops=self.workload.warmup)
        self.warmup_ops = [op for log in logs for op in log]
        return time.perf_counter() - started

    def peak_rss_mb(self) -> float:
        return self.server.peak_rss_mb()

    def recover(self, min_generation: int) -> tuple[float, dict]:
        """SIGKILL, restart on the same directory; (seconds, Obs payload)."""
        self.teardown()
        self.server = Server(self.data_dir, self.workload.serve_args)
        seconds = self.server.start(min_generation=min_generation)
        _, scan = HttpClient(self.server.address, False).query(
            Request(OBS_SCAN).body())
        return seconds, scan


class EmbeddedTarget(Target):
    """The engine in-process: ``db.prepare(sql).execute(params)``."""

    def __init__(self, workload: Workload, seed: int) -> None:
        super().__init__(workload, seed)
        self._prepared: dict[int, object] = {}
        self._rss_mb = 0.0

    def setup(self) -> float:
        """Build both sessions, prepare every statement, warm up."""
        started = time.perf_counter()
        session = datasets.session(self.workload.size, self.seed)
        approx = datasets.approx_session(tight=True)
        self._prepared = {
            request.index: (approx if request.approx
                            else session).prepare(request.sql)
            for request in self.workload.universe(self.seed)}
        self.streams = [self.workload.stream(self.seed, 0)]
        self.base_generation = session.state_generation
        logs = closed_loop(self.streams, self.performers(), seconds=600.0,
                           max_ops=self.workload.warmup)
        self.warmup_ops = logs[0]
        # Read here, not after the window: the answers the window keeps for
        # checking are the benchmark's memory, not the program's, and would
        # grow with every speed-up.
        self._rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return time.perf_counter() - started

    def performers(self) -> list:
        prepared = self._prepared

        def call(request: Request):
            return 200, prepared[request.index].execute(request.params,
                                                        request.options)
        return [call]

    def peak_rss_mb(self) -> float:
        return self._rss_mb


# -- the run ---------------------------------------------------------------------------------


def _calibrate(workload: Workload) -> None:
    """Abort when the load generator itself would be what is measured."""
    keepalive = workload.transport == "keepalive"
    limit = MAX_OVERHEAD_MS if keepalive else MAX_OVERHEAD_NEWCONN_MS
    # Best of up to five: a burst of somebody else's work on the machine
    # during one calibration must not abort the run.
    overhead = limit
    for _ in range(5):
        overhead = min(overhead, client_overhead_ms(keepalive))
        if overhead < limit:
            return
    raise BenchmarkError(
        f"the load generator costs {overhead:.3f} ms per request "
        f"(limit {limit}): it would measure itself")


def _sliced_rate(ops: list[Op], start: float) -> float:
    """Operations per second: the median over ``RATE_SLICES`` equal-count
    slices of the window.

    A closed loop's whole-window average inherits every burst of somebody
    else's work on the machine; the median slice does not.
    """
    ends = sorted(op.end for op in ops)
    rates = []
    for index in range(RATE_SLICES):
        low, high = (len(ends) * index // RATE_SLICES,
                     len(ends) * (index + 1) // RATE_SLICES)
        if high > low:
            since = ends[low - 1] if low else start
            rates.append((high - low) / (ends[high - 1] - since))
    return median(rates)


def _check_answers(workload: Workload, seed: int, history: list[Op],
                   base_generation: int, recovered_obs: dict | None,
                   outcome: Outcome) -> dict[int, str]:
    """Reasons by position in *history* for every wrong or failed answer."""
    if not workload.writes:          # one reference answer per request
        reference = checks.Reference(workload, seed)
        check = (reference.check_embedded
                 if workload.transport == "embedded" else reference.check_http)
        return {position: reason for position, reason in
                enumerate(check(op) for op in history) if reason}
    failures, history_error, replay = checks.replay_check(
        workload, seed, history, base_generation)
    if history_error:
        outcome.fail(history_error)
    expected = checks.canonical(result_payload(replay.execute(OBS_SCAN)))
    if recovered_obs is not None and not checks.same(
            expected, checks.canonical(recovered_obs)):
        outcome.fail("the recovered Obs differs from the serial replay of "
                     "the acknowledged writes")
    return failures


def run_timed(workload: Workload, seed: int, seconds: float) -> Outcome:
    outcome = Outcome(workload.name, seed, seconds)
    embedded = workload.transport == "embedded"
    if not embedded:
        _calibrate(workload)
    try:
        checks.cross_backend_check(workload, seed)
    except AssertionError as error:
        outcome.fail(str(error))
    target = (EmbeddedTarget if embedded else HttpTarget)(workload, seed)
    with target:
        setups = []
        for repeat in range(SETUP_REPEATS):
            if repeat:
                target.teardown()
            setups.append(target.setup())
        window_start = time.perf_counter()
        logs = closed_loop(target.streams, target.performers(), seconds)
        window = [op for log in logs for op in log]
        rss = target.peak_rss_mb()
        history = target.warmup_ops + window
        recoveries, recovered_obs = [], None
        if workload.writes:
            last = max((generation_of(op.body) or 0 for op in history
                        if op.request.is_write and op.status == 200),
                       default=target.base_generation)
            try:
                for _ in range(RECOVERY_REPEATS):
                    recovery_s, recovered_obs = target.recover(last)
                    recoveries.append(recovery_s)
            except (RuntimeError, OSError) as error:
                outcome.fail(f"recovery failed: {error}")
    # The program is stopped; check every answer it gave.
    failures = _check_answers(workload, seed, history, target.base_generation,
                              recovered_obs, outcome)
    outcome.attempted = len(history)
    outcome.failed = len(failures)
    outcome.errors += [failures[position]
                       for position in sorted(failures)[:5]]

    first = len(target.warmup_ops)
    good = [op for position, op in enumerate(window, first)
            if position not in failures]

    def latency(name: str, ops: list[Op], quantiles=(50, 95)) -> None:
        for q in quantiles:
            outcome.metrics[f"{name}_p{q}_ms"] = percentile(
                [op.ms for op in ops], q)
            outcome.samples[f"{name}_p{q}_ms"] = len(ops)

    outcome.metrics = {"setup_s": median(setups),
                       "ops_per_s": _sliced_rate(good, window_start)}
    outcome.samples = {"setup_s": len(setups), "ops_per_s": len(good)}
    latency("op", window)
    outcome.metrics["failed_share"] = outcome.failed / outcome.attempted
    outcome.samples["failed_share"] = outcome.attempted
    outcome.metrics["peak_rss_mb"] = rss
    latency("read", [op for op in window if not op.request.is_write])
    if workload.writes:
        latency("write", [op for op in window if op.request.is_write])
        seen = {target.base_generation}
        cold_reads(target.warmup_ops, seen)
        latency("cold_read", cold_reads(window, seen), quantiles=(50,))
        outcome.metrics["recovery_s"] = median(recoveries)
        outcome.samples["recovery_s"] = len(recoveries)
    if seed == checks.GOLDEN_SEED:
        problem = checks.golden_problem(workload)
        if problem:
            outcome.fail(problem)
    return outcome
