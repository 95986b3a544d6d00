"""Prepared statements: parse / plan / shape-analyse once, execute many.

:meth:`repro.core.session.MayBMS.prepare` compiles one I-SQL statement into a
:class:`PreparedStatement`:

* the SQL is **parsed once** — ``?`` placeholders become
  :class:`~repro.relational.expressions.Parameter` nodes bound per
  execution, so the same AST serves every argument vector;
* the statement is **classified once** (read vs. write), so each execution
  takes the session's :class:`~repro.serving.locks.GenerationRWLock` in the
  right mode without re-inspecting the AST;
* on the wsd backend, aggregate / grouping **shape analysis is compiled
  once per process** — the compiled
  :class:`~repro.wsd.aggregate.AggregatePlan` is immutable (per-execution
  values travel in :class:`~repro.wsd.aggregate.EvalSlots`, never in the
  plan) and a pure function of the AST, so one instance is shared by every
  thread through the process-wide
  :data:`~repro.wsd.plan_cache.GLOBAL_PLAN_CACHE`
  (:attr:`PreparedStatement.plans`); it stays valid across decomposition
  generations, while the symbolic grounding the plan evaluates over stays
  keyed on the decomposition generation (a DML bump invalidates it,
  nothing else does).

Executions are thread-safe: parameter bindings are thread-local, the shared
plan cache is mutex-guarded, and the session's read/write lock serialises
writers against everything while letting prepared reads run concurrently.
A brand-new thread (or a respawned pre-fork pool worker) therefore serves
its first request from an already-compiled plan — zero per-thread warm-up,
asserted by the cache's ``compiles``/``hits`` counters in the serving
benchmarks.

:class:`StatementCache` is the session-level LRU that makes plain
``execute(sql)`` transparently reuse a prepared statement for repeated text.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Optional, Sequence

from ..errors import AnalysisError
from ..relational.expressions import bound_parameters
from ..sqlparser.ast_nodes import (
    CompoundQuery,
    ExplainStatement,
    SelectQuery,
    Statement,
)
from ..storage.store import sql_record
from ..wsd.plan_cache import GLOBAL_PLAN_CACHE, SharedPlanCache
from .locks import GenerationRWLock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.backends import ExecutionBackend
    from ..core.options import QueryOptions
    from ..core.results import StatementResult

__all__ = ["PreparedStatement", "ResultCache", "StatementCache",
           "statement_is_read"]


def statement_is_read(statement: Statement) -> bool:
    """True when *statement* only reads session state (queries, EXPLAIN).

    Everything else — DDL, DML, ``CREATE TABLE AS`` — derives or mutates the
    world-set and must hold the session lock exclusively.
    """
    return isinstance(statement, (SelectQuery, CompoundQuery,
                                  ExplainStatement))


class PreparedStatement:
    """One compiled statement, reusable (and re-bindable) across executions."""

    def __init__(self, backend: "ExecutionBackend", lock: GenerationRWLock,
                 sql: str, statement: Statement,
                 parameter_count: int, store=None,
                 write_timeout: float | None = None) -> None:
        self.sql = sql
        self.statement = statement
        #: How many ``?`` placeholders each execution must bind.
        self.parameter_count = parameter_count
        #: Shared-mode executions (queries) vs. exclusive (DDL / DML).
        self.is_read = statement_is_read(statement)
        #: Total completed executions (observability; approximate under
        #: concurrency — it is not synchronised).
        self.executions = 0
        self._backend = backend
        self._lock = lock
        #: The session's :class:`~repro.storage.DurableStore`, or ``None``
        #: for purely in-memory sessions.
        self._store = store
        self._write_timeout = write_timeout

    @property
    def plans(self) -> SharedPlanCache:
        """The process-wide compiled-plan cache all executions share.

        Compiled plans are immutable (evaluation state lives in
        per-execution EvalSlots), so every statement — and every thread —
        shares the one cache.
        """
        return GLOBAL_PLAN_CACHE

    def execute(self, parameters: Sequence[Any] = (),
                options: "QueryOptions | dict | None" = None
                ) -> "StatementResult":
        """Execute with *parameters* bound to the ``?`` placeholders.

        *options* carries per-request graceful-degradation overrides
        (deadline, target ε, degradation mode); ``None`` inherits the
        session configuration.
        """
        return self.execute_with_generation(parameters, options)[0]

    def execute_with_generation(self, parameters: Sequence[Any] = (),
                                options: "QueryOptions | dict | None" = None
                                ) -> tuple["StatementResult", int]:
        """Execute and also report the state generation the result saw.

        For reads the generation identifies the snapshot the answer was
        computed against (the count of writes committed before it); for
        writes it is the generation the write *produced*.  The pair is read
        atomically under the session lock, which is what lets concurrency
        tests replay a concurrent history serially.
        """
        parameters = tuple(parameters)
        if len(parameters) != self.parameter_count:
            raise AnalysisError(
                f"prepared statement expects {self.parameter_count} "
                f"parameter(s), got {len(parameters)}")
        if self.is_read:
            self._lock.acquire_read()
            try:
                with bound_parameters(parameters):
                    result = self._backend.execute_statement(
                        self.statement, options=options)
                generation = self._lock.generation
            finally:
                self._lock.release_read()
        else:
            self._lock.acquire_write(timeout=self._write_timeout)
            try:
                if self._store is not None:
                    # Refuse up front: after a commit-path failure the
                    # in-memory state may be ahead of the log, and running
                    # more writes would widen the divergence.
                    self._store.check_writable()
                    # Built before the write runs: a parameter the log
                    # cannot store is refused while nothing has changed.
                    record = sql_record(self.sql, parameters)
                with bound_parameters(parameters):
                    result = self._backend.execute_statement(
                        self.statement, options=options)
                if self._store is not None:
                    # Log-before-release: the record carries the generation
                    # the release below will publish, so WAL order is
                    # exactly generation order.
                    self._store.log_commit(
                        self._lock.generation + 1, record,
                        statement=self.statement)
            except BaseException:
                # The write failed (or was not durably logged): the
                # acknowledged state did not change, so the completed-write
                # counter must not advance either.
                self._lock.release_write(bump=False)
                raise
            else:
                generation = self._lock.release_write()
        self.executions += 1
        return result, generation

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "read" if self.is_read else "write"
        return (f"PreparedStatement({self.sql!r}, {mode}, "
                f"{self.parameter_count} parameter(s))")


class StatementCache:
    """A thread-safe LRU of prepared statements keyed by SQL text."""

    def __init__(self, capacity: int = 64) -> None:
        self.capacity = capacity
        self._entries: OrderedDict[str, PreparedStatement] = OrderedDict()
        self._mutex = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, sql: str) -> Optional[PreparedStatement]:
        with self._mutex:
            prepared = self._entries.get(sql)
            if prepared is None:
                self.misses += 1
                return None
            self._entries.move_to_end(sql)
            self.hits += 1
            return prepared

    def put(self, sql: str, prepared: PreparedStatement) -> None:
        with self._mutex:
            self._entries[sql] = prepared
            self._entries.move_to_end(sql)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        # /stats calls this from handler threads concurrent with ``put``
        # eviction; an unsynchronised read can observe the OrderedDict
        # mid-resize.
        with self._mutex:
            return len(self._entries)

    def snapshot(self) -> dict:
        """One consistent ``{"size", "hits", "misses"}`` reading.

        ``size``/``hits``/``misses`` are taken under the mutex together, so
        an observer can never see e.g. a miss counted whose entry is not in
        the size yet.
        """
        with self._mutex:
            return {"size": len(self._entries), "hits": self.hits,
                    "misses": self.misses}

    def clear(self) -> None:
        with self._mutex:
            self._entries.clear()


class ResultCache:
    """A bounded LRU of rendered read answers keyed on text, args, generation.

    The serving layer consults it *before* executing a read: the key is
    ``(statement_text, params, generation)``, so a DML commit — which bumps
    the generation — makes every older entry unreachable without any
    explicit invalidation (exactly the generation-keyed discipline the
    grounding cache already follows).  Entries are stored under the
    generation the execution actually observed (reported by
    :meth:`PreparedStatement.execute_with_generation`), never under a
    generation read separately — so a cached answer is always the answer a
    serial execution at that generation produces.

    Only plain reads are cached: statements with per-request options
    (deadlines, degradation overrides) and approximate answers bypass the
    cache entirely.
    """

    def __init__(self, capacity: int = 256) -> None:
        self.capacity = capacity
        self._entries: OrderedDict[tuple, Any] = OrderedDict()
        self._mutex = threading.Lock()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(sql: str, parameters: Sequence[Any],
            generation: int) -> tuple | None:
        """The cache key, or ``None`` when the arguments are unhashable."""
        key = (sql, tuple(parameters), generation)
        try:
            hash(key)
        except TypeError:
            return None
        return key

    def get(self, key: tuple | None) -> Any | None:
        if key is None:
            return None
        with self._mutex:
            payload = self._entries.get(key)
            if payload is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return payload

    def put(self, key: tuple | None, payload: Any) -> None:
        if key is None:
            return
        with self._mutex:
            self._entries[key] = payload
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._mutex:
            return len(self._entries)

    def snapshot(self) -> dict:
        """One consistent ``{"size", "capacity", "hits", "misses"}``."""
        with self._mutex:
            return {"size": len(self._entries), "capacity": self.capacity,
                    "hits": self.hits, "misses": self.misses}

    def clear(self) -> None:
        with self._mutex:
            self._entries.clear()
