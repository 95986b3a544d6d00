"""The MayBMS session: backend selection, statement dispatch and state access.

:class:`MayBMS` is the public face of the reproduction.  It plays the role of
the MayBMS server in the paper: it keeps the current world-set state, stores
view definitions, and executes I-SQL statements — queries, DDL and updates —
with possible-worlds semantics.

Since the WSD-native execution backend landed, the session is a thin facade
over an :class:`~repro.core.backends.ExecutionBackend`:

* ``MayBMS(backend="explicit")`` (the default) keeps an explicit
  :class:`~repro.worldset.worldset.WorldSet` and evaluates every query per
  world — the reference semantics;
* ``MayBMS(backend="wsd")`` keeps a compact
  :class:`~repro.wsd.decomposition.WorldSetDecomposition` and evaluates
  ``select`` / ``where`` / projection / ``possible`` / ``certain`` / ``conf``
  / ``assert`` directly on it, never materialising worlds for the supported
  query classes.

The session is also the **serving layer's** entry point
(:mod:`repro.serving`): every statement executes under a generation-aware
read/write lock (concurrent readers, exclusive writers), ``execute`` keeps an
LRU of prepared statements keyed by SQL text, and :meth:`MayBMS.prepare`
compiles a statement — with ``?`` parameter placeholders — once for repeated
execution.

Typical use::

    db = MayBMS()                      # or MayBMS(backend="wsd")
    db.create_table("R", ["A", "B", "C", "D"])
    db.insert("R", [("a1", 10, "c1", 2), ...])
    db.execute("create table I as select A, B, C from R repair by key A weight D;")
    result = db.execute("select possible sum(B) from I;")

    statement = db.prepare("select conf from I where B > ?;")
    statement.execute((12,))           # skips parse / analysis / grounding
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence

from ..errors import AnalysisError, UnsupportedFeatureError
from ..relational.relation import Relation
from ..relational.schema import Column
from ..serving.locks import GenerationRWLock
from ..serving.prepared import PreparedStatement, StatementCache, statement_is_read
from ..sqlparser.ast_nodes import Query, Statement
from ..sqlparser.parser import parse_prepared, split_statements
from ..storage.store import (
    DurableStore,
    RecoveryReport,
    apply_record,
    create_table_record,
    insert_record,
    register_relation_record,
)
from ..worldset.worldset import WorldSet
from ..wsd.decomposition import WorldSetDecomposition
from ..wsd.approximate import AnytimeBudget
from ..wsd.budgets import ResourceBudgets
from .backends import ExplicitBackend, WsdBackend, create_backend
from .options import QueryOptions
from .results import StatementResult

__all__ = ["MayBMS"]


class MayBMS:
    """An in-memory MayBMS instance: world-set state plus I-SQL execution."""

    def __init__(self, catalog=None, backend: str = "explicit",
                 statement_cache_size: int = 64,
                 budgets: ResourceBudgets | dict | None = None,
                 degradation: str = "strict",
                 anytime: AnytimeBudget | None = None,
                 data_dir: str | None = None,
                 durability=None,
                 write_timeout: float | None = None,
                 fault_injector=None) -> None:
        #: The execution backend holding all state (world-set or WSD, views,
        #: declared keys) and implementing statement execution.  *budgets*
        #: replaces the engines' hard-coded guard constants per session;
        #: *degradation* selects what an over-budget shape does (``"strict"``
        #: refuses with a structured error, ``"anytime"`` degrades to the
        #: approximate sampling tier) and *anytime* bounds that tier.
        self.backend = create_backend(backend, catalog, budgets=budgets,
                                      degradation=degradation,
                                      anytime=anytime)
        #: The session's read/write lock: prepared reads share it, DDL / DML
        #: take it exclusively, and each completed write bumps its
        #: generation (see :mod:`repro.serving.locks`).
        self.lock = GenerationRWLock()
        #: LRU of prepared statements keyed by SQL text; ``execute`` goes
        #: through it, so repeated statements skip parsing and analysis.
        self.statement_cache = StatementCache(statement_cache_size)
        #: Seconds a write waits for the lock before a structured
        #: :class:`~repro.errors.WriteTimeoutError` (``None``: forever).
        self.write_timeout = write_timeout
        #: The durable store, or ``None`` for a purely in-memory session.
        self.store: DurableStore | None = None
        #: What opening ``data_dir`` found (``None`` without one).
        self.recovery: RecoveryReport | None = None
        if data_dir is None:
            if durability is not None or fault_injector is not None:
                raise AnalysisError(
                    "durability / fault_injector options require data_dir")
        else:
            store = DurableStore(data_dir, durability,
                                 injector=fault_injector)
            if catalog is not None and store.has_state():
                raise AnalysisError(
                    f"{data_dir} already holds persisted state; open it "
                    "without a constructor catalog (recovery would "
                    "silently discard the catalog otherwise)")
            self.store = store
            # Bootstrap captures the constructor catalog (if any) in the
            # generation-0 snapshot; recovery replaces the backend state
            # with the newest snapshot plus the replayed WAL tail.
            self.recovery = store.open(self.backend, self.lock)

    # -- backend and state access ---------------------------------------------------------------

    @property
    def backend_name(self) -> str:
        """The name of the active backend (``"explicit"`` or ``"wsd"``)."""
        return self.backend.name

    @property
    def world_set(self) -> WorldSet:
        """The explicit world-set (explicit backend only)."""
        if not isinstance(self.backend, ExplicitBackend):
            raise AnalysisError(
                "the wsd backend keeps no explicit world-set; "
                "use .decomposition instead")
        return self.backend.world_set

    @world_set.setter
    def world_set(self, value: WorldSet) -> None:
        """Replace the explicit world-set directly.

        This bypasses the write lock *and* the durable store's WAL — it is
        a test/demo convenience, not a logged write.  Durable sessions must
        mutate state through statements or the programmatic DML APIs.
        """
        if not isinstance(self.backend, ExplicitBackend):
            raise AnalysisError(
                "the wsd backend keeps no explicit world-set; "
                "use .decomposition instead")
        self.backend.world_set = value

    @property
    def decomposition(self) -> WorldSetDecomposition:
        """The compact world-set decomposition (wsd backend only)."""
        if not isinstance(self.backend, WsdBackend):
            raise AnalysisError(
                "the explicit backend keeps no decomposition; "
                "use .world_set instead")
        return self.backend.decomposition

    @decomposition.setter
    def decomposition(self, value: WorldSetDecomposition) -> None:
        if not isinstance(self.backend, WsdBackend):
            raise AnalysisError(
                "the explicit backend keeps no decomposition; "
                "use .world_set instead")
        self.backend.decomposition = value

    @property
    def views(self) -> dict[str, Query]:
        """Stored view definitions (name, lower-cased, to query AST)."""
        return self.backend.views

    @property
    def primary_keys(self) -> dict[str, list[str]]:
        """Declared primary keys (table name, lower-cased, to key columns)."""
        return self.backend.primary_keys

    # -- programmatic catalog management ------------------------------------------------------

    def _durable_write(self, action, record_builder, statement=None):
        """Run one write under the lock, logging it before the release.

        *action* mutates the backend; *record_builder* produces the redo
        record (built only when a store exists, and before the action, so
        a value the log cannot store is refused while nothing has
        changed).  Any failure — of the action or of the durable logging —
        releases without a generation bump: the write is not acknowledged.
        """
        with self.lock.write(timeout=self.write_timeout):
            if self.store is not None:
                self.store.check_writable()
                record = record_builder()
            result = action()
            if self.store is not None:
                self.store.log_commit(self.lock.generation + 1, record,
                                      statement=statement)
            return result

    def create_table(self, name: str, columns: Sequence[str | Column],
                     rows: Iterable[Sequence[Any]] = (),
                     primary_key: Sequence[str] | None = None) -> None:
        """Create a complete table in every current world (convenience API)."""
        rows = [tuple(row) for row in rows]
        self._durable_write(
            lambda: self.backend.create_table(name, columns, rows,
                                              primary_key),
            lambda: create_table_record(name, columns, rows, primary_key))

    def register_relation(self, relation: Relation,
                          name: str | None = None) -> None:
        """Add an existing relation object to every current world."""
        self._durable_write(
            lambda: self.backend.register_relation(relation, name),
            lambda: register_relation_record(relation,
                                             name or relation.name))

    def insert(self, table: str, rows: Iterable[Sequence[Any]]) -> int:
        """Insert rows into *table* in every world (checking declared keys)."""
        rows = [tuple(row) for row in rows]
        return self._durable_write(
            lambda: self.backend.insert(table, rows),
            lambda: insert_record(table, rows))

    def relation(self, name: str, world_label: str | None = None) -> Relation:
        """Return a relation from one world (the first world by default)."""
        with self.lock.read():
            return self.backend.relation(name, world_label)

    def world_count(self) -> int:
        """The number of possible worlds in the current state."""
        return self.backend.world_count()

    def table_names(self) -> list[str]:
        """The relation names present in the current state."""
        return self.backend.table_names()

    def view_names(self) -> list[str]:
        """The names of the stored views."""
        return self.backend.view_names()

    # -- statement execution --------------------------------------------------------------------

    @property
    def state_generation(self) -> int:
        """Completed writes on this session (the cache-invalidation key)."""
        return self.lock.generation

    def prepare(self, sql: str) -> PreparedStatement:
        """Compile *sql* once into a reusable :class:`PreparedStatement`.

        The statement is parsed (``?`` placeholders become positional
        parameters), classified read vs. write, and registered in the
        session's LRU statement cache; aggregate / grouping shape analysis
        compiles lazily on first execution and is reused afterwards.
        Repeated ``prepare`` calls with the same text return the same
        object.
        """
        cached = self.statement_cache.get(sql)
        if cached is not None:
            return cached
        statement, parameter_count = parse_prepared(sql)
        prepared = PreparedStatement(self.backend, self.lock, sql, statement,
                                     parameter_count, store=self.store,
                                     write_timeout=self.write_timeout)
        self.statement_cache.put(sql, prepared)
        return prepared

    def execute(self, sql: str,
                parameters: Optional[Sequence[Any]] = None,
                options: QueryOptions | dict | None = None
                ) -> StatementResult:
        """Execute a single I-SQL statement (with optional ``?`` arguments).

        Goes through the prepared-statement cache: repeating the same SQL
        text transparently reuses the compiled statement.  *options*
        carries per-request graceful-degradation overrides (``timeout_ms``,
        ``epsilon``, ``degradation``, ...); ``None`` inherits the session
        configuration.
        """
        return self.prepare(sql).execute(parameters or (), options)

    def execute_script(self, sql: str) -> list[StatementResult]:
        """Execute a semicolon-separated script; return all results.

        The script is split into individual statement texts first and each
        piece executes through the normal (prepared) path, so on a durable
        session every statement is its own commit — and its own replayable
        WAL record.
        """
        return [self.execute(piece) for piece in split_statements(sql)]

    def execute_statement(self, statement: Statement) -> StatementResult:
        """Execute an already-parsed statement on the active backend.

        A durable session logs writes as SQL text, which a parsed statement
        does not carry, so it refuses them here; use :meth:`execute`.
        """
        if statement_is_read(statement):
            with self.lock.read():
                return self.backend.execute_statement(statement)
        if self.store is not None:
            raise UnsupportedFeatureError(
                "a durable session logs writes as SQL text; execute the "
                "write with execute(sql) instead of execute_statement")
        return self._durable_write(
            lambda: self.backend.execute_statement(statement), None)

    # -- multi-process scale-out ----------------------------------------------------------------

    def apply_replicated(self, record: dict) -> int:
        """Apply one committed redo record replicated from the writer.

        The multi-process worker pool routes every write to the single
        writer process; the writer commits (WAL log-before-release) and
        replicates the redo record — tagged with the generation the commit
        published — to each reader worker, which replays it here.  The
        record applies under this session's write lock and must be the
        *next* generation: replication is a per-worker ordered stream, so a
        gap means a record was lost and the replica must not silently
        diverge.  Returns the new local generation; on success it equals
        ``record["g"]`` and every generation-keyed cache behaves exactly as
        if the write had run locally.
        """
        expected = record.get("g")
        with self.lock.write():
            if expected != self.lock.generation + 1:
                raise AnalysisError(
                    f"replicated record generation {expected} does not "
                    f"follow local generation {self.lock.generation} — "
                    "the replication stream lost a record")
            apply_record(self.backend, record)
        return self.lock.generation

    def disown_store(self) -> None:
        """Renounce durable-store ownership in a forked reader worker.

        Exactly one process — the writer — may own the WAL handle after a
        fork.  The worker closes its inherited duplicate without flushing
        (see :meth:`~repro.storage.store.DurableStore.disinherit`), drops
        the store so new prepared statements never try to log, and clears
        the statement cache, whose pre-fork entries still point at the
        disinherited store (their inherited mutex state would be stale
        across the fork anyway).  The process-wide compiled-plan cache is
        deliberately kept: plans are immutable pure functions of the AST,
        so the copy-on-write inherited entries stay valid and the worker's
        first request reuses them with zero warm-up.
        """
        if self.store is not None:
            self.store.disinherit()
            self.store = None
        self.statement_cache = StatementCache(self.statement_cache.capacity)

    # -- durability ----------------------------------------------------------------------------

    def checkpoint(self) -> int:
        """Snapshot the durable store now; returns the snapshot generation.

        Also rotates the WAL, so a subsequent reopen replays nothing.
        Requires a durable session (``data_dir=...``).
        """
        if self.store is None:
            raise AnalysisError(
                "checkpoint requires a durable session (pass data_dir=...)")
        return self.store.checkpoint()

    def durability_health(self) -> dict:
        """The durability block served under ``/health``."""
        if self.store is None:
            return {"enabled": False}
        return self.store.health()

    def close(self) -> None:
        """Flush and close the durable store (no-op for in-memory sessions)."""
        if self.store is not None:
            self.store.close()

    def __enter__(self) -> "MayBMS":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- introspection -------------------------------------------------------------------------------------------

    def describe(self, relation_names: Iterable[str] | None = None,
                 max_rows: int | None = None) -> str:
        """A printable dump of the current state (for demos and debugging)."""
        return self.backend.describe(relation_names, max_rows=max_rows)
