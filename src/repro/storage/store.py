"""The durable store: WAL + snapshots + crash recovery behind one object.

A :class:`DurableStore` owns one data directory::

    data_dir/
        snapshot-<generation>.db     # full state at <generation> (SQLite)
        wal-<generation>.log         # redo records following that snapshot
        *.tmp                        # in-flight atomic writes (ignored)

The commit protocol ("log-before-release") is driven by the session: a write
executes in memory first; if it succeeds, the session calls
:meth:`DurableStore.log_commit` with the record and the generation the write
is about to publish, *while still holding the write lock*; only then is the
lock released (which bumps the generation and acknowledges the write).  WAL
order is therefore exactly generation order, and replaying the log serially
reproduces the acknowledged history.

Failure semantics: any failure on the commit path — a real I/O error or an
injected crash — puts the store into the ``failed`` state.  The in-memory
state may then be ahead of the log, so every further write is refused with
:class:`~repro.errors.StorageError` (reads keep working); recovery happens
by reopening the data directory, which loads the newest valid snapshot,
replays the WAL tail and truncates any torn trailing record.
"""

from __future__ import annotations

import os
import re
import threading
from dataclasses import dataclass

from ..errors import RecoveryError, StorageError
from ..relational.expressions import bound_parameters
from ..relational.relation import Relation
from ..relational.schema import Schema
from ..sqlparser.ast_nodes import CreateView, DropView, Statement
from ..sqlparser.parser import parse_prepared
from .codec import (
    decode_columns,
    decode_row,
    encode_columns,
    encode_row,
)
from .faultinject import FaultInjector
from .snapshot import load_snapshot, write_snapshot
from .wal import WriteAheadLog, _fsync_directory

__all__ = ["DurabilityConfig", "DurableStore", "RecoveryReport",
           "apply_record", "sql_record", "create_table_record",
           "register_relation_record", "insert_record"]

_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{16})\.db$")
_WAL_RE = re.compile(r"^wal-(\d{16})\.log$")


@dataclass(frozen=True)
class DurabilityConfig:
    """The store's two knobs (see README "Durability & recovery").

    ``fsync``
        fsync the WAL after every commit (the default).  ``False`` trades
        the power-cut guarantee for speed: commits still reach the OS page
        cache (surviving process crashes, including ``kill -9``), but a
        machine crash may lose a suffix of acknowledged writes.
    ``snapshot_every``
        take a snapshot (and rotate the WAL) after this many logged
        records; ``None`` disables automatic snapshots — recovery then
        replays the whole log, and snapshots only happen via
        :meth:`DurableStore.checkpoint`.
    ``keep_snapshots``
        how many newest snapshot files to keep on disk after rotation.
    """

    fsync: bool = True
    snapshot_every: int | None = 256
    keep_snapshots: int = 2

    @classmethod
    def coerce(cls, value: "DurabilityConfig | dict | None"
               ) -> "DurabilityConfig":
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, dict):
            return cls(**value)
        raise StorageError(
            f"cannot interpret {value!r} as a durability configuration")


@dataclass
class RecoveryReport:
    """What opening a data directory found and did."""

    #: Generation of the snapshot that was loaded (0 on bootstrap).
    snapshot_generation: int
    #: WAL records replayed on top of the snapshot.
    replayed_records: int
    #: The generation the session resumes at.
    recovered_generation: int
    #: Bytes of torn/corrupt trailing WAL truncated away (0 = clean tail).
    truncated_bytes: int = 0
    #: Why the tail was truncated, when it was.
    truncated_reason: str | None = None
    #: True when the directory was empty and freshly initialised.
    bootstrapped: bool = False


# -- record builders (the logical redo vocabulary) --------------------------------------------


def sql_record(sql: str, parameters: tuple = ()) -> dict:
    """A committed I-SQL statement (the prepared-statement write path)."""
    record = {"op": "sql", "sql": sql}
    if parameters:
        record["params"] = encode_row(parameters)
    return record


def create_table_record(name: str, columns, rows: list,
                        primary_key) -> dict:
    return {"op": "create_table", "name": name,
            "columns": encode_columns(columns),
            "rows": [encode_row(row) for row in rows],
            "primary_key": list(primary_key) if primary_key else None}


def register_relation_record(relation: Relation, name: str) -> dict:
    return {"op": "register_relation", "name": name,
            "columns": encode_columns(list(relation.schema)),
            "rows": [encode_row(row) for row in relation.rows]}


def insert_record(table: str, rows: list) -> dict:
    return {"op": "insert", "table": table,
            "rows": [encode_row(row) for row in rows]}


def apply_record(backend, record: dict) -> Statement | None:
    """Re-execute one redo record against *backend*; returns the statement.

    This is the shared redo interpreter: crash recovery replays WAL records
    through it, and the multi-process serving layer replays writer->worker
    replication records through it — the two streams share the same record
    vocabulary, so a replicated statement applies exactly as a recovered
    one.  Returns the parsed statement for ``sql`` records (so callers can
    observe view DDL) and ``None`` for structured programmatic ops.  The
    ``ast`` records of earlier formats (serialised statement objects) are
    refused.
    """
    op = record.get("op")
    try:
        if op == "sql":
            statement, _ = parse_prepared(record["sql"])
            parameters = decode_row(record.get("params", []))
            with bound_parameters(parameters):
                backend.execute_statement(statement)
            return statement
        if op == "ast":
            raise RecoveryError(
                f"record g={record.get('g')} is an 'ast' record (a "
                "serialised statement object, a legacy format) and cannot "
                "be replayed; rebuild the data directory")
        if op == "create_table":
            backend.create_table(
                record["name"], decode_columns(record["columns"]),
                [decode_row(row) for row in record["rows"]],
                record.get("primary_key"))
            return None
        if op == "register_relation":
            columns = decode_columns(record["columns"])
            relation = Relation(
                Schema(columns),
                [decode_row(row) for row in record["rows"]],
                name=record["name"])
            backend.register_relation(relation, record["name"])
            return None
        if op == "insert":
            backend.insert(
                record["table"],
                [decode_row(row) for row in record["rows"]])
            return None
        raise RecoveryError(f"unknown WAL record op {op!r}")
    except RecoveryError:
        raise
    except Exception as error:
        raise RecoveryError(
            f"replaying record g={record.get('g')} op={op!r} failed: "
            f"{error}") from error


# -- the store --------------------------------------------------------------------------------


class DurableStore:
    """WAL + snapshots + recovery for one session's data directory."""

    def __init__(self, data_dir: str, config: DurabilityConfig | dict | None
                 = None, injector: FaultInjector | None = None) -> None:
        self.data_dir = str(data_dir)
        self.config = DurabilityConfig.coerce(config)
        self.injector = injector or FaultInjector()
        #: ``"closed"`` -> ``"open"`` -> (``"failed"`` | ``"closed"``).
        self.state = "closed"
        self.backend = None
        self.lock = None
        self.wal: WriteAheadLog | None = None
        #: Replayable view registry (lower-cased name -> ``{"sql"}``): what
        #: snapshots store instead of parsed ASTs.
        self.view_sql: dict[str, dict] = {}
        self.snapshot_generation = 0
        self._records_since_snapshot = 0
        self._snapshot_mutex = threading.Lock()

    # -- directory state ----------------------------------------------------------------

    @staticmethod
    def has_state_at(data_dir: str) -> bool:
        """True when *data_dir* already holds a snapshot or WAL."""
        try:
            names = os.listdir(str(data_dir))
        except FileNotFoundError:
            return False
        return any(_SNAPSHOT_RE.match(name) or _WAL_RE.match(name)
                   for name in names)

    def has_state(self) -> bool:
        return self.has_state_at(self.data_dir)

    def _listed(self, pattern: re.Pattern) -> list[tuple[int, str]]:
        found = []
        for name in os.listdir(self.data_dir):
            match = pattern.match(name)
            if match:
                found.append((int(match.group(1)),
                              os.path.join(self.data_dir, name)))
        return sorted(found)

    # -- opening (bootstrap or recovery) -------------------------------------------------

    def open(self, backend, lock) -> RecoveryReport:
        """Bootstrap an empty directory or recover an existing one.

        On recovery the newest valid snapshot is loaded into *backend*, the
        WAL tail replayed (torn trailing records truncated, never fatal)
        and ``lock.generation`` set to the recovered generation, so the
        session resumes exactly where the acknowledged history ended.
        """
        os.makedirs(self.data_dir, exist_ok=True)
        self.backend = backend
        self.lock = lock
        for name in os.listdir(self.data_dir):
            if name.endswith(".tmp"):
                os.remove(os.path.join(self.data_dir, name))
        snapshots = self._listed(_SNAPSHOT_RE)
        wals = self._listed(_WAL_RE)
        if not snapshots and not wals:
            return self._bootstrap()
        if not snapshots:
            raise RecoveryError(
                f"{self.data_dir}: WAL files without any snapshot — "
                "not a recoverable data directory")
        snapshot_gen, snapshot_path = snapshots[-1]
        stored_gen, view_sql = load_snapshot(snapshot_path, backend)
        if stored_gen != snapshot_gen:
            raise RecoveryError(
                f"{snapshot_path}: stored generation {stored_gen} does not "
                f"match the file name")
        self.view_sql = dict(view_sql)
        self.snapshot_generation = snapshot_gen
        current = snapshot_gen
        replayed = 0
        last_scan = None
        last_wal = None
        for index, (base, path) in enumerate(wals):
            scan = WriteAheadLog.scan_file(path, expected_base=base)
            is_last = index == len(wals) - 1
            if scan.torn_reason is not None and not is_last:
                raise RecoveryError(
                    f"{path}: corrupt record ({scan.torn_reason}) in a "
                    "non-trailing WAL — crash damage can only be trailing")
            for record in scan.records:
                generation = record["g"]
                if generation <= current:
                    # Already covered by the snapshot (the WAL survived a
                    # crash between snapshot rename and rotation).
                    continue
                if generation != current + 1:
                    raise RecoveryError(
                        f"{path}: generation gap — expected {current + 1}, "
                        f"found {generation}")
                self._apply_record(record)
                current = generation
                replayed += 1
            if is_last:
                last_scan = scan
                last_wal = (base, path)
        if last_wal is None:
            # Snapshot but no WAL: a crash between bootstrap's snapshot and
            # its WAL creation; just create the missing log.
            self.wal = WriteAheadLog.create(
                self.data_dir, current, fsync=self.config.fsync,
                injector=self.injector)
            truncated_bytes, truncated_reason = 0, None
        else:
            base, path = last_wal
            self.wal = WriteAheadLog(path, base, fsync=self.config.fsync,
                                     injector=self.injector)
            self.wal.open_after_scan(last_scan)
            truncated_bytes = last_scan.torn_bytes
            truncated_reason = last_scan.torn_reason
        lock.generation = current
        self._records_since_snapshot = current - snapshot_gen
        self.state = "open"
        return RecoveryReport(snapshot_gen, replayed, current,
                              truncated_bytes, truncated_reason)

    def _bootstrap(self) -> RecoveryReport:
        generation = self.lock.generation
        write_snapshot(self.data_dir, generation, self.backend,
                       self.view_sql, injector=self.injector)
        self.wal = WriteAheadLog.create(self.data_dir, generation,
                                        fsync=self.config.fsync,
                                        injector=self.injector)
        self.snapshot_generation = generation
        self.state = "open"
        return RecoveryReport(generation, 0, generation, bootstrapped=True)

    # -- the commit path ---------------------------------------------------------------------

    def check_writable(self) -> None:
        """Refuse writes unless the store is open (called pre-execution)."""
        if self.state != "open":
            raise StorageError(
                f"the durable store is {self.state}; writes are refused — "
                "reopen the data directory to recover")

    def log_commit(self, generation: int, record: dict,
                   statement: Statement | None = None) -> None:
        """Durably log one committed write (under the session write lock).

        Called after the in-memory execution succeeded and before the lock
        is released, with *generation* = the generation the release will
        publish.  Any failure (including injected crashes) moves the store
        to ``failed`` and re-raises: the write must not be acknowledged.
        """
        self.check_writable()
        try:
            self._observe_statement(statement, record)
            self.wal.append(generation, record)
            self._records_since_snapshot += 1
            if (self.config.snapshot_every is not None
                    and self._records_since_snapshot
                    >= self.config.snapshot_every):
                self._snapshot_now(generation)
        except BaseException:
            self.state = "failed"
            raise

    def _observe_statement(self, statement: Statement | None,
                           record: dict) -> None:
        """Keep the replayable view registry in sync with view DDL (always
        an unparameterised ``sql`` record: the parser refuses ``?`` in
        CREATE VIEW)."""
        if isinstance(statement, CreateView):
            self.view_sql[statement.name.lower()] = {"sql": record["sql"]}
        elif isinstance(statement, DropView):
            self.view_sql.pop(statement.name.lower(), None)

    # -- snapshots ----------------------------------------------------------------------------

    def _snapshot_now(self, generation: int) -> None:
        """Write a snapshot and rotate the WAL (state must be quiescent)."""
        with self._snapshot_mutex:
            write_snapshot(self.data_dir, generation, self.backend,
                           self.view_sql, injector=self.injector)
            self.snapshot_generation = generation
            self._rotate_wal(generation)
            self._records_since_snapshot = 0

    def _rotate_wal(self, generation: int) -> None:
        old = self.wal
        self.wal = WriteAheadLog.create(self.data_dir, generation,
                                        fsync=self.config.fsync,
                                        injector=self.injector)
        if old is not None and old.path != self.wal.path:
            old.close()
        for _, path in self._listed(_WAL_RE):
            if path != self.wal.path:
                os.remove(path)
        snapshots = self._listed(_SNAPSHOT_RE)
        keep = max(1, self.config.keep_snapshots)
        for _, path in snapshots[:-keep]:
            os.remove(path)
        _fsync_directory(self.data_dir)

    def checkpoint(self) -> int:
        """Snapshot the current state now; returns the snapshot generation.

        Takes the session lock in *read* mode — readers may continue, but
        writers are excluded, so the serialised state is one consistent
        generation.  Must not be called while already holding the lock.
        """
        self.check_writable()
        self.lock.acquire_read()
        try:
            generation = self.lock.generation
            try:
                self._snapshot_now(generation)
            except BaseException:
                self.state = "failed"
                raise
        finally:
            self.lock.release_read()
        return generation

    # -- replay -------------------------------------------------------------------------------

    def _apply_record(self, record: dict) -> None:
        """Re-execute one redo record against the backend (recovery only)."""
        statement = apply_record(self.backend, record)
        if statement is not None:
            self._observe_statement(statement, record)

    # -- observability and lifecycle ----------------------------------------------------------

    def health(self) -> dict:
        """The durability block of the serving layer's ``/health`` answer."""
        return {
            "enabled": True,
            "state": self.state,
            "data_dir": self.data_dir,
            "synced_generation": (self.wal.synced_generation
                                  if self.wal is not None else None),
            "snapshot_generation": self.snapshot_generation,
            "wal_records_since_snapshot": self._records_since_snapshot,
            "wal_bytes": self.wal.size_bytes if self.wal is not None else 0,
            "fsync": self.config.fsync,
            "snapshot_every": self.config.snapshot_every,
        }

    def close(self) -> None:
        """Flush and close the WAL; the directory recovers instantly."""
        if self.wal is not None:
            self.wal.close()
        if self.state == "open":
            self.state = "closed"

    def disinherit(self) -> None:
        """Release the store in a forked reader worker, touching no disk.

        After a pre-fork worker pool forks, exactly one process — the
        writer — may own the WAL handle and take snapshots; a reader worker
        that flushed, fsync'd or rotated the inherited handle would corrupt
        the log it shares with the writer.  The worker therefore *disowns*
        the handle (closing its duplicated descriptor without flushing;
        safe because forks happen under the write lock with the WAL buffer
        empty) and moves to ``closed``, so ``check_writable`` refuses any
        stray local write.  SQLite snapshot connections need no handling:
        they are opened per ``write_snapshot``/``load_snapshot`` call and
        never live across a fork.
        """
        if self.wal is not None:
            self.wal.disown()
            self.wal = None
        self.state = "closed"
