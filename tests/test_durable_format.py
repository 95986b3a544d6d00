"""The durable format holds JSON scalars and SQL text only.

Writes are logged as SQL text (or structured programmatic records) and
views are stored as their SQL, so opening a data directory never
deserialises Python objects.  Each refusal below pins one path of that
contract: a parsed statement cannot be logged, a non-scalar cell cannot be
stored, and the serialised-object records and cells of earlier formats are
refused on recovery with a clear error instead of being loaded.
"""

from __future__ import annotations

import glob
import json
import os
import sqlite3

import pytest

from repro import MayBMS
from repro.errors import RecoveryError, StorageError, UnsupportedFeatureError
from repro.serving.server import execute_request
from repro.sqlparser.parser import parse_statement
from repro.storage.codec import decode_value, encode_value
from repro.storage.wal import WriteAheadLog


def durable_session(directory):
    db = MayBMS(backend="wsd", data_dir=str(directory))
    db.execute("create table R (K, V);")
    db.execute("insert into R values (1, 10);")
    return db


def append_legacy_record(directory, record):
    """Append *record* as the next WAL record of a closed data directory."""
    path = sorted(glob.glob(os.path.join(directory, "wal-*.log")))[-1]
    base = int(os.path.basename(path)[4:20])
    scan = WriteAheadLog.scan_file(path, expected_base=base)
    wal = WriteAheadLog(path, base)
    wal.open_after_scan(scan)
    wal.append(scan.records[-1]["g"] + 1 if scan.records else base + 1,
               record)
    wal.close()


class TestDurableFormatRefusals:
    def test_durable_session_refuses_to_log_a_parsed_write(self, tmp_path):
        db = durable_session(tmp_path)
        generation = db.state_generation
        with pytest.raises(UnsupportedFeatureError):
            db.execute_statement(parse_statement("insert into R values (2, 20);"))
        # Reads need no log record and still run.
        result = db.execute_statement(
            parse_statement("select possible K from R;"))
        assert result.rows() == [(1,)]
        assert db.state_generation == generation
        db.close()

    def test_codec_refuses_a_non_scalar_cell(self):
        assert decode_value(encode_value(3.5)) == 3.5
        with pytest.raises(StorageError):
            encode_value((1, 2))

    def test_recovery_refuses_a_legacy_ast_record(self, tmp_path):
        durable_session(tmp_path).close()
        append_legacy_record(tmp_path, {"op": "ast", "data": "gASVAAAA"})
        with pytest.raises(RecoveryError, match="legacy format"):
            MayBMS(backend="wsd", data_dir=str(tmp_path))

    def test_recovery_refuses_a_legacy_serialised_cell(self, tmp_path):
        durable_session(tmp_path).close()
        append_legacy_record(tmp_path, {
            "op": "insert", "table": "R",
            "rows": [[["p", "gASVAAAA"], ["v", 20]]]})
        with pytest.raises(RecoveryError, match="legacy format"):
            MayBMS(backend="wsd", data_dir=str(tmp_path))

    def test_views_are_stored_as_sql_and_legacy_entries_refused(
            self, tmp_path):
        db = durable_session(tmp_path)
        db.execute("create view Big as select K from R where V > 5;")
        db.checkpoint()
        db.close()
        snapshot = sorted(glob.glob(os.path.join(tmp_path,
                                                 "snapshot-*.db")))[-1]
        connection = sqlite3.connect(snapshot)
        views = json.loads(connection.execute(
            "SELECT value FROM wsd_meta WHERE key = 'views'").fetchone()[0])
        assert views == {"big": {
            "sql": "create view Big as select K from R where V > 5;"}}
        reopened = MayBMS(backend="wsd", data_dir=str(tmp_path))
        assert reopened.execute("select possible K from Big;").rows() == \
            [(1,)]
        reopened.close()
        connection.execute(
            "UPDATE wsd_meta SET value = ? WHERE key = 'views'",
            (json.dumps({"big": {"pickle": "gASVAAAA"}}),))
        connection.commit()
        connection.close()
        with pytest.raises(StorageError, match="legacy format"):
            MayBMS(backend="wsd", data_dir=str(tmp_path))


class TestUnloggableWritesChangeNothing:
    """A write whose redo record cannot be stored is refused before it runs:
    the state, the generation and the recovered state all stay as before."""

    STATE = "select possible K, V from R;"

    def assert_unchanged(self, db, directory, generation):
        assert db.state_generation == generation
        assert db.execute(self.STATE).rows() == [(1, 10)]
        db.close()
        reopened = MayBMS(backend="wsd", data_dir=str(directory))
        assert reopened.state_generation == generation
        assert reopened.execute(self.STATE).rows() == [(1, 10)]
        reopened.close()

    def test_prepared_write_with_a_list_parameter(self, tmp_path):
        db = durable_session(tmp_path)
        generation = db.state_generation
        with pytest.raises(StorageError, match="non-scalar"):
            db.execute("update R set V = 1 where K <> ?;", ([1],))
        self.assert_unchanged(db, tmp_path, generation)

    def test_http_write_with_a_list_parameter(self, tmp_path):
        db = durable_session(tmp_path)
        generation = db.state_generation
        status, payload, _, committed = execute_request(
            db, "update R set V = 1 where K <> ?;", [[1]])
        assert (status, payload["type"], committed) == \
            (400, "StorageError", None)
        self.assert_unchanged(db, tmp_path, generation)

    def test_programmatic_insert_of_a_non_scalar_row(self, tmp_path):
        db = durable_session(tmp_path)
        generation = db.state_generation
        with pytest.raises(StorageError, match="non-scalar"):
            db.insert("R", [(2, {"v": 20})])
        self.assert_unchanged(db, tmp_path, generation)
