"""Snapshots: the full session state serialised into one SQLite file.

A snapshot captures everything recovery needs at one generation — for the
wsd backend the full decomposition (schemas, template tuples, components,
alternatives), for the explicit backend the world-set — plus the stored
views and declared primary keys.  **Plain relations** (all-constant,
presence-free template tuples whose values are native SQLite classes) are
written as real SQL tables via :mod:`repro.relational.sqlite_io`, so a
snapshot doubles as an ordinary database external tools can inspect; only
genuinely uncertain tuples go into the JSON-encoded ``wsd_template`` table.

Snapshots are written atomically: everything lands in a ``.tmp`` sibling
first, which is fsync'd and then renamed over the final
``snapshot-<generation>.db`` name (followed by a directory fsync).  Recovery
ignores ``.tmp`` files entirely, so a crash at any point of the write leaves
either the old snapshot set or the old set plus one complete new file —
never a half-readable snapshot under a real name.
"""

from __future__ import annotations

import json
import os
import sqlite3

from ..errors import StorageError
from ..relational.catalog import Catalog
from ..relational.relation import Relation
from ..relational.schema import Column, Schema
from ..relational.types import SqlType
from ..relational.sqlite_io import relation_from_sqlite, relation_to_sqlite
from ..wsd.component import Alternative, Component
from ..wsd.decomposition import Template, TemplateTuple, WorldSetDecomposition
from ..wsd.fields import Field
from .codec import (
    decode_cell,
    decode_field,
    decode_row,
    encode_cell,
    encode_field,
    encode_row,
)
from .faultinject import FaultInjector
from .wal import _fsync_directory

__all__ = ["snapshot_file_name", "write_snapshot", "load_snapshot"]

SNAPSHOT_FORMAT = "1"

#: Table-name prefixes a plain relation must not collide with.
_RESERVED_PREFIXES = ("wsd_", "explicit_", "sqlite_")


def snapshot_file_name(generation: int) -> str:
    """The canonical file name of the snapshot at *generation*."""
    return f"snapshot-{generation:016d}.db"


# -- writing ----------------------------------------------------------------------------------


def write_snapshot(directory: str, generation: int, backend,
                   view_sql: dict, injector: FaultInjector | None = None
                   ) -> str:
    """Atomically write the full state of *backend* at *generation*.

    *view_sql* is the store's replayable view registry (name -> ``{"sql"}``
    entry) — the backend's ``views`` dict holds parsed
    ASTs, which are not round-trippable as text.  Returns the final path.
    """
    injector = injector or FaultInjector()
    final = os.path.join(directory, snapshot_file_name(generation))
    tmp = final + ".tmp"
    if os.path.exists(tmp):
        os.remove(tmp)
    connection = sqlite3.connect(tmp)
    try:
        # The rename is the commit point; the tmp file needs no rollback
        # journal of its own.
        connection.execute("PRAGMA journal_mode=MEMORY")
        _write_meta(connection, generation, backend, view_sql)
        # Make the partial state visible on disk before the injectable
        # mid-write crash, so the test exercises a genuinely partial file.
        connection.commit()
        injector.fire("snapshot.mid-write")
        if backend.name == "wsd":
            _write_wsd(connection, backend)
        else:
            _write_explicit(connection, backend)
        connection.commit()
    finally:
        connection.close()
    fd = os.open(tmp, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
    injector.fire("snapshot.pre-rename")
    os.replace(tmp, final)
    _fsync_directory(directory)
    injector.fire("snapshot.post-rename")
    return final


def _write_meta(connection: sqlite3.Connection, generation: int, backend,
                view_sql: dict) -> None:
    connection.execute(
        "CREATE TABLE wsd_meta (key TEXT PRIMARY KEY, value TEXT)")
    rows = [
        ("format", SNAPSHOT_FORMAT),
        ("backend", backend.name),
        ("generation", str(generation)),
        ("views", json.dumps(view_sql)),
        ("primary_keys", json.dumps(backend.primary_keys)),
    ]
    connection.executemany("INSERT INTO wsd_meta VALUES (?, ?)", rows)


def _plain_cell_ok(value, sql_type: SqlType) -> bool:
    """True when *value* survives an SQLite column of *sql_type* exactly."""
    if value is None:
        return True
    if isinstance(value, bool):
        return sql_type is SqlType.BOOLEAN
    if isinstance(value, int):
        return (sql_type in (SqlType.INTEGER, SqlType.ANY)
                and -(2 ** 63) <= value < 2 ** 63)
    if isinstance(value, float):
        # SQLite stores NaN as NULL — not an exact round-trip.
        return (sql_type in (SqlType.REAL, SqlType.ANY)
                and value == value)
    if isinstance(value, str):
        return sql_type in (SqlType.TEXT, SqlType.ANY)
    return False


def _plain_relations(template: Template) -> set[str]:
    """Relations whose tuples can live in real SQLite tables losslessly."""
    plain = set()
    for name, schema in template.schemas.items():
        if name.lower().startswith(_RESERVED_PREFIXES):
            continue
        tuples = template.relation_tuples(name)
        if all(tuple_.presence is None
               and all(not isinstance(cell, Field)
                       and _plain_cell_ok(cell, column.type)
                       for cell, column in zip(tuple_.cells, schema))
               for tuple_ in tuples):
            plain.add(name)
    return plain


def _write_wsd(connection: sqlite3.Connection, backend) -> None:
    decomposition = backend.decomposition
    template = decomposition.template
    connection.execute(
        "INSERT INTO wsd_meta VALUES ('schema_order', ?)",
        (json.dumps(list(template.schemas)),))
    connection.execute(
        "CREATE TABLE wsd_schemas (relation TEXT, position INTEGER, "
        "name TEXT, type TEXT, qualifier TEXT)")
    for relation, schema in template.schemas.items():
        connection.executemany(
            "INSERT INTO wsd_schemas VALUES (?, ?, ?, ?, ?)",
            [(relation, position, column.name, column.type.value,
              column.qualifier)
             for position, column in enumerate(schema)])
    connection.execute(
        "CREATE TABLE wsd_template (position INTEGER PRIMARY KEY, "
        "tuple_id INTEGER, relation TEXT, cells TEXT, presence TEXT)")
    connection.execute(
        "CREATE TABLE wsd_plain (relation TEXT PRIMARY KEY, positions TEXT)")
    plain = _plain_relations(template)
    plain_rows: dict[str, list] = {name: [] for name in plain}
    plain_positions: dict[str, list] = {name: [] for name in plain}
    for position, tuple_ in enumerate(template.tuples):
        if tuple_.relation in plain:
            plain_rows[tuple_.relation].append(tuple_.cells)
            plain_positions[tuple_.relation].append(
                [position, tuple_.tuple_id])
        else:
            connection.execute(
                "INSERT INTO wsd_template VALUES (?, ?, ?, ?, ?)",
                (position, tuple_.tuple_id, tuple_.relation,
                 json.dumps([encode_cell(cell) for cell in tuple_.cells]),
                 None if tuple_.presence is None
                 else json.dumps(encode_field(tuple_.presence))))
    for name in plain:
        relation = Relation(template.schemas[name], plain_rows[name],
                            name=name)
        relation_to_sqlite(relation, connection, table_name=name,
                           commit=False)
        connection.execute("INSERT INTO wsd_plain VALUES (?, ?)",
                           (name, json.dumps(plain_positions[name])))
    connection.execute(
        "CREATE TABLE wsd_components (component_id INTEGER PRIMARY KEY, "
        "fields TEXT)")
    connection.execute(
        "CREATE TABLE wsd_alternatives (component_id INTEGER, "
        "position INTEGER, vals TEXT, probability REAL, "
        "PRIMARY KEY (component_id, position))")
    for component_id, component in enumerate(decomposition.components):
        connection.execute(
            "INSERT INTO wsd_components VALUES (?, ?)",
            (component_id,
             json.dumps([encode_field(f) for f in component.fields])))
        connection.executemany(
            "INSERT INTO wsd_alternatives VALUES (?, ?, ?, ?)",
            [(component_id, position, json.dumps(encode_row(alt.values)),
              alt.probability)
             for position, alt in enumerate(component.alternatives)])


def _write_explicit(connection: sqlite3.Connection, backend) -> None:
    connection.execute(
        "CREATE TABLE explicit_worlds (position INTEGER PRIMARY KEY, "
        "label TEXT, probability REAL)")
    connection.execute(
        "CREATE TABLE explicit_relations (world_position INTEGER, "
        "position INTEGER, name TEXT, columns TEXT, rows TEXT)")
    for world_position, world in enumerate(backend.world_set.worlds):
        connection.execute(
            "INSERT INTO explicit_worlds VALUES (?, ?, ?)",
            (world_position, world.label, world.probability))
        for position, name in enumerate(world.catalog.names()):
            relation = world.catalog.get(name)
            columns = [[column.name, column.type.value, column.qualifier]
                       for column in relation.schema]
            rows = [encode_row(row) for row in relation.rows]
            connection.execute(
                "INSERT INTO explicit_relations VALUES (?, ?, ?, ?, ?)",
                (world_position, position, name, json.dumps(columns),
                 json.dumps(rows)))


# -- loading ----------------------------------------------------------------------------------


def load_snapshot(path: str, backend) -> tuple[int, dict]:
    """Load the snapshot at *path* into *backend*.

    Returns ``(generation, view_sql)``.  Raises :class:`StorageError` when
    the file fails its integrity check or was written for a different
    backend — recovery treats that as unrecoverable corruption, not as a
    torn tail.
    """
    connection = sqlite3.connect(path)
    try:
        try:
            check = connection.execute("PRAGMA quick_check").fetchone()
        except sqlite3.DatabaseError as error:
            raise StorageError(f"snapshot {path}: {error}") from error
        if not check or check[0] != "ok":
            raise StorageError(
                f"snapshot {path}: integrity check failed ({check})")
        meta = dict(connection.execute(
            "SELECT key, value FROM wsd_meta").fetchall())
        if meta.get("format") != SNAPSHOT_FORMAT:
            raise StorageError(
                f"snapshot {path}: unsupported format {meta.get('format')!r}")
        if meta.get("backend") != backend.name:
            raise StorageError(
                f"snapshot {path} was written by the {meta.get('backend')!r} "
                f"backend; this session runs {backend.name!r}")
        generation = int(meta["generation"])
        view_sql = json.loads(meta.get("views", "{}"))
        if backend.name == "wsd":
            _load_wsd(connection, backend, meta)
        else:
            _load_explicit(connection, backend)
        backend.primary_keys.clear()
        backend.primary_keys.update(json.loads(meta.get("primary_keys", "{}")))
        _install_views(backend, view_sql)
        return generation, view_sql
    finally:
        connection.close()


def _load_wsd(connection: sqlite3.Connection, backend, meta: dict) -> None:
    template = Template()
    schema_order = json.loads(meta.get("schema_order", "[]"))
    schema_rows = connection.execute(
        "SELECT relation, position, name, type, qualifier FROM wsd_schemas "
        "ORDER BY relation, position").fetchall()
    columns_by_relation: dict[str, list] = {}
    for relation, position, name, type_name, qualifier in schema_rows:
        columns_by_relation.setdefault(relation, []).append(
            (position, Column(name, SqlType(type_name), qualifier)))
    for relation in schema_order:
        columns = [column for _, column
                   in sorted(columns_by_relation.get(relation, []))]
        template.add_relation(relation, Schema(columns))
    tuples_by_position: dict[int, TemplateTuple] = {}
    for position, tuple_id, relation, cells, presence in connection.execute(
            "SELECT position, tuple_id, relation, cells, presence "
            "FROM wsd_template"):
        decoded = tuple(decode_cell(cell) for cell in json.loads(cells))
        presence_field = (None if presence is None
                          else decode_field(json.loads(presence)))
        tuples_by_position[position] = TemplateTuple(
            relation, tuple_id, decoded, presence_field)
    for relation, positions in connection.execute(
            "SELECT relation, positions FROM wsd_plain"):
        stored = relation_from_sqlite(connection, relation, ordered=True)
        for (position, tuple_id), row in zip(json.loads(positions),
                                             stored.rows):
            tuples_by_position[position] = TemplateTuple(
                relation, tuple_id, tuple(row), None)
    template.tuples.extend(
        tuples_by_position[position]
        for position in sorted(tuples_by_position))
    fields_by_component = dict(connection.execute(
        "SELECT component_id, fields FROM wsd_components").fetchall())
    alternatives_by_component: dict[int, list] = {}
    for component_id, position, vals, probability in connection.execute(
            "SELECT component_id, position, vals, probability "
            "FROM wsd_alternatives ORDER BY component_id, position"):
        alternatives_by_component.setdefault(component_id, []).append(
            Alternative(decode_row(json.loads(vals)), probability))
    components = [
        Component([decode_field(f)
                   for f in json.loads(fields_by_component[component_id])],
                  alternatives_by_component[component_id])
        for component_id in sorted(fields_by_component)]
    backend.decomposition = WorldSetDecomposition(template, components)


def _load_explicit(connection: sqlite3.Connection, backend) -> None:
    from ..worldset.world import World
    from ..worldset.worldset import WorldSet

    relations_by_world: dict[int, list] = {}
    for world_position, position, name, columns, rows in connection.execute(
            "SELECT world_position, position, name, columns, rows "
            "FROM explicit_relations ORDER BY world_position, position"):
        schema = Schema([Column(column_name, SqlType(type_name), qualifier)
                         for column_name, type_name, qualifier
                         in json.loads(columns)])
        relation = Relation(schema, [decode_row(row)
                                     for row in json.loads(rows)], name=name)
        relations_by_world.setdefault(world_position, []).append(
            (name, relation))
    worlds = []
    for world_position, label, probability in connection.execute(
            "SELECT position, label, probability FROM explicit_worlds "
            "ORDER BY position"):
        catalog = Catalog()
        for name, relation in relations_by_world.get(world_position, []):
            catalog.create(name, relation)
        worlds.append(World(catalog, probability, label))
    backend.world_set = WorldSet(worlds)


def _install_views(backend, view_sql: dict) -> None:
    from ..sqlparser.parser import parse_statement

    backend.views.clear()
    for name, entry in view_sql.items():
        if "sql" not in entry:
            raise StorageError(
                f"view {name!r} is stored as a serialised object (a legacy "
                "format) and cannot be read; rebuild the data directory")
        backend.views[name] = parse_statement(entry["sql"]).query
