"""Regression tests: relation-scoped grounding-cache invalidation under DML.

The wsd backend memoises symbolic groundings per relation, keyed on
``(relation version, name)`` (``WSDExecutor._ground``,
``WorldSetDecomposition.versions``).  In-place DML on a certain relation
renews only that relation's version, so a write to ``Obs`` must leave the
grounding of every other relation (``I``) cached; any *derived*
decomposition (install, ``assert``, decorations, views, recovery) starts with
fresh versions for every relation, so its groundings can never be served for
another state.  The shared cache holds only the current state: a miss evicts
every superseded version.  A stale entry would silently serve rows from a
previous database state — these tests interleave every DML statement kind
with repeated queries and assert the answers (against the explicit backend
and against serial replay) and the exact hit / miss / eviction counts, so a
future executor refactor can neither re-introduce staleness nor go back to
re-grounding untouched relations.
"""

from __future__ import annotations

import pytest

from repro import MayBMS
from repro.sqlparser import parse_statement
from repro.storage.store import sql_record


def fresh_session() -> MayBMS:
    db = MayBMS(backend="wsd")
    db.create_table("R", ["K", "V", "W"],
                    rows=[(0, 1, 1), (0, 2, 1), (1, 3, 2), (1, 4, 2)])
    return db


def rows(db: MayBMS, query: str) -> list[tuple]:
    return sorted(db.execute(query).rows())


#: ``I`` is uncertain (a weighted key repair of ``R``), ``Obs`` is certain
#: and takes every write — the shape of the benchmark's mixed workload.
SETUP = [
    "create table R (K integer, V integer, W integer);",
    "insert into R values (0, 1, 1), (0, 2, 1), (1, 3, 2), (1, 4, 2), "
    "(2, 5, 1), (2, 6, 3);",
    "create table I as select K, V from R repair by key K weight W;",
    "create table Obs (K integer, V integer);",
    "insert into Obs values (0, 10), (1, 11);",
]
I_ONLY = "select conf, K, V from I;"
JOIN = "select conf, I.K, I.V, Obs.V from I, Obs where I.K = Obs.K;"
OBS_WRITES = [
    "insert into Obs values (2, 12);",
    "update Obs set V = V + 1 where K = 1;",
    "delete from Obs where K = 0;",
]


def obs_write(step: int) -> str:
    """An endless insert / update / delete cycle that keeps ``Obs`` small."""
    key = step // 3 % 3
    if step % 3 == 0:
        return f"insert into Obs values ({key}, {100 + step});"
    if step % 3 == 1:
        return f"update Obs set V = V + 1 where K = {key};"
    return f"delete from Obs where K = {key} and V >= 100;"


def session(backend: str = "wsd", **kwargs) -> MayBMS:
    db = MayBMS(backend=backend, **kwargs)
    for statement in SETUP:
        db.execute(statement)
    return db


def canonical(db: MayBMS, query: str) -> list[tuple]:
    return sorted(tuple(round(value, 9) if isinstance(value, float) else value
                        for value in row) for row in db.execute(query).rows())


class TestVersionKeyedCache:
    def test_repeated_queries_hit_only_while_unchanged(self):
        db = fresh_session()
        query = "select possible V from R;"
        db.execute(query)
        misses = db.backend.stats.ground_cache_misses
        hits = db.backend.stats.ground_cache_hits
        db.execute(query)
        db.execute(query)
        assert db.backend.stats.ground_cache_misses == misses
        assert db.backend.stats.ground_cache_hits == hits + 2

    def test_insert_invalidates_and_answers_fresh(self):
        db = fresh_session()
        assert rows(db, "select possible V from R;") == \
            [(1,), (2,), (3,), (4,)]
        version = db.decomposition.versions["R"]
        db.execute("insert into R values (2, 9, 1);")
        assert db.decomposition.versions["R"] != version
        assert (9,) in rows(db, "select possible V from R;")
        # The fresh version missed, then re-cached.
        misses = db.backend.stats.ground_cache_misses
        db.execute("select possible V from R;")
        assert db.backend.stats.ground_cache_misses == misses

    def test_delete_and_update_invalidate(self):
        db = fresh_session()
        db.execute("create table I as select K, V from R repair by key K;")
        assert rows(db, "select possible V from I;") == \
            [(1,), (2,), (3,), (4,)]
        db.execute("delete from R where V = 1;")
        db.execute("update R set V = 30 where V = 3;")
        # I was derived before the DML and must be unaffected...
        assert rows(db, "select possible V from I;") == \
            [(1,), (2,), (3,), (4,)]
        # ...while R reflects both statements immediately.
        assert rows(db, "select possible V from R;") == [(2,), (4,), (30,)]
        # Re-deriving I picks up the new base state.
        db.execute("create table I as select K, V from R repair by key K;")
        assert rows(db, "select possible V from I;") == [(2,), (4,), (30,)]

    def test_interleaved_dml_never_serves_stale_answers(self):
        """DML (insert / delete) interleaved with repeated queries; every
        answer reflects the current state, hits happen only between repeats
        over an unchanged relation version."""
        db = fresh_session()
        query = "select possible V from R;"
        expected = {1, 2, 3, 4}
        assert {row[0] for row in rows(db, query)} == expected
        for value in (10, 11, 12):
            db.execute(f"insert into R values (2, {value}, 1);")
            expected.add(value)
            before_hits = db.backend.stats.ground_cache_hits
            before_misses = db.backend.stats.ground_cache_misses
            assert {row[0] for row in rows(db, query)} == expected
            assert db.backend.stats.ground_cache_misses > before_misses, \
                "DML must invalidate the grounding cache"
            # An immediate repeat hits the refreshed entry.
            assert {row[0] for row in rows(db, query)} == expected
            assert db.backend.stats.ground_cache_hits > before_hits
        db.execute("delete from R where V >= 10;")
        assert {row[0] for row in rows(db, query)} == {1, 2, 3, 4}

    def test_assert_conditioning_does_not_poison_the_cache(self):
        """A query-local ``assert`` derives a *conditioned* working copy; its
        groundings must never be served for the unconditioned session state
        (derived decompositions carry fresh versions)."""
        db = fresh_session()
        db.execute("create table I as select K, V from R repair by key K;")
        unconditioned = rows(db, "select possible V from I;")
        conditioned = rows(
            db, "select possible V from I "
            "assert not exists(select * from I where V = 1);")
        assert (1,) in unconditioned
        assert (1,) not in conditioned
        # Re-running the unconditioned query still sees the full state.
        assert rows(db, "select possible V from I;") == unconditioned

    def test_cross_statement_sharing_respects_versions(self):
        """The cache is shared across executors (one per statement) through
        the backend; versions key it, so two different derived states never
        collide even within one statement sequence."""
        db = fresh_session()
        db.execute("create table I as select K, V from R repair by key K;")
        first = rows(db, "select conf, V from I;")
        db.execute("insert into R values (3, 7, 1);")
        db.execute("create table I as select K, V from R repair by key K;")
        second = rows(db, "select conf, V from I;")
        assert first != second
        assert any(row[0] == 7 for row in second)


class TestRelationScopedInvalidation:
    @pytest.mark.parametrize("write", OBS_WRITES)
    def test_write_to_obs_keeps_the_grounding_of_i(self, write):
        db = session()
        db.execute(JOIN)
        versions = dict(db.decomposition.versions)
        db.execute(write)
        # Only the written relation gets a new version.
        assert db.decomposition.versions["Obs"] != versions["Obs"]
        assert {name: version
                for name, version in db.decomposition.versions.items()
                if name != "Obs"} == \
            {name: version for name, version in versions.items()
             if name != "Obs"}
        stats = db.backend.stats
        misses, hits = stats.ground_cache_misses, stats.ground_cache_hits
        db.execute(I_ONLY)
        assert stats.ground_cache_misses == misses
        assert stats.ground_cache_hits == hits + 1
        # The join re-grounds Obs alone and drops its superseded version.
        evictions = stats.ground_cache_evictions
        db.execute(JOIN)
        assert stats.ground_cache_misses == misses + 1
        assert stats.ground_cache_hits == hits + 2
        assert stats.ground_cache_evictions == evictions + 1

    def test_join_reflects_every_write_immediately(self):
        wsd, explicit = session(), session("explicit")
        assert canonical(wsd, JOIN) == canonical(explicit, JOIN)
        for step in range(12):
            write = obs_write(step)
            assert wsd.execute(write).rowcount == \
                explicit.execute(write).rowcount
            assert canonical(wsd, JOIN) == canonical(explicit, JOIN), write
            assert canonical(wsd, I_ONLY) == canonical(explicit, I_ONLY)

    def test_many_writes_keep_i_at_one_miss_and_the_cache_bounded(self):
        db = session()
        db.execute(JOIN)
        stats = db.backend.stats
        misses, evictions = stats.ground_cache_misses, \
            stats.ground_cache_evictions
        writes = 300
        for step in range(writes):
            db.execute(obs_write(step))
            db.execute(JOIN)
            assert len(db.backend._ground_cache) == 2  # I and Obs, current
        # One Obs miss (and one superseded Obs entry dropped) per write; I
        # was grounded once, before the loop, and never again.
        assert stats.ground_cache_misses == misses + writes
        assert stats.ground_cache_evictions == evictions + writes

    @pytest.mark.parametrize("query", [
        "select possible V from I assert not exists"
        "(select * from I where V = 1);",
        "select conf, V from VI;",
        "select possible K from Obs repair by key K;",
    ], ids=["assert", "view", "decoration"])
    def test_working_copies_never_touch_base_entries(self, query):
        db = session()
        db.execute("create view VI as select K, V from I where V > 2;")
        db.execute(I_ONLY)
        db.execute("select possible K from Obs;")
        base_entries = dict(db.backend._ground_cache)
        executor = db.backend._executor()
        statement = parse_statement(query)
        db.backend._bind(statement)
        executor.evaluate_query(statement)
        working = executor._working_groundings
        assert working, "the statement should ground a working copy"
        assert not set(working) & set(base_entries)
        assert all(cached is not base_entries.get(key)
                   for key, cached in working.items())
        # The shared cache still holds exactly the base state's groundings.
        assert dict(db.backend._ground_cache) == base_entries

    def test_create_table_as_gives_every_relation_a_fresh_version(self):
        db = session()
        before = canonical(db, I_ONLY)
        versions = dict(db.decomposition.versions)
        db.execute("create table J as select K from Obs;")
        assert all(db.decomposition.versions[name] != version
                   for name, version in versions.items())
        stats = db.backend.stats
        misses = stats.ground_cache_misses
        assert canonical(db, I_ONLY) == before
        assert stats.ground_cache_misses == misses + 1
        # The re-grounding dropped every entry of the superseded state.
        assert set(db.backend._ground_cache) == \
            {(db.decomposition.versions["I"], "I")}


class TestReplicasAndRecovery:
    def test_follower_and_reopened_session_match_serial_replay(self, tmp_path):
        leader = session(data_dir=str(tmp_path))
        follower = session()
        steps = [obs_write(step) for step in range(9)]
        for sql in steps:
            leader.execute(sql)
            record = sql_record(sql)
            record["g"] = leader.state_generation
            follower.apply_replicated(record)
            # Interleaved reads keep both replicas' caches warm across
            # the writes they apply.
            assert canonical(follower, JOIN) == canonical(leader, JOIN)
        replay = session()
        for sql in steps:
            replay.execute(sql)
        expected = canonical(replay, JOIN)
        assert canonical(leader, JOIN) == expected
        assert canonical(follower, JOIN) == expected
        assert follower.backend.stats.ground_cache_evictions > 0
        leader.close()
        reopened = MayBMS(backend="wsd", data_dir=str(tmp_path))
        try:
            assert canonical(reopened, JOIN) == expected
            assert canonical(reopened, I_ONLY) == canonical(replay, I_ONLY)
            # The recovered session keeps scoping its invalidation.
            reopened.execute(obs_write(9))
            replay.execute(obs_write(9))
            misses = reopened.backend.stats.ground_cache_misses
            assert canonical(reopened, I_ONLY) == canonical(replay, I_ONLY)
            assert reopened.backend.stats.ground_cache_misses == misses
            assert canonical(reopened, JOIN) == canonical(replay, JOIN)
        finally:
            reopened.close()
