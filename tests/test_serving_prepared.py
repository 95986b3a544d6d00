"""The serving layer: prepared statements, parameters, caches, HTTP server.

Covers the compile-once path end to end: ``?`` parameter parsing and
binding, read/write classification, the session's LRU statement cache
behind plain ``execute``, compiled-plan reuse on the wsd backend,
generation-keyed cache invalidation across DML, and the JSON/HTTP front
end (``repro.serving.server``).
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
from dataclasses import asdict

import pytest

from repro import MayBMS
from repro.errors import AnalysisError, ExpressionError, ReproError
from repro.serving import (
    MayBMSServer,
    PreparedStatement,
    StatementCache,
    statement_is_read,
)
from repro.sqlparser.parser import parse_prepared, parse_statement

SETUP = """
create table R (A varchar, B integer, C varchar, D integer);
insert into R values ('a1', 10, 'c1', 2);
insert into R values ('a1', 15, 'c2', 6);
insert into R values ('a2', 25, 'c3', 4);
insert into R values ('a2', 20, 'c4', 5);
create table I as select A, B, C from R repair by key A weight D;
"""


def build_session(backend: str = "wsd") -> MayBMS:
    db = MayBMS(backend=backend)
    db.execute_script(SETUP)
    return db


class TestParameterParsing:
    def test_parse_prepared_counts_placeholders(self):
        statement, count = parse_prepared(
            "select A from R where B > ? and C = ?;")
        assert count == 2
        assert statement.where.sql() == "((B > ?1) and (C = ?2))"

    def test_statements_without_parameters_count_zero(self):
        _, count = parse_prepared("select A from R;")
        assert count == 0

    def test_unbound_parameter_raises(self):
        db = build_session()
        # Executing parameterised SQL without arguments is an arity error at
        # the session layer ...
        with pytest.raises(AnalysisError, match="expects 1 parameter"):
            db.execute("select conf from I where B > ?;")
        # ... and an unbound-parameter error when a raw parsed AST bypasses
        # the prepared-statement layer entirely.
        with pytest.raises(ExpressionError, match="unbound"):
            db.execute_statement(
                parse_statement("select conf from I where B > ?;"))

    def test_parameters_rejected_in_create_view(self):
        """A view body evaluates later, under the *querying* statement's
        binding — a '?' there would silently rebind, so it parses as an
        error instead."""
        from repro.errors import ParseError

        db = build_session()
        with pytest.raises(ParseError, match="not allowed in CREATE VIEW"):
            db.execute("create view V as select A from I where B > ?;", (20,))
        # CREATE TABLE AS evaluates immediately: parameters are fine there.
        db.execute("create table T2 as select A, B from R where B > ?;",
                   (12,))
        tuples = db.backend.decomposition.template.relation_tuples("T2")
        assert sorted(t.cells for t in tuples) == \
            [("a1", 15), ("a2", 20), ("a2", 25)]

    def test_classification(self):
        assert statement_is_read(parse_statement("select A from R;"))
        assert statement_is_read(
            parse_statement("select A from R union select A from R;"))
        assert not statement_is_read(
            parse_statement("insert into R values (1);"))
        assert not statement_is_read(
            parse_statement("create table T as select A from R;"))
        assert not statement_is_read(parse_statement("drop table R;"))


class TestPreparedExecution:
    @pytest.mark.parametrize("backend", ["explicit", "wsd"])
    def test_parameter_binding_matches_literals(self, backend):
        db = build_session(backend)
        prepared = db.prepare("select conf from I where B > ?;")
        for threshold in (5, 12, 21, 26):
            expected = db.execute(f"select conf from I where B > {threshold};")
            assert prepared.execute((threshold,)).scalar() == \
                pytest.approx(expected.scalar(), abs=1e-9)

    @pytest.mark.parametrize("backend", ["explicit", "wsd"])
    def test_recreated_view_rebinds_the_prepared_statement(self, backend):
        # `*` over a view is expanded when the statement binds; a dropped and
        # re-created view is a new definition, so the statement binds again.
        # The definitions are parsed afresh each time (no statement cache
        # keeps them alive), so a new one may reuse a freed one's address.
        db = build_session(backend)
        prepared = db.prepare("select possible * from v;")
        for _ in range(20):
            for sql, expected in (
                    ("create view v as select A from R where B < 12;",
                     [("a1",)]),
                    ("create view v as select B, A from R where B < 12;",
                     [(10, "a1")])):
                db.execute_statement(parse_statement(sql))
                assert prepared.execute(()).rows() == expected
                db.execute_statement(parse_statement("drop view v;"))

    def test_wrong_arity_raises(self):
        db = build_session()
        prepared = db.prepare("select conf from I where B > ?;")
        with pytest.raises(AnalysisError, match="expects 1 parameter"):
            prepared.execute(())
        with pytest.raises(AnalysisError, match="expects 1 parameter"):
            prepared.execute((1, 2))

    def test_parameters_in_dml(self):
        db = build_session()
        insert = db.prepare("insert into R values (?, ?, ?, ?);")
        assert not insert.is_read
        result = insert.execute(("a9", 99, "c9", 1))
        assert result.rowcount == 1
        rows = db.execute("select B from R where A = ?;", ("a9",))
        answer = rows.answer_decomposition()
        tuples = answer.template.relation_tuples(rows.relation_name)
        assert [t.cells for t in tuples] == [(99,)]

    def test_parameters_in_aggregates(self):
        db = build_session()
        prepared = db.prepare(
            "select possible sum(B) from I where B > ?;")
        expected = db.execute("select possible sum(B) from I where B > 12;")
        assert sorted(prepared.execute((12,)).rows()) == \
            sorted(expected.rows())

    def test_repeated_prepare_returns_same_object(self):
        db = build_session()
        first = db.prepare("select conf from I where B > ?;")
        assert db.prepare("select conf from I where B > ?;") is first

    def test_execute_transparently_reuses_prepared(self):
        db = build_session()
        hits_before = db.statement_cache.hits
        db.execute("select conf from I;")
        db.execute("select conf from I;")
        db.execute("select conf from I;")
        assert db.statement_cache.hits >= hits_before + 2

    def test_prepared_execution_reuses_grounding(self):
        db = build_session()
        prepared = db.prepare("select conf from I where B > ?;")
        prepared.execute((5,))
        hits_before = db.backend.stats.ground_cache_hits
        prepared.execute((12,))
        assert db.backend.stats.ground_cache_hits > hits_before

    def test_prepared_statement_plans_compile_once_then_hit(self):
        db = build_session()
        prepared = db.prepare("select possible A, sum(B) from I group by A;")
        cache = prepared.plans
        before = cache.snapshot()
        prepared.execute()
        after_first = cache.snapshot()
        # First execution compiles the statement's plan exactly once.
        assert after_first["compiles"] == before["compiles"] + 1
        plan = cache.plan_for(prepared.statement)
        assert plan is not None and plan.kind == "aggregate"
        # The second execution is a pure cache hit — zero new compiles,
        # same plan object.
        hits_before = cache.snapshot()["hits"]
        prepared.execute()
        after_second = cache.snapshot()
        assert after_second["compiles"] == after_first["compiles"]
        assert after_second["hits"] > hits_before
        assert cache.plan_for(prepared.statement) is plan

    def test_plans_property_is_the_process_wide_cache(self):
        db = build_session()
        first = db.prepare("select conf from I where B > ?;")
        second = db.prepare("select possible A from I;")
        other_session = build_session()
        third = other_session.prepare("select conf from I;")
        # Plans are immutable, so one shared cache serves every statement
        # of every session (and therefore every thread).
        assert first.plans is second.plans
        assert first.plans is third.plans

    def test_plan_cache_stays_bounded_on_derived_asts(self):
        """`group worlds by` analyses a per-execution derived main AST; the
        shared LRU must evict those instead of pinning one per execution."""
        db = build_session()
        prepared = db.prepare(
            "select possible B from I "
            "group worlds by (select count(*) from I where B > 12);")
        for _ in range(80):
            prepared.execute()
        assert len(prepared.plans) <= prepared.plans.capacity

    def test_threads_share_one_compiled_plan(self):
        """The thread-shared-plan stress test: N threads execute the same
        prepared statement concurrently with different parameters through
        ONE compiled plan, and answers match serial replay to 1e-9."""
        db = build_session()
        prepared = db.prepare(
            "select possible A, sum(B) from I where B > ? group by A;")
        cache = prepared.plans
        cache.clear()  # drop the entry so the run below compiles it fresh
        compiles_before = cache.snapshot()["compiles"]

        thread_count = 8
        rounds = 5
        parameters = [(5 + index,) for index in range(thread_count)]
        results: dict[int, list] = {}
        errors: list[BaseException] = []
        barrier = threading.Barrier(thread_count)

        def run(index: int) -> None:
            try:
                barrier.wait(timeout=10)
                answers = []
                for _ in range(rounds):
                    answers.append(
                        sorted(prepared.execute(parameters[index]).rows()))
                results[index] = answers
            except BaseException as exc:  # pragma: no cover - fail loud
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(index,))
                   for index in range(thread_count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # All concurrent executions went through exactly one compilation of
        # the statement's plan (measured before serial replay below, whose
        # fresh session parses fresh ASTs and adds its own compiles).
        assert cache.snapshot()["compiles"] == compiles_before + 1

        replay = build_session()
        for index in range(thread_count):
            expected = sorted(replay.execute(
                "select possible A, sum(B) from I "
                f"where B > {parameters[index][0]} group by A;").rows())
            for answer in results[index]:
                assert len(answer) == len(expected)
                for got, want in zip(answer, expected):
                    assert got[0] == want[0]
                    assert got[1] == pytest.approx(want[1], abs=1e-9)

    def test_generation_bump_invalidates_answers(self):
        db = build_session()
        prepared = db.prepare("select conf from I where B > ?;")
        before = prepared.execute((21,)).scalar()
        generation = db.state_generation
        db.execute("insert into R values ('a3', 30, 'c5', 1);")
        db.execute("create table I as "
                   "select A, B, C from R repair by key A weight D;")
        assert db.state_generation == generation + 2
        after = prepared.execute((21,)).scalar()
        assert after != before  # a3 always contributes B=30 > 21
        assert after == pytest.approx(1.0, abs=1e-9)

    def test_write_statements_bump_generation(self):
        db = build_session()
        generation = db.state_generation
        result, seen = db.prepare(
            "insert into R values ('a7', 7, 'c7', 1);"
        ).execute_with_generation(())
        assert seen == generation + 1
        _, read_seen = db.prepare(
            "select conf from I;").execute_with_generation(())
        assert read_seen == seen

    def test_failed_writes_do_not_bump_generation(self):
        """Generation counts *completed* writes: a write that raises leaves
        the state — and therefore the counter — unchanged."""
        db = build_session()
        db.execute("create table K1 (X integer, primary key (X));")
        db.execute("insert into K1 values (1);")
        generation = db.state_generation
        with pytest.raises(ReproError):
            db.execute("insert into K1 values (1);")  # duplicate key
        assert db.state_generation == generation
        with pytest.raises(ReproError):
            db.execute_statement(
                parse_statement("insert into K1 values (1);"))
        assert db.state_generation == generation
        db.execute("insert into K1 values (2);")
        assert db.state_generation == generation + 1


class TestStatementCache:
    def test_lru_eviction(self):
        cache = StatementCache(capacity=2)
        db = build_session()
        statements = [db.prepare(f"select conf from I where B > {i};")
                      for i in range(3)]
        del statements
        # Session cache has its own capacity; exercise the LRU directly.
        a = PreparedStatement(db.backend, db.lock, "a",
                              parse_statement("select A from R;"), 0)
        b = PreparedStatement(db.backend, db.lock, "b",
                              parse_statement("select B from R;"), 0)
        c = PreparedStatement(db.backend, db.lock, "c",
                              parse_statement("select C from R;"), 0)
        cache.put("a", a)
        cache.put("b", b)
        assert cache.get("a") is a  # refresh "a"
        cache.put("c", c)           # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") is a and cache.get("c") is c

    def test_session_cache_capacity_is_configurable(self):
        db = MayBMS(backend="wsd", statement_cache_size=2)
        db.create_table("T", ["X"], [(1,), (2,)])
        for i in range(5):
            db.execute(f"select X from T where X > {i};")
        assert len(db.statement_cache) <= 2


class TestServer:
    @pytest.fixture
    def server(self):
        db = build_session()
        server = MayBMSServer(db, port=0)
        thread = threading.Thread(target=server.httpd.serve_forever,
                                  daemon=True)
        thread.start()
        yield server
        server.shutdown()

    def _post(self, server, sql, params=()):
        host, port = server.address
        request = urllib.request.Request(
            f"http://{host}:{port}/query",
            data=json.dumps({"sql": sql, "params": list(params)}).encode(),
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request) as response:
                return response.status, json.load(response)
        except urllib.error.HTTPError as error:
            return error.code, json.load(error)

    def _get(self, server, path):
        host, port = server.address
        with urllib.request.urlopen(f"http://{host}:{port}{path}") as response:
            return json.load(response)

    def test_query_roundtrip(self, server):
        status, payload = self._post(server,
                                     "select conf from I where B > ?;", (12,))
        assert status == 200
        assert payload["kind"] == "rows"
        assert payload["columns"] == ["conf"]
        assert payload["rows"][0][0] == pytest.approx(1.0)

    def test_repeated_statements_hit_the_cache(self, server):
        for _ in range(3):
            self._post(server, "select conf from I where B > ?;", (12,))
        stats = self._get(server, "/stats")
        assert stats["statement_cache"]["hits"] >= 2

    def test_stats_reads_counters_under_the_merge_lock(self, server):
        """``/stats`` reads the three counter sets under the lock concurrent
        reads merge them under, so one reply never mixes counters from
        before and after a merge."""
        self._post(server, "select conf from I where B > ?;", (12,))
        backend = server.session.backend
        replies = []
        reader = threading.Thread(
            target=lambda: replies.append(self._get(server, "/stats")))
        with backend._stats_lock:
            reader.start()
            # A bounded join can only miss a reply that skipped the lock,
            # never fail a correct server.
            reader.join(timeout=0.2)
            assert reader.is_alive() and not replies
        reader.join(timeout=10)
        assert not reader.is_alive()
        for name in ("stats", "confidence_stats", "aggregate_stats"):
            assert replies[0][name] == asdict(getattr(backend, name))

    def test_health(self, server):
        payload = self._get(server, "/health")
        assert payload["ok"] is True
        assert payload["backend"] == "wsd"
        assert "I" in payload["tables"]

    def test_engine_errors_are_400(self, server):
        status, payload = self._post(server, "select nonsense from nowhere;")
        assert status == 400
        assert "error" in payload and payload["type"]

    def test_keep_alive_survives_404_with_body(self, server):
        """A POST to a wrong path must drain its body, or the next request
        on the same keep-alive connection desyncs."""
        import http.client

        host, port = server.address
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.request("POST", "/nope",
                               body=b'{"sql": "select 1;"}',
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            assert response.status == 404
            response.read()
            connection.request(
                "POST", "/query",
                body=json.dumps({"sql": "select conf from I;",
                                 "params": []}).encode(),
                headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            assert response.status == 200
            payload = json.loads(response.read())
            assert payload["kind"] == "rows"
        finally:
            connection.close()

    def test_keep_alive_survives_get_with_body(self, server):
        """A GET carrying a body must drain it too (same desync hazard)."""
        import http.client

        host, port = server.address
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.request("GET", "/health", body=b"extra")
            response = connection.getresponse()
            assert response.status == 200
            response.read()
            connection.request(
                "POST", "/query",
                body=json.dumps({"sql": "select conf from I;",
                                 "params": []}).encode(),
                headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            assert response.status == 200
        finally:
            connection.close()

    def test_non_object_bodies_are_400_not_connection_drops(self, server):
        """Valid JSON that is not {'sql': ...} must still get a JSON 400."""
        host, port = server.address
        for body in (b"[1]", b'"hello"', b"42", b'{"sql": 7}'):
            request = urllib.request.Request(
                f"http://{host}:{port}/query", data=body,
                headers={"Content-Type": "application/json"})
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            assert excinfo.value.code == 400
            payload = json.load(excinfo.value)
            assert "error" in payload

    def test_client_disconnect_mid_response_is_not_an_error(self, server,
                                                            capfd):
        """A client that vanishes before reading its answer must not crash
        the handler thread (regression: ``BrokenPipeError`` /
        ``ConnectionResetError`` tracebacks from ``_respond``) and must
        leave the server fully healthy for the next connection."""
        import socket
        import struct
        import time

        host, port = server.address
        body = json.dumps({"sql": "select conf from I;",
                           "params": []}).encode()
        request = (b"POST /query HTTP/1.1\r\n"
                   b"Host: test\r\n"
                   b"Content-Type: application/json\r\n" +
                   f"Content-Length: {len(body)}\r\n\r\n".encode() + body)
        for _ in range(3):
            with socket.create_connection((host, port), timeout=5) as sock:
                sock.sendall(request)
                # RST on close: the handler's response write hits a dead
                # peer instead of a graceful FIN.
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                struct.pack("ii", 1, 0))
        time.sleep(0.2)  # let the handler threads hit the broken pipes
        status, payload = self._post(server, "select conf from I;")
        assert status == 200
        assert payload["kind"] == "rows"
        assert "Traceback" not in capfd.readouterr().err

    def test_non_finite_floats_are_strict_json(self):
        """NaN/Infinity answers render as JSON *strings*, never as the bare
        ``NaN``/``Infinity`` literals that break strict JSON parsers."""
        db = build_session()
        db.create_table(
            "F", ["N", "P", "M"],
            [(float("nan"), float("inf"), float("-inf")), (1.5, 2.5, 3.5)])
        server = MayBMSServer(db, port=0)
        thread = threading.Thread(target=server.httpd.serve_forever,
                                  daemon=True)
        thread.start()
        try:
            host, port = server.address
            request = urllib.request.Request(
                f"http://{host}:{port}/query",
                data=json.dumps(
                    {"sql": "select possible sum(N), sum(P), sum(M) from F;",
                     "params": []}).encode(),
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request) as response:
                raw = response.read()

            def reject(token):
                raise AssertionError(
                    f"bare non-finite JSON literal {token!r} in response")

            payload = json.loads(raw, parse_constant=reject)
            assert payload["kind"] == "rows"
            assert payload["rows"] == [["NaN", "Infinity", "-Infinity"]]
        finally:
            server.shutdown()

    def test_concurrent_requests_agree(self, server):
        results = []
        errors = []

        def worker():
            try:
                results.append(self._post(
                    server, "select conf from I where B > ?;", (12,)))
            except Exception as error:  # pragma: no cover - diagnostics
                errors.append(error)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(results) == 8
        assert all(status == 200 for status, _ in results)
        values = {payload["rows"][0][0] for _, payload in results}
        assert values == {1.0}


class TestServeEntryPoint:
    def test_unknown_dataset_raises(self):
        from repro.__main__ import _load

        with pytest.raises(ReproError):
            _load("nope")

    def test_figure3_requires_explicit(self):
        from repro.__main__ import _load

        with pytest.raises(ReproError):
            _load("figure3", backend="wsd")
