"""A small JSON-over-HTTP front end for one MayBMS session.

``python -m repro serve`` starts a :class:`MayBMSServer`: a stdlib
:class:`~http.server.ThreadingHTTPServer` in front of one shared
:class:`~repro.core.session.MayBMS` session.  Each HTTP request is handled on
its own thread; the session's prepared-statement layer makes that safe —
statements are compiled once into the session's LRU, reads share the
generation lock, writes take it exclusively.

Endpoints
---------

``POST /query``
    Body ``{"sql": "...", "params": [...]}`` (``params`` optional) plus the
    optional graceful-degradation keys ``timeout_ms``, ``epsilon``,
    ``degradation`` (``"strict"`` / ``"anytime"``), ``max_samples``,
    ``seed`` and ``confidence_level``, which override the session defaults
    for this one request.  The SQL may contain ``?`` placeholders; repeated
    statements hit the session's prepared-statement cache.  Responds with
    the JSON rendering of the statement result (see :func:`result_payload`)
    plus ``"generation"`` — the snapshot a read answered against, or the
    generation a write produced; approximate answers carry
    ``"approximate": true`` and an ``"approximation"`` contract (worst ε,
    confidence level, samples).  With ``result_cache_size > 0`` plain
    repeated reads are answered from a ``(sql, params, generation)``-keyed
    LRU without executing at all.  Non-finite float cells are rendered as
    their string forms (``"NaN"`` / ``"Infinity"`` / ``"-Infinity"``) —
    bodies are strict JSON (``allow_nan=False``), never the bare JavaScript
    literals.

``GET /health``
    ``{"ok": true, "backend": ..., "generation": ..., "tables": [...],
    "budgets": {...}, "degradation": ..., "durability": {...}}`` — the
    effective resource budgets, degradation default, and the durable
    store's state (``{"enabled": false}`` for in-memory sessions;
    otherwise the store state, last-synced generation, snapshot
    generation and fsync policy).

Robustness: POST bodies must declare a ``Content-Length`` and stay under
the server's ``max_body_bytes`` — violations get a *structured* 413
(kind/budget/observed) without the body being read.  When the session has
a write-lock timeout configured, a write that cannot acquire the lock in
time answers a structured 503 with a ``Retry-After`` header instead of
parking the handler thread forever.

``GET /stats``
    The serving counters: statement-cache hits/misses and, on the wsd
    backend, the executor strategy / grounding-cache / confidence counters
    (including ``approximate_answers`` / ``sample_counts``).

Errors raised by the engine come back as ``{"error": ..., "type": ...}``
with status 400; malformed requests get 400 too, unknown paths 404.
Resource-budget refusals are *structured*: a
:class:`~repro.errors.ResourceBudgetError` responds 400 (408 for
deadline expiry) with ``"error"`` being the payload dict ``{"kind",
"budget", "observed", "message", ...}`` instead of a bare string — a
client can tell "over budget, retry with degradation=anytime" apart from
"bad SQL" without parsing prose, and no budget shape ever surfaces as an
unstructured 500.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import nullcontext
from dataclasses import asdict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Any

from ..errors import (
    DeadlineExceededError,
    ReproError,
    ResourceBudgetError,
    WriteTimeoutError,
)
from ..storage.store import sql_record
from .prepared import ResultCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.results import StatementResult
    from ..core.session import MayBMS

__all__ = ["MayBMSServer", "QuietHTTPServer", "execute_request",
           "result_payload"]


def _json_value(value: Any) -> Any:
    """A JSON-safe rendering of one cell value.

    Non-finite floats have no JSON spelling — ``json.dumps`` would emit the
    JavaScript literals ``NaN`` / ``Infinity``, which strict parsers refuse
    — so they are rendered as their string forms instead (and every body is
    serialised with ``allow_nan=False``, so a bare non-finite can never
    slip through).
    """
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        return value
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return str(value)


def _jsonable(payload: Any) -> Any:
    """Recursively apply :func:`_json_value` to a response payload.

    Covers the spots a non-finite float can reach beyond relation cells:
    world probabilities, approximation contracts, error payloads.
    """
    if isinstance(payload, dict):
        return {name: _jsonable(value) for name, value in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [_jsonable(value) for value in payload]
    return _json_value(payload)


def _relation_payload(relation) -> dict:
    return {
        "columns": list(relation.schema.names()),
        "rows": [[_json_value(cell) for cell in row]
                 for row in relation.rows],
    }


def result_payload(result: "StatementResult") -> dict:
    """The JSON body for one executed statement."""
    if result.kind == "command":
        payload = {"kind": "command", "message": result.message,
                   "rowcount": result.rowcount}
    elif result.is_rows():
        payload = _relation_payload(result.relation)
        payload["kind"] = "rows"
    elif result.is_world_rows():
        answers = []
        for answer in result.world_answers:
            entry = _relation_payload(answer.relation)
            entry["label"] = answer.label
            entry["probability"] = answer.probability
            answers.append(entry)
        payload = {"kind": "world_rows", "answers": answers}
    else:
        # Compact wsd answers: report the representation, not materialised
        # worlds (that is the whole point of the backend).
        decomposition = result.decomposition
        tuples = decomposition.template.relation_tuples(result.relation_name)
        payload = {
            "kind": "wsd_rows",
            "relation": result.relation_name,
            "template_tuples": len(tuples),
            "components": len(decomposition.components),
            "log10_worlds": decomposition.log10_world_count(),
        }
    if result.approximate:
        payload["approximate"] = True
        payload["approximation"] = result.approximation
    return payload


def execute_request(session: "MayBMS", sql: str, params: list,
                    options: dict | None = None,
                    result_cache: ResultCache | None = None,
                    ) -> tuple[int, dict, dict[str, str], dict | None]:
    """Execute one ``/query`` request; the whole serving contract in one call.

    Returns ``(status, payload, extra_headers, committed)``.  This is the
    single place the error ladder lives — the HTTP handler, the worker
    pool's writer loop and the replication path all answer through it, so a
    budget overrun maps to the same structured 400/408, a write-lock
    timeout to the same 503 + ``Retry-After``, and an engine error to the
    same 400 regardless of which process executed the statement.

    ``committed`` is ``None`` for reads and failed writes; for a committed
    write it is the :func:`~repro.storage.store.sql_record` redo record
    with its ``"g"`` generation — exactly what the writer process
    replicates to every reader worker (and the WAL already logged).

    Every successful payload carries ``"generation"``: the snapshot a read
    answered against, or the generation a write produced — the key clients
    (and the benchmarks' serial-replay checker) order answers by.

    With a *result_cache*, plain reads (no per-request options) are first
    looked up at the session's current generation; a hit skips execution
    entirely.  Fills happen under the generation
    :meth:`~repro.serving.prepared.PreparedStatement.execute_with_generation`
    actually observed, so a cached payload is always the serial answer at
    its generation — a concurrent DML commit simply makes the entry
    unreachable.
    """
    try:
        prepared = session.prepare(sql)
    except ReproError as error:
        return 400, {"error": str(error),
                     "type": type(error).__name__}, {}, None
    except Exception as error:  # keep the always-JSON contract
        return 500, {"error": str(error),
                     "type": type(error).__name__}, {}, None
    cacheable = (result_cache is not None and prepared.is_read
                 and not options)
    if cacheable:
        cached = result_cache.get(
            result_cache.key(sql, params, session.state_generation))
        if cached is not None:
            return 200, cached, {}, None
    try:
        # A write's redo record is built before it runs, so a parameter the
        # record cannot carry is refused while nothing has changed.
        committed = None if prepared.is_read \
            else sql_record(sql, tuple(params))
        result, generation = prepared.execute_with_generation(
            tuple(params), options or None)
    except WriteTimeoutError as error:
        # The write lock could not be had in time: the server stayed
        # responsive instead of parking the handler thread forever, and
        # the client learns when to come back.
        return 503, {"error": error.payload(),
                     "type": type(error).__name__}, \
            {"Retry-After": str(error.retry_after)}, None
    except ResourceBudgetError as error:
        # The structured refusal contract: budget overruns answer with
        # machine-readable kind/budget/observed (and the partial
        # estimate on deadline expiry) — never an unstructured 500.
        status = 408 if isinstance(error, DeadlineExceededError) else 400
        return status, {"error": error.payload(),
                        "type": type(error).__name__}, {}, None
    except ReproError as error:
        return 400, {"error": str(error),
                     "type": type(error).__name__}, {}, None
    except Exception as error:  # keep the always-JSON contract
        return 500, {"error": str(error),
                     "type": type(error).__name__}, {}, None
    payload = result_payload(result)
    payload["generation"] = generation
    if prepared.is_read:
        if cacheable and not result.approximate:
            result_cache.put(result_cache.key(sql, params, generation),
                             payload)
        return 200, payload, {}, None
    committed["g"] = generation
    return 200, payload, {}, committed


class QuietHTTPServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` that treats client hangups as routine.

    ``_Handler._respond`` already swallows mid-response disconnects, but a
    peer that resets the connection can also surface the error from layers
    outside the handler's control — the keep-alive request read, or
    socketserver's own stream teardown in ``finish()``.  Those all funnel
    through :meth:`handle_error`; a vanished client is not a server error,
    so it must not dump a traceback per disconnect.
    """

    def handle_error(self, request, client_address):
        exc = sys.exc_info()[1]
        if isinstance(exc, (BrokenPipeError, ConnectionResetError,
                            ConnectionAbortedError, TimeoutError)):
            return
        super().handle_error(request, client_address)  # pragma: no cover


class _Handler(BaseHTTPRequestHandler):
    """One request; the shared session hangs off the server object."""

    server_version = "maybms-repro"
    protocol_version = "HTTP/1.1"

    # -- plumbing -------------------------------------------------------------------

    @property
    def session(self) -> "MayBMS":
        return self.server.session  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(format, *args)

    def _respond(self, status: int, payload: dict,
                 extra_headers: dict[str, str] | None = None) -> None:
        body = json.dumps(_jsonable(payload), allow_nan=False).encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in (extra_headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            # The client hung up before (or while) reading its answer.
            # There is nobody left to respond to and nothing wrong with the
            # server — swallowing the error here keeps ThreadingHTTPServer
            # from dumping a traceback per early disconnect.  The connection
            # is unusable mid-stream, so make the keep-alive loop stop
            # instead of trying to parse a next request from it.
            self.close_connection = True

    def _read_body(self) -> bytes | None:
        """Drain and return the request body; None after answering 4xx.

        Always reading the declared body keeps HTTP/1.1 keep-alive
        connections in sync — unread body bytes would be parsed as the next
        request line.  An unparseable Content-Length means the body's end is
        unknowable, so the connection is answered and closed instead; the
        same goes for bodies over the server's ``max_body_bytes`` bound,
        which are *refused without being drained* (a structured 413) so an
        oversized upload cannot occupy a handler thread byte by byte.
        """
        if self.command == "POST" and "Content-Length" not in self.headers:
            # Without a length the body's size is unbounded (chunked or
            # unframed); refuse it instead of reading arbitrary input.
            self.close_connection = True
            self._respond(413, {
                "error": {
                    "kind": "request-body",
                    "budget": getattr(self.server, "max_body_bytes", None),
                    "observed": None,
                    "message": "POST requests must declare Content-Length",
                },
                "type": "RequestBodyTooLarge",
            })
            return None
        try:
            length = int(self.headers.get("Content-Length", "0") or 0)
        except ValueError:
            self.close_connection = True
            self._respond(400, {"error": "invalid Content-Length header",
                                "type": "ValueError"})
            return None
        limit = getattr(self.server, "max_body_bytes", None)
        if limit is not None and length > limit:
            self.close_connection = True
            self._respond(413, {
                "error": {
                    "kind": "request-body",
                    "budget": limit,
                    "observed": length,
                    "message": f"request body of {length} bytes exceeds "
                               f"the server limit of {limit} bytes",
                },
                "type": "RequestBodyTooLarge",
            })
            return None
        return self.rfile.read(length) if length > 0 else b""

    # -- endpoints ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self._read_body() is None:
            return
        if self.path == "/health":
            backend = self.session.backend
            payload = {
                "ok": True,
                "backend": self.session.backend_name,
                "generation": self.session.state_generation,
                "tables": self.session.table_names(),
                "budgets": backend.budgets.as_dict(),
                "degradation": backend.degradation,
                "durability": self.session.durability_health(),
            }
            scale_out = getattr(self.server, "scale_out", None)
            if scale_out is not None:
                payload["scale_out"] = dict(scale_out)
            self._respond(200, payload)
            return
        if self.path == "/stats":
            self._respond(200, self._stats_payload())
            return
        self._respond(404, {"error": f"unknown path {self.path!r}",
                            "type": "NotFound"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        body = self._read_body()
        if body is None:
            return
        if self.path != "/query":
            self._respond(404, {"error": f"unknown path {self.path!r}",
                                "type": "NotFound"})
            return
        try:
            request = json.loads(body or b"{}")
            if not isinstance(request, dict):
                raise ValueError("expected {'sql': str, 'params': list}")
            sql = request["sql"]
            params = request.get("params", [])
            if not isinstance(sql, str) or not isinstance(params, list):
                raise ValueError("expected {'sql': str, 'params': list}")
            options = {name: request[name]
                       for name in ("degradation", "epsilon", "timeout_ms",
                                    "max_samples", "seed",
                                    "confidence_level")
                       if request.get(name) is not None}
        except (KeyError, TypeError, ValueError,
                json.JSONDecodeError) as error:
            self._respond(400, {"error": str(error),
                                "type": type(error).__name__})
            return
        forwarder = getattr(self.server, "write_forwarder", None)
        if forwarder is not None:
            # Multi-process reader worker: writes route to the single
            # writer process.  Classification needs only a parse (cached in
            # the statement LRU); unparseable SQL answers locally.
            try:
                prepared = self.session.prepare(sql)
            except ReproError as error:
                self._respond(400, {"error": str(error),
                                    "type": type(error).__name__})
                return
            if not prepared.is_read:
                status, payload, headers = forwarder(sql, params,
                                                     options or None)
                self._respond(status, payload, headers or None)
                return
        status, payload, headers, _ = execute_request(
            self.session, sql, params, options or None,
            result_cache=getattr(self.server, "result_cache", None))
        self._respond(status, payload, headers or None)

    def _stats_payload(self) -> dict:
        session = self.session
        payload: dict[str, Any] = {
            "backend": session.backend_name,
            "generation": session.state_generation,
            # One consistent size/hits/misses reading (taken under the
            # cache mutex), not three racing attribute reads.
            "statement_cache": session.statement_cache.snapshot(),
        }
        result_cache = getattr(self.server, "result_cache", None)
        if result_cache is not None:
            payload["result_cache"] = result_cache.snapshot()
        scale_out = getattr(self.server, "scale_out", None)
        if scale_out is not None:
            payload["scale_out"] = dict(scale_out)
        backend = session.backend
        # One consistent reading of the three counter sets, under the lock
        # concurrent reads merge them under (``WsdBackend._merge_stats``).
        with getattr(backend, "_stats_lock", nullcontext()):
            for name in ("stats", "confidence_stats", "aggregate_stats"):
                counters = getattr(backend, name, None)
                if counters is not None:
                    payload[name] = asdict(counters)
        return payload


class MayBMSServer:
    """A threaded HTTP server wrapping one shared session."""

    def __init__(self, session: "MayBMS", host: str = "127.0.0.1",
                 port: int = 8850, verbose: bool = False,
                 max_body_bytes: int = 1_000_000,
                 result_cache_size: int = 0) -> None:
        self.session = session
        #: Generation-keyed LRU of rendered read answers (``0`` disables).
        self.result_cache = (ResultCache(result_cache_size)
                             if result_cache_size else None)
        self.httpd = QuietHTTPServer((host, port), _Handler)
        self.httpd.session = session  # type: ignore[attr-defined]
        self.httpd.verbose = verbose  # type: ignore[attr-defined]
        self.httpd.max_body_bytes = max_body_bytes  # type: ignore[attr-defined]
        self.httpd.result_cache = self.result_cache  # type: ignore[attr-defined]
        self.httpd.daemon_threads = True

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (useful with ``port=0``)."""
        return self.httpd.server_address[:2]

    def serve_forever(self) -> None:  # pragma: no cover - blocking loop
        self.serve()

    def serve(self) -> None:  # pragma: no cover - blocking loop
        host, port = self.address
        print(f"maybms-repro serving on http://{host}:{port} "
              f"(backend={self.session.backend_name}); POST /query, "
              "GET /health, GET /stats")
        try:
            self.httpd.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            self.httpd.server_close()

    def shutdown(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
