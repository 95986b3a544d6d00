"""The load generator: a closed loop of client threads over raw sockets.

Closed loop: each client sends its next request only after the previous
reply arrived, so a slower program receives less load — the model for
callers that each wait for their answer.  One process, one thread per
client.  A request leaves as a single ``sendall`` (headers + body) on a
``TCP_NODELAY`` socket, so client-side Nagle is never part of what is timed;
nothing else is tuned — whatever the server's reply path costs is reported
as observed.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Callable, Iterator

from stats import percentile

SOCKET_TIMEOUT = 30.0
#: Abort when the client's own cost per request exceeds this (p50, ms).
MAX_OVERHEAD_MS = 0.3
#: The same for a new connection per request: there the figure also holds
#: the echo server's accept and per-connection handler set-up (observed
#: 0.11-0.27 ms on a quiet machine, 0.4 under somebody else's load).
MAX_OVERHEAD_NEWCONN_MS = 1.0


def encode_request(path: str, body: dict | None, close: bool = False) -> bytes:
    """One HTTP/1.1 request as the bytes of a single ``sendall``."""
    data = b"" if body is None else json.dumps(body).encode()
    method = "GET" if body is None else "POST"
    head = [f"{method} {path} HTTP/1.1", "Host: bench"]
    if body is not None:
        head += ["Content-Type: application/json",
                 f"Content-Length: {len(data)}"]
    if close:
        head.append("Connection: close")
    return ("\r\n".join(head) + "\r\n\r\n").encode() + data


class HttpClient:
    """A minimal HTTP/1.1 client on one socket (keep-alive or one-shot)."""

    def __init__(self, address: tuple[str, int], keepalive: bool) -> None:
        self.address = address
        self.keepalive = keepalive
        self._sock: socket.socket | None = None
        #: Seconds the last connection set-up took.
        self.connect_s = 0.0

    def _connect(self) -> socket.socket:
        start = time.perf_counter()
        sock = socket.create_connection(self.address, timeout=SOCKET_TIMEOUT)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if not self.keepalive:
            # Close with a reset: thousands of one-shot connections a second
            # would otherwise leave ~28k loopback sockets in TIME_WAIT, and
            # connect() slows down as the port range fills — a drift of the
            # load generator's own making, not the program's.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
        self.connect_s = time.perf_counter() - start
        return sock

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def exchange(self, request: bytes) -> tuple[int, bytes]:
        """Send pre-encoded *request*; return ``(status, body)``.

        Raises ``OSError`` on connection loss or timeout; the connection is
        dropped so the next exchange starts clean.
        """
        sock = self._sock
        if sock is None:
            sock = self._sock = self._connect()
        try:
            sock.sendall(request)
            data = b""
            while True:
                end = data.find(b"\r\n\r\n")
                if end >= 0:
                    break
                chunk = sock.recv(65536)
                if not chunk:
                    raise ConnectionError("connection closed mid-response")
                data += chunk
            head = data[:end].decode("latin-1").split("\r\n")
            status = int(head[0].split(" ", 2)[1])
            length = 0
            for line in head[1:]:
                name, _, value = line.partition(":")
                if name.lower() == "content-length":
                    length = int(value)
            body = data[end + 4:]
            while len(body) < length:
                chunk = sock.recv(65536)
                if not chunk:
                    raise ConnectionError("connection closed mid-body")
                body += chunk
        except BaseException:
            self.close()
            raise
        if not self.keepalive:
            self.close()
        return status, body

    def query(self, body: dict) -> tuple[int, dict]:
        """POST one ``/query`` body and decode the JSON answer."""
        status, raw = self.exchange(
            encode_request("/query", body, close=not self.keepalive))
        return status, json.loads(raw)

    def get(self, path: str) -> tuple[int, dict]:
        status, raw = self.exchange(
            encode_request(path, None, close=not self.keepalive))
        return status, json.loads(raw)


def sender(client: HttpClient, encoded: dict[int, bytes]) -> Callable:
    """``request -> (status, body)`` over *client*.

    A universe request is encoded once and kept in *encoded* (shared by the
    clients, and pre-filled where the first use must not be on the clock);
    writes (index -1) are encoded as they come.
    """
    close = not client.keepalive

    def call(request) -> tuple[int, bytes]:
        raw = encoded.get(request.index)
        if raw is None:
            raw = encode_request("/query", request.body(), close=close)
            if request.index >= 0:
                encoded[request.index] = raw
        return client.exchange(raw)
    return call


@dataclass
class Op:
    """One completed (or failed) operation of the closed loop."""

    request: object          # the workload's Request
    start: float
    end: float
    status: int              # 0: transport failure
    body: bytes | object     # raw reply (HTTP) or result object (embedded)
    error: str = ""

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


def closed_loop(streams: list[Iterator], perform: list[Callable],
                seconds: float, max_ops: int | None = None) -> list[list[Op]]:
    """Run one client thread per stream until the deadline.

    ``perform[i](request) -> (status, body)`` executes one operation for
    client *i*; exceptions count as failed operations.  Returns each
    client's operations in issue order.
    """
    barrier = threading.Barrier(len(streams) + 1)
    logs: list[list[Op]] = [[] for _ in streams]
    deadline = [0.0]

    def client(index: int) -> None:
        stream, call, log = streams[index], perform[index], logs[index]
        clock = time.perf_counter
        barrier.wait()
        while clock() < deadline[0] and (max_ops is None
                                         or len(log) < max_ops):
            request = next(stream)
            start = clock()
            try:
                status, body = call(request)
                log.append(Op(request, start, clock(), status, body))
            except Exception as error:  # a failed operation, not a crash
                log.append(Op(request, start, clock(), 0, b"",
                              f"{type(error).__name__}: {error}"))

    threads = [threading.Thread(target=client, args=(i,), daemon=True)
               for i in range(len(streams))]
    for thread in threads:
        thread.start()
    deadline[0] = time.perf_counter() + seconds
    barrier.wait()
    for thread in threads:
        thread.join(timeout=seconds + 4 * SOCKET_TIMEOUT)
        if thread.is_alive():
            raise RuntimeError("a load-generator client did not finish")
    return logs


class _EchoHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        # One write for headers + body: the echo must not add a server-side
        # Nagle stall of its own to the client cost being measured.
        self.wfile.write(b"HTTP/1.1 200 OK\r\nContent-Type: application/json"
                         b"\r\nContent-Length: %d\r\n\r\n%s"
                         % (len(body), body))

    def log_message(self, format, *args) -> None:
        pass


def client_overhead_ms(keepalive: bool, requests: int = 300) -> float:
    """Median ms of one exchange against a trivial stdlib echo handler."""
    # One client, so a single-threaded server: no thread per connection to
    # be mistaken for client cost.
    httpd = HTTPServer(("127.0.0.1", 0), _EchoHandler)
    thread = threading.Thread(target=httpd.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    client = HttpClient(httpd.server_address[:2], keepalive)
    request = encode_request("/query", {"sql": "select 1;", "params": [1, 2]},
                             close=not keepalive)
    samples = []
    try:
        for _ in range(requests):
            start = time.perf_counter()
            client.exchange(request)
            samples.append((time.perf_counter() - start) * 1000.0)
    finally:
        client.close()
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)
    return percentile(samples[requests // 10:], 50)
