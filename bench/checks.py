"""Correctness inside the benchmark: every answer is checked, none is trusted.

* :func:`cross_backend_check` — before anything is timed, every query shape
  of the workload runs on a 256-world copy of the dataset on both the
  ``explicit`` (enumerating, the oracle) and the ``wsd`` backend; they must
  agree to 1e-9.
* :class:`Reference` — answers computed in-process on a freshly built
  session, one per distinct request; every answer of a read-only workload is
  compared with its reference.
* :func:`replay_check` — for a read/write history: acknowledged write
  generations must be gap-free, and sampled reads must equal a serial replay
  of the acknowledged write order at the generation each answer reports.
* :func:`golden_digest` — a digest of the default-seed reference answers,
  committed as ``golden.json``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
from typing import Iterable

import datasets
from env import BENCH
from loadgen import Op
from repro.serving.server import result_payload
from workloads import OBS_SCAN, Request, Workload

TOLERANCE = 1e-9
#: Every n-th read of a read/write history is replayed.
REPLAY_SAMPLE = 20
GOLDEN_REQUESTS = 64
#: Requests per statement shape, and writes, of the explicit-vs-wsd check.
CROSS_CHECK_PER_SHAPE = 2
CROSS_CHECK_WRITES = 6
#: The seed whose reference answers ``golden.json`` pins (the default seed).
GOLDEN_SEED = 11
GOLDEN_PATH = BENCH / "golden.json"


def _row_key(row) -> tuple:
    exact = [cell for cell in row if not isinstance(cell, float)]
    return repr(exact), [cell for cell in row if isinstance(cell, float)]


def _relation(entry: dict) -> list:
    return [entry["columns"], sorted(entry["rows"], key=_row_key)]


def canonical(payload: dict) -> list:
    """An order-insensitive form of one ``/query`` payload (no generation)."""
    kind = payload.get("kind")
    if kind == "rows":
        form = ["rows", _relation(payload)]
    elif kind == "world_rows":
        answers = [_relation(answer) + [answer["probability"]]
                   for answer in payload["answers"]]
        form = ["world_rows", sorted(answers, key=lambda a: repr(a[:2]))]
    elif kind == "wsd_rows":
        form = ["wsd_rows", payload["relation"], payload["template_tuples"],
                payload["components"], payload["log10_worlds"]]
    elif kind == "command":
        form = ["command", payload["rowcount"]]
    else:
        raise ValueError(f"not a result payload: {str(payload)[:200]}")
    if payload.get("approximate"):
        approximation = payload["approximation"]
        form.append([approximation[name] for name in sorted(approximation)])
    return form


def same(left, right, tolerance: float = TOLERANCE) -> bool:
    """Structural equality with a tolerance on floats."""
    if isinstance(left, float) or isinstance(right, float):
        return (isinstance(left, (int, float))
                and isinstance(right, (int, float))
                and abs(left - right) <= tolerance)
    if isinstance(left, (list, tuple)):
        return (isinstance(right, (list, tuple)) and len(left) == len(right)
                and all(same(a, b, tolerance) for a, b in zip(left, right)))
    return left == right


# -- explicit vs wsd on an enumerable copy ---------------------------------------------------


def _answer_pairs(result) -> list:
    if result.is_wsd_rows():
        worlds = result.answer_decomposition().to_worldset()
        return [(world.probability, world.relation(result.relation_name))
                for world in worlds]
    return [(answer.probability, answer.relation)
            for answer in result.world_answers]


def _distribution(result) -> dict:
    """``fingerprint -> mass`` of a per-world / compact / grouped answer."""
    pairs = _answer_pairs(result)
    weights = [probability for probability, _ in pairs]
    if any(weight is None for weight in weights):
        weights = [1.0] * len(pairs)
    total = sum(weights)
    masses: dict = {}
    for weight, (_, relation) in zip(weights, pairs):
        key = (tuple(relation.schema.names()), relation.fingerprint())
        masses[key] = masses.get(key, 0.0) + weight / total
    return masses


def _agree(expected, actual) -> bool:
    if expected.kind == "command" or actual.kind == "command":
        # Row counts are not compared: the explicit backend counts a deleted
        # row once per world.  The reads that follow check the effect.
        return expected.kind == actual.kind
    if expected.is_rows() or actual.is_rows():
        return (expected.is_rows() and actual.is_rows()
                and same(canonical(result_payload(expected)),
                         canonical(result_payload(actual))))
    left = _distribution(expected)
    right = _distribution(actual)
    return set(left) == set(right) and all(
        abs(mass - right[key]) <= TOLERANCE for key, mass in left.items())


def _shape(request: Request) -> str:
    return re.sub(r"\d+", "#", request.sql)


def cross_backend_check(workload: Workload, seed: int) -> int:
    """Run every query shape on both backends; returns statements compared.

    Raises ``AssertionError`` naming the first disagreement.
    """
    size = datasets.SIZE_TINY
    explicit = datasets.session(size, seed, backend="explicit")
    wsd = datasets.session(size, seed, backend="wsd")
    chosen: dict[str, list[Request]] = {}
    for request in workload.universe(seed, size):
        if not request.approx:   # 2^16 worlds: checked against exact wsd
            bucket = chosen.setdefault(_shape(request), [])
            if len(bucket) < CROSS_CHECK_PER_SHAPE:
                bucket.append(request)
    requests = [request for bucket in chosen.values() for request in bucket]
    stream = workload.stream(seed, 0)
    pending = [request for request in itertools.islice(stream, 240)
               if request.is_write][:CROSS_CHECK_WRITES]
    compared = 0
    for request in requests + pending + requests[:len(chosen)] \
            + ([Request(OBS_SCAN)] if pending else []):
        expected = explicit.execute(request.sql, request.params)
        actual = wsd.execute(request.sql, request.params)
        if not _agree(expected, actual):
            raise AssertionError(
                f"explicit and wsd backends disagree on {request.sql!r} "
                f"{request.params!r}")
        compared += 1
    return compared


# -- reference answers -----------------------------------------------------------------------


class Reference:
    """Reference answers from freshly built in-process sessions."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self._session = None
        self._approx = None
        self._answers: dict[int, list] = {}
        #: (index, raw body) pairs already verified — the fast path.
        self._verified: set = set()

    def session_for(self, request: Request):
        if request.approx:
            if self._approx is None:
                self._approx = datasets.approx_session(tight=True)
            return self._approx
        if self._session is None:
            self._session = datasets.session(self.workload.size, self.seed)
        return self._session

    def answer(self, request: Request) -> list:
        """The canonical reference answer of one universe request."""
        cached = self._answers.get(request.index)
        if cached is None:
            result = self.session_for(request).prepare(request.sql).execute(
                request.params, request.options)
            cached = self._answers[request.index] = canonical(
                result_payload(result))
        return cached

    def check_payload(self, request: Request, payload: dict) -> str:
        """'' when *payload* answers *request* correctly, else the reason."""
        try:
            actual = canonical(payload)
        except (KeyError, TypeError, ValueError) as error:
            return f"malformed answer: {error}"
        if not same(self.answer(request), actual):
            return f"wrong answer to {request.sql!r} {request.params!r}"
        return ""

    def check_http(self, op: Op) -> str:
        if op.status != 200:
            return op.error or f"HTTP {op.status}: {bytes(op.body)[:200]!r}"
        key = (op.request.index, op.body)
        if key in self._verified:
            return ""
        try:
            payload = json.loads(op.body)
        except ValueError as error:
            return f"unparseable answer: {error}"
        reason = self.check_payload(op.request, payload)
        if not reason:
            self._verified.add(key)
        return reason

    def check_embedded(self, op: Op) -> str:
        if op.status != 200:
            return op.error
        return self.check_payload(op.request, result_payload(op.body))


def golden_digest(workload: Workload, seed: int) -> str:
    """SHA-256 over the first reference answers (floats to 6 decimals)."""
    reference = Reference(workload, seed)

    def rounded(value):
        if isinstance(value, float):
            return round(value, 6)
        if isinstance(value, list):
            return [rounded(item) for item in value]
        return value

    answers = [rounded(reference.answer(request))
               for request in workload.universe(seed)[:GOLDEN_REQUESTS]]
    return hashlib.sha256(json.dumps(answers).encode()).hexdigest()


def golden_problem(workload: Workload) -> str:
    """'' when the default-seed reference answers match ``golden.json``."""
    try:
        golden = json.loads(GOLDEN_PATH.read_text())["digests"]
    except (OSError, ValueError, KeyError) as error:
        return f"golden.json unreadable: {error}"
    digest = golden_digest(workload, GOLDEN_SEED)
    if golden.get(workload.name) != digest:
        return (f"reference answers of seed {GOLDEN_SEED} changed: digest "
                f"{digest[:16]} is not the committed one")
    return ""


# -- read/write histories --------------------------------------------------------------------


def replay_check(workload: Workload, seed: int, ops: Iterable[Op],
                 base_generation: int) -> tuple[dict[int, str], str, object]:
    """Check a read/write history against a serial replay.

    Returns ``(failures, history_error, replay_session)``: *failures* maps
    positions in *ops* to reasons (non-200, malformed, wrong sampled read);
    *history_error* is non-empty when acknowledged write generations are not
    gap-free (the history itself cannot be replayed serially).  The replay
    session ends at the last acknowledged generation.
    """
    ops = list(ops)
    failures: dict[int, str] = {}
    writes: dict[int, Request] = {}
    reads: dict[int, list[tuple[int, Request, dict]]] = {}
    seen_reads = 0
    for position, op in enumerate(ops):
        if op.status != 200:
            failures[position] = op.error or f"HTTP {op.status}"
            continue
        try:
            payload = json.loads(op.body)
            generation = payload["generation"]
        except (ValueError, KeyError, TypeError) as error:
            failures[position] = f"malformed answer: {error}"
            continue
        if op.request.is_write:
            if generation in writes:
                failures[position] = f"generation {generation} acknowledged twice"
            writes[generation] = op.request
            continue
        seen_reads += 1
        if seen_reads % REPLAY_SAMPLE == 0:
            reads.setdefault(generation, []).append(
                (position, op.request, payload))
    last = base_generation + len(writes)
    history_error = ""
    if sorted(writes) != list(range(base_generation + 1, last + 1)):
        history_error = (f"acknowledged write generations are not gap-free "
                         f"from {base_generation + 1}: {sorted(writes)[:8]}...")
    replay = datasets.session(workload.size, seed)
    for generation in range(base_generation, last + 1):
        if generation > base_generation and generation in writes:
            write = writes[generation]
            replay.execute(write.sql, write.params)
        for position, request, payload in reads.pop(generation, []):
            expected = canonical(result_payload(
                replay.execute(request.sql, request.params)))
            try:
                if not same(expected, canonical(payload)):
                    failures[position] = (
                        f"answer at generation {generation} differs from the "
                        f"serial replay: {request.sql!r} {request.params!r}")
            except (KeyError, TypeError, ValueError) as error:
                failures[position] = f"malformed answer: {error}"
    for generation, entries in reads.items():
        for position, _, _ in entries:
            failures[position] = (f"answer reports generation {generation}, "
                                  f"outside {base_generation}..{last}")
    return failures, history_error, replay
