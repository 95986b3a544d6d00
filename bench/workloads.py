"""The four workloads: what is asked, in which order, of which program.

Every request sequence is a pure function of ``(seed, client thread)``: the
program under test receives only these generated inputs.  A workload owns a
finite *universe* of distinct read requests (so a reference answer can be
computed once per distinct request) and an endless *stream* of operations
drawn from it; write requests are generated inline by the stream.

The seed picks values and order; it does not pick the *mix*.  Which kinds
of operation a stream issues, and in what proportion, is a fixed pattern,
and small argument pools are stratified grids shifted by the seed — so two
seeds ask for the same amount of work and a metric that differs between
them is not an artefact of the draw.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field
from typing import Iterator

from datasets import SIZE_M, SIZE_S, Size, p1_range

CONF_SEL = "select conf, K from I where P1 > ? and K < ?;"
POSSIBLE_SEL = "select possible K, P1 from I where P1 > ? and K < ?;"
CERTAIN = "select certain K from I where B < ?;"
OBS_JOIN = ("select conf, I.K from I, Obs "
            "where I.K = Obs.K and I.P1 > ? and Obs.V < ?;")
INSERT_OBS = "insert into Obs values (?, ?);"
DELETE_OBS = "delete from Obs where K = ?;"
#: Reads the whole DML target; the recovery check compares it to the replay.
OBS_SCAN = "select possible K, V from Obs;"

# The analytic classes range over a window of keys ``? <= K < ?`` so that
# d-trees, convolutions and world groups stay interactive on 6^200 worlds.
CONF_JOIN = ("select conf from I i1, L, I i2 where i1.K = L.A and i2.K = L.B "
             "and i1.P1 > i2.P1 + ? and L.A >= ? and L.A < ?;")
AGG_SUM = "select possible sum(B) from I where K >= ? and K < ?;"
AGG_AVG = "select possible avg(B) from I where K >= ? and K < ?;"
AGG_COUNT = "select conf, count(*) from I where B < ? and K >= ? and K < ?;"
GROUP_COUNT = ("select possible K from I where B < ? group worlds by "
               "(select count(*) from I where K >= ? and K < ? and B > 7);")
GROUP_SUM = ("select possible K from I where K >= ? and K < ? "
             "group worlds by (select sum(B) from I where K >= ? and K < ?);")
SETOP_UNION = "select K from I where B > ? union select K from I where B < ?;"
SETOP_EXCEPT = ("select K from I where K >= ? and K < ? except "
                "select K from I where B > ?;")
APPROX_DENSE = ("select conf from I i1, L, I i2 where i1.K = L.A "
                "and i2.K = L.B and (i1.P1 = 1 or i2.P1 = 1);")
APPROX_RARE = ("select conf from I i1, L, I i2 where i1.K = L.A "
               "and i2.K = L.B and i1.P1 = 1 and i2.P1 = 1;")

#: Executions of each class per round, chosen so every class takes a roughly
#: equal share of the round's time on the commit that added the benchmark.
ANALYTIC_REPEATS = {"sel": 80, "certain": 24, "conf_join": 4, "agg": 16,
                    "group_worlds": 6, "setop": 4, "anytime": 2}

RESULT_CACHE = 256        # ``serve --result-cache`` default


@dataclass(frozen=True)
class Request:
    """One statement to execute; ``index`` is its slot in the universe."""

    sql: str
    params: tuple = ()
    cls: str = "read"
    options: dict | None = field(default=None, hash=False, compare=False)
    index: int = -1          # -1: a write, generated by the stream
    approx: bool = False     # runs on the tight-budget APPROX session

    @property
    def is_write(self) -> bool:
        return self.index < 0

    def body(self) -> dict:
        payload = {"sql": self.sql, "params": list(self.params)}
        payload.update(self.options or {})
        return payload


def inline(sql: str, params: tuple) -> str:
    """The same statement with each ``?`` replaced by its integer literal."""
    pieces = sql.split("?")
    assert len(pieces) == len(params) + 1
    text = pieces[0]
    for param, piece in zip(params, pieces[1:]):
        text += str(param) + piece
    return text


def _selection_params(rng: random.Random, size: Size) -> tuple:
    return rng.randrange(p1_range(size)), rng.randint(1, size.groups)


def _distinct(count: int, draw) -> list:
    """Up to *count* distinct draws (fewer when the domain is smaller)."""
    seen: dict = {}
    for _ in range(50 * count):
        seen.setdefault(draw(), None)
        if len(seen) == count:
            break
    return list(seen)


def _windows(rng: random.Random, size: Size, count: int,
             width: int) -> list[tuple[int, int]]:
    """*count* key windows ``[low, low + width)`` spread evenly over the
    keys, all shifted by one seeded offset."""
    width = min(width, size.groups)
    span = size.groups - width
    stride = max(span // count, 1)
    shift = rng.randrange(stride)
    return [(low, low + width)
            for low in ((shift + step * stride) % (span + 1)
                        for step in range(count))]


def write_stream(rng: random.Random, groups: int) -> Iterator[Request]:
    """Writes on ``Obs`` in threes: two inserts under one new key, then a
    delete of the key before it.

    Two thirds inserts, one third deletes: the median write is an insert
    and the 95th percentile a delete on every seed (an even split would put
    the median on the boundary between the two).  Only keys not divisible
    by four are touched, so the initial rows stay and ``Obs`` remains within
    four rows of its initial ``groups / 4``.
    """
    previous = None
    while True:
        key = 4 * rng.randrange(groups // 4) + rng.randint(1, 3)
        yield Request(INSERT_OBS, (key, rng.randint(0, 99)), cls="write")
        yield Request(INSERT_OBS, (key, rng.randint(0, 99)), cls="write")
        if previous is None:
            yield Request(INSERT_OBS, (key, rng.randint(0, 99)), cls="write")
        else:
            yield Request(DELETE_OBS, (previous,), cls="write")
        previous = key


class Workload:
    """Base: a name, a reason, a dataset size and how the program is run."""

    name = ""
    why = ""
    size: Size = SIZE_S
    #: ``keepalive`` / ``newconn`` (HTTP, CLI subprocess) or ``embedded``.
    transport = "keepalive"
    serve_args: tuple[str, ...] = ()
    result_cache = RESULT_CACHE
    clients = 2
    #: Operations each client issues, untimed, before the window opens.
    warmup = 0
    #: Whether the stream contains writes (then answers are checked against
    #: a serial replay, and recovery is exercised).
    writes = False

    def universe(self, seed: int, size: Size | None = None) -> list[Request]:
        """The distinct read requests (built once per seed and size; streams
        and set-ups ask for it repeatedly, some of them on the clock)."""
        return _universe(self, seed, size or self.size)

    def build_universe(self, seed: int, size: Size) -> list[Request]:
        raise NotImplementedError

    def stream(self, seed: int, thread: int) -> Iterator[Request]:
        raise NotImplementedError

    def _rng(self, seed: int, *salt) -> random.Random:
        return random.Random(":".join(map(str, (self.name, seed) + salt)))

    def interleaved(self, seed: int) -> Iterator[Request]:
        """The client streams merged round-robin (the traced replay order)."""
        streams = [self.stream(seed, thread) for thread in range(self.clients)]
        while True:
            for stream in streams:
                yield next(stream)


@functools.lru_cache(maxsize=16)
def _universe(workload: Workload, seed: int, size: Size) -> list[Request]:
    return workload.build_universe(seed, size)


def _three_shapes(rng: random.Random, size: Size, count: int) -> list[Request]:
    """*count* distinct requests over the three parameterised read shapes.

    ``certain ... where B < ?`` only has ten distinct arguments; the two
    selections share the rest evenly.
    """
    certain = [Request(CERTAIN, (bound,)) for bound in range(1, 11)]
    rest = count - len(certain)
    conf = _distinct((rest + 1) // 2, lambda: _selection_params(rng, size))
    possible = _distinct(rest // 2, lambda: _selection_params(rng, size))
    requests = (certain + [Request(CONF_SEL, p) for p in conf]
                + [Request(POSSIBLE_SEL, p) for p in possible])
    rng.shuffle(requests)
    return [Request(r.sql, r.params, index=i) for i, r in enumerate(requests)]


class HttpHotReads(Workload):
    name = "http_hot_reads"
    why = ("64 repeated reads fit the result cache (256) and 3 texts the "
           "statement cache (64): HTTP, JSON, handler and cache lookups do "
           "nearly all the work")
    size = SIZE_S
    distinct = 64
    zipf = 1.1
    warmup = 32           # each client's half of the universe, once

    def build_universe(self, seed, size):
        return _three_shapes(self._rng(seed, "universe"), size, self.distinct)

    def stream(self, seed, thread):
        universe = self.universe(seed)
        rng = self._rng(seed, "stream", thread)
        weights = list(itertools.accumulate(
            1.0 / rank ** self.zipf for rank in range(1, len(universe) + 1)))
        # Each client first walks its share of the universe once (the
        # warm-up consumes exactly that), then draws Zipf-distributed.
        yield from universe[thread::self.clients]
        while True:
            yield from rng.choices(universe, cum_weights=weights, k=256)


class PoolReads(Workload):
    name = "pool_reads"
    why = ("a new connection per request against 2 pre-forked workers with "
           "no result cache: accept spread, process parallelism and "
           "connection set-up, with every request executing")
    size = SIZE_S
    transport = "newconn"
    serve_args = ("--workers", "2", "--result-cache", "0")
    result_cache = 0
    distinct = 4096
    warmup = 300

    def build_universe(self, seed, size):
        return _three_shapes(self._rng(seed, "universe"), size, self.distinct)

    def stream(self, seed, thread):
        universe = self.universe(seed)
        rng = self._rng(seed, "stream", thread)
        while True:
            yield from rng.choices(universe, k=256)


class HttpMixedRw(Workload):
    name = "http_mixed_rw"
    why = ("90% reads over 4096 distinct arguments (16x the result cache), "
           "a quarter with inlined literals (texts > statement cache), 10% "
           "durable writes: misses, invalidation, writer lock, WAL fsync, "
           "re-grounding")
    size = SIZE_M
    serve_args = ("--snapshot-every", "256")
    distinct = 4096
    #: One client's repeating pattern: 18 reads, alternating selection and
    #: join, and 2 writes (10 %).  Fixed, so that every seed has the same
    #: share of writes and the same kinds of read following them.
    pattern = "sjsjsjsWjsjsjsjsjWsj"
    inline_every = 4      # every fourth request of a kind inlines its literals
    warmup = 30
    writes = True

    def build_universe(self, seed, size):
        """Slot ``i``: a selection when ``i`` is even (``conf`` and
        ``possible`` in turn), the ``Obs`` join when odd."""
        rng = self._rng(seed, "universe")
        selections = _distinct(self.distinct // 2,
                               lambda: _selection_params(rng, size))
        joins = _distinct(self.distinct // 2, lambda: (
            rng.randrange(p1_range(size)), rng.randint(1, 100)))
        universe = []
        for i in range(self.distinct):
            if i % 2:
                sql, params = OBS_JOIN, joins[i // 2]
            else:
                sql = POSSIBLE_SEL if i % 4 else CONF_SEL
                params = selections[i // 2]
            if (i // 2) % self.inline_every == 0:
                sql, params = inline(sql, params), ()
            universe.append(Request(sql, params, index=i))
        return universe

    def stream(self, seed, thread):
        universe = self.universe(seed)
        kinds = {"s": universe[0::2], "j": universe[1::2]}
        rng = self._rng(seed, "stream", thread)
        writes = write_stream(rng, self.size.groups)
        # The second client starts half a pattern later, so the two do not
        # write in lock-step.
        start = thread * len(self.pattern) // self.clients
        for slot in itertools.count(start):
            kind = self.pattern[slot % len(self.pattern)]
            yield next(writes) if kind == "W" else rng.choice(kinds[kind])


class EmbeddedAnalytics(Workload):
    name = "embedded_analytics"
    why = ("no server, one thread, prepared statements over seven query "
           "classes (selection, certain, d-tree join, convolution, group "
           "worlds by, set operations, anytime sampling): the wsd engine "
           "does all the work")
    size = SIZE_M
    transport = "embedded"
    clients = 1
    warmup = sum(ANALYTIC_REPEATS.values())   # one full round

    def build_universe(self, seed, size):
        rng = self._rng(seed, "universe")
        groups, top = size.groups, p1_range(size)

        def windows(count, width):
            return _windows(rng, size, count, width)

        classes = {
            "sel": [(POSSIBLE_SEL, (top * t // 5, groups * k // 4))
                    for t in (1, 2, 3, 4) for k in (1, 2, 3, 4)],
            "certain": [(CERTAIN, (bound,)) for bound in range(1, 11)],
            "conf_join": [(CONF_JOIN, (top * (i % 4) // 12, low, high))
                          for i, (low, high) in enumerate(windows(16, 5))],
            "agg": [(AGG_SUM, window) for window in windows(8, 10)]
                   + [(AGG_AVG, window) for window in windows(8, 8)]
                   + [(AGG_COUNT, (2 + i % 8, low, high))
                      for i, (low, high) in enumerate(windows(16, 30))],
            "group_worlds": [(GROUP_COUNT, (1 + i % 3, low, high))
                             for i, (low, high) in enumerate(windows(12, 5))]
                            + [(GROUP_SUM, (low, low + 2, low, high))
                               for low, high in windows(6, 3)],
            "setop": [(SETOP_UNION, (high, low))
                      for high in (5, 6, 7) for low in (2, 3)]
                     + [(SETOP_EXCEPT, (low, high, 5 + i % 3))
                        for i, (low, high) in enumerate(windows(6, 40))],
        }
        universe = []
        for cls, shapes in classes.items():
            rng.shuffle(shapes)
            for sql, params in shapes:
                universe.append(Request(sql, params, cls=cls,
                                        index=len(universe)))
        for sample_seed in range(8):
            for sql in (APPROX_DENSE, APPROX_RARE):
                universe.append(Request(
                    sql, (), cls="anytime", index=len(universe), approx=True,
                    options={"degradation": "anytime", "seed": sample_seed}))
        return universe

    def stream(self, seed, thread):
        by_class: dict[str, list[Request]] = {}
        for request in self.universe(seed):
            by_class.setdefault(request.cls, []).append(request)
        cursors = {cls: itertools.cycle(requests)
                   for cls, requests in by_class.items()}
        # One round holds every class its fixed number of times, in a fixed
        # shuffled order: any stretch of the stream has the same mix.
        order = [cls for cls, repeats in ANALYTIC_REPEATS.items()
                 for _ in range(repeats)]
        random.Random("round-order").shuffle(order)
        while True:
            for cls in order:
                yield next(cursors[cls])


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (HttpHotReads(), HttpMixedRw(), EmbeddedAnalytics(),
                     PoolReads())
}
