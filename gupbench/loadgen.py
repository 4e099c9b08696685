"""Request generation and the HTTP load generator.

Everything the server receives is generated here from the workload
seed: a Zipf or uniform choice of subscriber, a read/write mix, and a
Poisson arrival schedule for the open-loop phase. The generator runs in
one process with at most :data:`CONNECTIONS` requests in flight.

* **Open loop** — requests are due on the seeded schedule whatever the
  server does. Latency is timed from when a request was *due*, so a
  request that waits for a free connection behind a stalled one counts
  that wait. ``late_ms`` is how far the generator itself fell behind:
  the time between the moment a request could go (due and a connection
  free) and the moment it went.
* **Closed loop** — :data:`CONNECTIONS` callers each send the next
  request when the previous answer arrives; completed successes per
  second is the goodput.
"""

from __future__ import annotations

import asyncio
import json
import math
import random
import statistics
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, Iterator, List, Optional, Sequence, Tuple
from urllib.parse import quote

from world import REQUESTER, component_path, profile_path, written_book

#: Requests in flight at most: one per CPU of the 2-CPU reference host.
CONNECTIONS = 2
#: A request not answered in this long counts as failed.
REQUEST_TIMEOUT_S = 10.0
#: Keep every Nth response body for the output check after the phase.
SAMPLE_EVERY = 8


# ---------------------------------------------------------------------------
# Seeded choices
# ---------------------------------------------------------------------------

class ZipfChooser:
    """Zipf(*exponent*) popularity over a seeded permutation of *items*
    (the hot head is scattered, not the lexicographic front)."""

    def __init__(
        self, items: Sequence[str], exponent: float, rng: random.Random
    ) -> None:
        self.ranked = list(items)
        rng.shuffle(self.ranked)
        self._cdf = list(accumulate(
            1.0 / (rank + 1) ** exponent for rank in range(len(items))
        ))

    def pick(self, rng: random.Random) -> str:
        draw = rng.random() * self._cdf[-1]
        return self.ranked[min(bisect_right(self._cdf, draw),
                               len(self.ranked) - 1)]


class UniformChooser:
    def __init__(self, items: Sequence[str]) -> None:
        self.items = list(items)

    def pick(self, rng: random.Random) -> str:
        return self.items[rng.randrange(len(self.items))]


@dataclass(frozen=True)
class Op:
    """One generated request: a read of a whole profile, or a write of
    one address book; *raw* is the request as sent."""

    kind: str  # "read" | "write"
    user_id: str
    raw: bytes
    written: Optional[str] = None  # serialized address book, writes only


def read_bytes(user_id: str, pattern: str) -> bytes:
    target = "/v1/query?pattern=%s&path=%s" % (
        pattern, quote(profile_path(user_id), safe="")
    )
    return (
        "GET %s HTTP/1.1\r\nhost: gupbench\r\nx-requester: %s\r\n"
        "x-purpose: query\r\n\r\n" % (target, REQUESTER)
    ).encode("latin-1")


def write_bytes(user_id: str, book: str) -> bytes:
    body = json.dumps({
        "path": component_path(user_id, "address-book"),
        "fragment": book,
    }).encode("utf-8")
    head = (
        "POST /v1/provision HTTP/1.1\r\nhost: gupbench\r\n"
        "x-requester: %s\r\nx-purpose: provision\r\n"
        "content-type: application/json\r\ncontent-length: %d\r\n\r\n"
        % (REQUESTER, len(body))
    )
    return head.encode("latin-1") + body


class OpStream:
    """An endless, seeded stream of requests for one workload."""

    def __init__(
        self,
        chooser: object,
        pattern: str,
        write_share: float,
        rng: random.Random,
    ) -> None:
        self.chooser = chooser
        self.pattern = pattern
        self.write_share = write_share
        self.rng = rng
        self.writes = 0

    def __iter__(self) -> Iterator[Op]:
        return self

    def __next__(self) -> Op:
        rng = self.rng
        user_id = self.chooser.pick(rng)  # type: ignore[attr-defined]
        if self.write_share and rng.random() < self.write_share:
            self.writes += 1
            book = written_book(user_id, self.writes, rng).serialize()
            return Op("write", user_id, write_bytes(user_id, book), book)
        return Op("read", user_id, read_bytes(user_id, self.pattern))


def arrival_offsets(
    rate_per_s: float, seconds: float, rng: random.Random
) -> List[float]:
    """Poisson arrival instants (s from phase start) at *rate_per_s*."""
    offsets: List[float] = []
    now = rng.expovariate(rate_per_s)
    while now < seconds:
        offsets.append(now)
        now += rng.expovariate(rate_per_s)
    return offsets


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def quantile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an already sorted sample."""
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


#: Tail percentiles tried, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(samples: Sequence[float]) -> Tuple[float, float]:
    """(percentile, value): the highest of :data:`TAIL_PERCENTILES`
    with at least ten samples beyond it, so the tail reported always
    rests on ten observations. (50.0, median) for tiny samples."""
    ordered = sorted(samples)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100.0 * len(ordered))
        if len(ordered) - rank >= 10:
            return pct, ordered[max(rank, 1) - 1]
    return 50.0, quantile(ordered, 0.5)


# ---------------------------------------------------------------------------
# The HTTP client
# ---------------------------------------------------------------------------

@dataclass
class Result:
    kind: str
    user_id: str
    status: int  # 0: no HTTP answer (connection error or timeout)
    latency_ms: float
    due_at: float  # when the request was due (its send time if closed loop)
    sent_at: float
    done_at: float
    body: Optional[bytes] = None
    written: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status in (200, 201)


async def _exchange(host: str, port: int, raw: bytes) -> Tuple[int, bytes]:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(raw)
        await writer.drain()
        data = await reader.read()
    finally:
        writer.close()
    head, _sep, body = data.partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n", 1)[0].split(b" ")
    status = int(status_line[1]) if len(status_line) > 1 else 0
    return status, body


async def send_op(host: str, port: int, op: Op, keep_body: bool,
                started: float) -> Result:
    """Send *op*; latency counts from *started* (due time or send)."""
    sent = time.perf_counter()
    try:
        status, body = await asyncio.wait_for(
            _exchange(host, port, op.raw), REQUEST_TIMEOUT_S
        )
    except (OSError, asyncio.TimeoutError, ValueError, IndexError):
        status, body = 0, b""
    done = time.perf_counter()
    result = Result(op.kind, op.user_id, status, (done - started) * 1000.0,
                    started, sent, done)
    if result.ok:
        result.written = op.written
        if keep_body and op.kind == "read":
            result.body = body
    return result


@dataclass
class PhaseResult:
    """Everything the client saw in one slice of a phase (or, merged,
    in a whole phase)."""

    wall_s: float
    cpu_s: float
    results: List[Result] = field(default_factory=list)
    late_max_ms: float = 0.0

    @classmethod
    def merge(cls, slices: Sequence["PhaseResult"]) -> "PhaseResult":
        return cls(
            sum(part.wall_s for part in slices),
            sum(part.cpu_s for part in slices),
            [result for part in slices for result in part.results],
            max(part.late_max_ms for part in slices),
        )

    @property
    def cpu_busy(self) -> float:
        return self.cpu_s / self.wall_s

    def succeeded(self) -> int:
        return sum(1 for r in self.results if r.ok)

    def failed(self) -> int:
        return sum(1 for r in self.results if not r.ok)

    def mean_exchange_ms(self) -> float:
        """Mean time from sending a request to its answer (no wait for
        a connection or schedule lateness)."""
        done = [r.done_at - r.sent_at for r in self.results if r.ok]
        return sum(done) / len(done) * 1000.0 if done else 0.0

    def latencies(self, kind: str) -> List[float]:
        return [r.latency_ms for r in self.results
                if r.ok and r.kind == kind]


def median_goodput(slices: Sequence[PhaseResult], groups: int,
                   scales: Optional[Sequence[float]] = None) -> float:
    """Median, over runs of consecutive successful answers (*groups*
    per slice), of each run's answers per second. A stall of the
    server's event loop slows the run it falls in, not the figure.
    Each slice's times are multiplied by its entry in *scales*."""
    rates = []
    for part, scale in zip(slices, scales or [1.0] * len(slices)):
        done = sorted(r.done_at for r in part.results if r.ok)
        size = len(done) // groups
        if size < 2:
            raise ValueError("too few answers for %d groups" % groups)
        for index in range(groups):
            chunk = done[index * size:(index + 1) * size]
            rates.append((len(chunk) - 1) / (chunk[-1] - chunk[0]) / scale)
    return statistics.median(rates)


def median_p50_ms(slices: Sequence[PhaseResult], segments: int,
                  scales: Optional[Sequence[float]] = None) -> float:
    """Median, over *segments* equal runs of each slice's requests in
    the order they were due (sent, in a closed loop), of each run's
    median latency. Each slice's times are multiplied by its entry in
    *scales*."""
    medians = []
    for part, scale in zip(slices, scales or [1.0] * len(slices)):
        ok = sorted((r.due_at, r.latency_ms) for r in part.results if r.ok)
        size = len(ok) // segments
        if size < 1:
            raise ValueError("too few answers for %d segments" % segments)
        for index in range(segments):
            medians.append(scale * quantile(sorted(
                latency for _due, latency in ok[index * size:(index + 1) * size]
            ), 0.5))
    return statistics.median(medians)


async def open_loop(
    host: str, port: int, stream: OpStream, offsets: Sequence[float],
) -> PhaseResult:
    """Send one request of *stream* at each offset, at most
    :data:`CONNECTIONS` in flight, timing each from its due instant."""
    slots = asyncio.Semaphore(CONNECTIONS)
    tasks: List["asyncio.Task[Result]"] = []
    late = [0.0]
    # When the dispatcher last got a connection after waiting for one:
    # requests due before then were held up by the server, not by us.
    unblocked = 0.0
    cpu0, t0 = time.process_time(), time.perf_counter()

    async def one(op: Op, due: float, ready: float, keep: bool) -> Result:
        late[0] = max(late[0], time.perf_counter() - ready)
        try:
            return await send_op(host, port, op, keep, due)
        finally:
            slots.release()

    for index, offset in enumerate(offsets):
        due = t0 + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        if slots.locked():
            await slots.acquire()
            unblocked = time.perf_counter()
        else:
            await slots.acquire()
        ready = max(due, unblocked)
        tasks.append(asyncio.get_running_loop().create_task(
            one(next(stream), due, ready, index % SAMPLE_EVERY == 0)
        ))
    results = list(await asyncio.gather(*tasks))
    return PhaseResult(time.perf_counter() - t0, time.process_time() - cpu0,
                       results, late[0] * 1000.0)


async def closed_loop(
    host: str, port: int, stream: OpStream, seconds: float,
) -> PhaseResult:
    """:data:`CONNECTIONS` callers, each sending its next request on the
    answer to its last, until *seconds* have passed."""
    cpu0, t0 = time.process_time(), time.perf_counter()
    deadline = t0 + seconds
    results: List[Result] = []

    async def caller() -> None:
        while time.perf_counter() < deadline:
            op = next(stream)
            keep = len(results) % SAMPLE_EVERY == 0
            results.append(
                await send_op(host, port, op, keep, time.perf_counter())
            )

    await asyncio.gather(*(caller() for _ in range(CONNECTIONS)))
    return PhaseResult(time.perf_counter() - t0, time.process_time() - cpu0,
                       results)


def latency_summary(samples: Sequence[float]) -> Dict[str, float]:
    """Median and rule-chosen tail of a latency sample (ms)."""
    if not samples:
        return {"samples": 0}
    ordered = sorted(samples)
    pct, tail = tail_percentile(ordered)
    return {
        "samples": len(ordered),
        "p50_ms": quantile(ordered, 0.5),
        "tail_pct": pct,
        "tail_ms": tail,
    }
