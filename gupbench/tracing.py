"""Outside-in tracing: spans around calls into the program's layers.

The benchmark never edits the program. It wraps public functions of
each layer (module functions, methods on the instances the benchmark
built) with :class:`Tracer` wrappers that record one span per call:
``(name, start, end, parent id, span id, request id, size)``. The
parent is whatever span is open in the calling context; the request id
is a :class:`~contextvars.ContextVar` set when the HTTP server starts
handling a connection (one request each), so every span a request causes — including
those in ``asyncio.gather`` fork legs, which copy the context — carries
it. Spans stay in memory until the run ends.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover. Spans that must absorb their callees
(``PNode.copy`` recurses; ``PNode.byte_size`` serializes) are
*opaque*: calls made inside them record no spans of their own.

:class:`GcMonitor` records the garbage collector's pauses the same way,
from a ``gc.callbacks`` hook.
"""

from __future__ import annotations

import functools
import itertools
import os
import resource
import time
from collections import defaultdict
from contextvars import ContextVar
from typing import (
    Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence,
    Tuple,
)

#: (open span id, name of the opaque span we are inside or "")
_CURRENT: ContextVar[Tuple[int, str]] = ContextVar(
    "gupbench_span", default=(0, "")
)
_REQUEST: ContextVar[int] = ContextVar("gupbench_request", default=0)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    sid: int
    rid: int
    size: int


class Tracer:
    """Collects spans; hands out wrappers that record them."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: List[Span] = []
        self.clock = clock
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        #: (intent class, request id) -> intents the engine yielded
        self.intents: Dict[Tuple[str, int], int] = defaultdict(int)

    # -- request ids ---------------------------------------------------------

    def begin_request(self) -> int:
        """Give the current context a fresh request id."""
        rid = next(self._requests)
        _REQUEST.set(rid)
        return rid

    # -- wrappers ------------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        opaque: bool = False,
        size: Optional[Callable[[Any], int]] = None,
    ) -> Callable[..., Any]:
        """A synchronous wrapper recording one *name* span per call."""
        spans, ids, clock = self.spans, self._ids, self.clock

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            parent, inside = _CURRENT.get()
            if inside:
                return fn(*args, **kwargs)
            sid = next(ids)
            token = _CURRENT.set((sid, name if opaque else ""))
            start = clock()
            result: Any = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                _CURRENT.reset(token)
                spans.append(Span(
                    name, start, end, parent, sid, _REQUEST.get(),
                    size(result) if size is not None and result is not None
                    else 0,
                ))

        return traced

    def wrap_async(
        self, name: str, fn: Callable[..., Any], new_request: bool = False
    ) -> Callable[..., Any]:
        """An ``async`` wrapper; *new_request* starts a request id."""
        spans, ids, clock = self.spans, self._ids, self.clock

        @functools.wraps(fn)
        async def traced(*args: Any, **kwargs: Any) -> Any:
            if new_request:
                self.begin_request()
            parent, _inside = _CURRENT.get()
            sid = next(ids)
            token = _CURRENT.set((sid, ""))
            start = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = clock()
                _CURRENT.reset(token)
                spans.append(Span(
                    name, start, end, parent, sid, _REQUEST.get(), 0
                ))

        return traced

    def wrap_program(self, program: Any) -> "TimedProgram":
        return TimedProgram(program, self)


class TimedProgram:
    """A sans-io program whose every step (``send``/``throw`` up to the
    next yield) is a ``sansio.engine.step`` span, counting the intents
    it yields by class."""

    __slots__ = ("_program", "_send", "_throw", "_tracer")

    def __init__(self, program: Any, tracer: Tracer) -> None:
        self._program = program
        self._tracer = tracer
        self._send = tracer.wrap("sansio.engine.step", program.send)
        self._throw = tracer.wrap("sansio.engine.step", program.throw)

    def _count(self, intent: Any) -> Any:
        self._tracer.intents[(type(intent).__name__, _REQUEST.get())] += 1
        return intent

    def send(self, value: Any) -> Any:
        return self._count(self._send(value))

    def throw(self, error: BaseException) -> Any:
        return self._count(self._throw(error))

    def close(self) -> None:
        self._program.close()


class GcMonitor:
    """``gc.callbacks`` hook: one (generation, start, pause s) per
    collection."""

    def __init__(self) -> None:
        self.pauses: List[Tuple[int, float, float]] = []
        self._started = 0.0

    def __call__(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.pauses.append((
                info["generation"], self._started,
                time.perf_counter() - self._started,
            ))

    def between(self, start: float, end: float) -> Dict[str, float]:
        window = [p for p in self.pauses if start <= p[1] < end]
        gen2 = [pause for gen, _at, pause in window if gen == 2]
        return {
            "gen2_pauses": len(gen2),
            "gen2_max_ms": max(gen2, default=0.0) * 1000.0,
            "pause_total_ms": sum(p for _g, _a, p in window) * 1000.0,
        }


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------

CAL_LOOPS = 40_000
#: Scaled figures are those of a host on which calibration_ms() reads
#: this (see README, "Host speed").
CAL_REF_MS = 3.5


def calibration_ms() -> float:
    """Wall ms of a fixed pure-Python loop: the host's speed now. It
    allocates no containers, so no garbage collection runs inside it
    and the program's heap does not change its time."""
    start = time.perf_counter()
    total = 0
    for index in range(CAL_LOOPS):
        total += index * index % 7
    return (time.perf_counter() - start) * 1000.0


def host_speed_ms() -> float:
    """Median of five calibration loops."""
    return sorted(calibration_ms() for _ in range(5))[2]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_pair() -> Tuple[Optional[int], Optional[int]]:
    """(load generator CPU, server CPU): the first and the last CPU this
    process may run on, so that the two processes never share a CPU and
    sit on the same CPUs in every run. (None, None) where affinity
    cannot be set or fewer than two CPUs are available."""
    if not hasattr(os, "sched_setaffinity"):
        return None, None
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return cpus[0], cpus[-1]


def pin_to_cpu(cpu: Optional[int]) -> None:
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

def covered(interval: Tuple[float, float],
            children: Iterable[Tuple[float, float]]) -> float:
    """Length of the part of *interval* covered by *children*
    (overlapping children are counted once)."""
    lo, hi = interval
    clipped = sorted(
        (max(lo, start), min(hi, end)) for start, end in children
        if end > lo and start < hi
    )
    total = 0.0
    cur_start: Optional[float] = None
    cur_end = 0.0
    for start, end in clipped:
        if cur_start is None or start > cur_end:
            if cur_start is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_start is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """span id -> self time (s): duration minus the union of its
    children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent:
            children[span.parent].append((span.start, span.end))
    return {
        span.sid: (span.end - span.start)
        - covered((span.start, span.end), children.get(span.sid, ()))
        for span in spans
    }


class RequestBreakdown(NamedTuple):
    """Per-request layer accounting for a set of spans."""

    requests: int
    #: layer -> mean self seconds per request
    self_s: Dict[str, float]
    #: layer -> mean calls per request
    calls: Dict[str, float]
    #: layer -> mean span sizes summed per request
    sizes: Dict[str, float]
    #: mean server wall per request (first span start to last span end)
    wall_s: float


def breakdown(spans: Sequence[Span]) -> RequestBreakdown:
    """Layer self times per request over the spans carrying a request
    id. Where a request's spans all nest in one root span, as the
    server's do, its layer totals add up to the root's duration by
    construction; the benchmark checks them against the client's clock
    instead (see ``run.trace_accounting_failures``)."""
    selfs = self_times(spans)
    by_request: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.rid:
            by_request[span.rid].append(span)
    self_total: Dict[str, float] = defaultdict(float)
    calls: Dict[str, float] = defaultdict(float)
    sizes: Dict[str, float] = defaultdict(float)
    walls: List[float] = []
    for request_spans in by_request.values():
        walls.append(max(s.end for s in request_spans)
                     - min(s.start for s in request_spans))
        for span in request_spans:
            self_total[span.name] += selfs[span.sid]
            calls[span.name] += 1
            sizes[span.name] += span.size
    count = len(by_request)
    if not count:
        return RequestBreakdown(0, {}, {}, {}, 0.0)
    return RequestBreakdown(
        count,
        {name: total / count for name, total in self_total.items()},
        {name: total / count for name, total in calls.items()},
        {name: total / count for name, total in sizes.items()},
        sum(walls) / count,
    )
