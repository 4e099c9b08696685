"""The benchmark's server launcher: one served GUPster world in its own
process, driven over HTTP by ``run.py`` and controlled over stdin.

    python3 gupbench/server.py [--trace] [--build-only] [--spans FILE] [--cpu N]

Prints one JSON line per event on stdout. After the world is built and
the socket listens it prints ``{"event": "ready", "port": ...}``; with
``--build-only`` it exits right after. Then it reads one JSON command
per stdin line:

* ``{"cmd": "begin", "phase": name}`` — start a slice of a phase (a
  phase may run as several slices);
* ``{"cmd": "end"}`` — end the slice;
* ``{"cmd": "report"}`` — answer with every phase's server-side figures;
* ``{"cmd": "drain"}`` — run one bus drain now (the read-back check);
* ``{"cmd": "stop"}`` — stop serving, write spans, print ``bye``, exit.

Every run records garbage-collector pauses through ``gc.callbacks``
and the process's CPU time per phase. With ``--trace`` the launcher
wraps the layers' public functions (see :func:`install_tracing`) before
the world is built, so world-build and request spans are recorded.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

if __name__ == "__main__":  # run as a script: find the program's sources
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    ))

import repro.adapters.base  # noqa: E402
import repro.sansio.engine  # noqa: E402
import repro.serve.http  # noqa: E402
from repro.core.coverage import CoverageMap  # noqa: E402
from repro.pxml import PNode  # noqa: E402
from repro.pxml.path import parse_path  # noqa: E402
from repro.serve import App, AppServer, create_app  # noqa: E402
from repro.sharding import HashRing  # noqa: E402

from tracing import (  # noqa: E402
    GcMonitor, Span, Tracer, breakdown, host_speed_ms, peak_rss_mb,
    pin_to_cpu,
)
from world import build_serve_world  # noqa: E402

def _patch_everywhere(original: Any, replacement: Any) -> None:
    """Rebind *original* to *replacement* in every loaded repro module
    that imported it by name."""
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install_build_tracing(tracer: Tracer) -> Callable[[], None]:
    """Wrap the functions a world build spends its time in (path
    parsing, coverage registration, ring placement); returns the undo."""
    traced_parse = tracer.wrap("pxml.path.parse", parse_path)
    _patch_everywhere(parse_path, traced_parse)
    originals = [(CoverageMap, "register", CoverageMap.register),
                 (HashRing, "place", HashRing.place)]
    CoverageMap.register = tracer.wrap(  # type: ignore[method-assign]
        "core.coverage.register", CoverageMap.register
    )
    HashRing.place = tracer.wrap(  # type: ignore[method-assign]
        "sharding.place", HashRing.place
    )

    def undo() -> None:
        _patch_everywhere(traced_parse, parse_path)
        for owner, name, original in originals:
            setattr(owner, name, original)

    return undo


def install_tracing(tracer: Tracer) -> None:
    """Wrap the module- and class-level functions the layers share.
    Instance-level wrappers go on after the world exists
    (:func:`trace_world`)."""
    install_build_tracing(tracer)
    http = repro.serve.http
    http.read_request = tracer.wrap_async(  # type: ignore[assignment]
        "serve.http.read", http.read_request
    )
    http.write_response = tracer.wrap_async(  # type: ignore[assignment]
        "serve.http.write", http.write_response
    )
    extract = tracer.wrap("pxml.evaluate.extract", repro.adapters.base.extract)
    repro.adapters.base.extract = extract  # type: ignore[assignment]
    repro.sansio.engine.extract = extract  # type: ignore[assignment]
    repro.sansio.engine.merge_all = tracer.wrap(  # type: ignore[assignment]
        "pxml.merge", repro.sansio.engine.merge_all
    )
    PNode.copy = tracer.wrap(  # type: ignore[method-assign]
        "pxml.node.copy", PNode.copy, opaque=True
    )
    PNode.byte_size = tracer.wrap(  # type: ignore[method-assign]
        "pxml.node.byte_size", PNode.byte_size, opaque=True
    )
    PNode.serialize = tracer.wrap(  # type: ignore[method-assign]
        "pxml.node.serialize", PNode.serialize, size=len
    )


class WriteStats:
    """Bus-side figures sampled by the traced drain wrapper."""

    def __init__(self) -> None:
        self.drains: List[Tuple[float, float]] = []  # (start, seconds)
        self.lag_max = 0


def trace_world(tracer: Tracer, app: App, stats: WriteStats) -> None:
    """Wrap the served world's instances: HTTP front, admission,
    routers, transport, shield, cache, adapters and bus."""
    world = app.world
    server = world.server
    app.handle = tracer.wrap_async(  # type: ignore[method-assign]
        "serve.middleware", app.handle
    )
    app.gate.acquire = tracer.wrap_async(  # type: ignore[method-assign]
        "serve.admission", app.gate.acquire
    )
    app.query.handle = tracer.wrap_async(  # type: ignore[method-assign]
        "serve.routers", app.query.handle
    )
    app.provisioning.handle = tracer.wrap_async(  # type: ignore[method-assign]
        "serve.routers", app.provisioning.handle
    )
    run = world.transport.run
    top_run = tracer.wrap_async("serve.transport", run)

    async def traced_run(program: Any, scope: Optional[Any] = None) -> Any:
        # Fork legs re-enter run() with a child scope; they get no span
        # of their own, so sibling legs never double-count a request.
        timed = tracer.wrap_program(program)
        if scope is None:
            return await top_run(timed)
        return await run(timed, scope=scope)

    world.transport.run = traced_run  # type: ignore[method-assign]
    server.resolve = tracer.wrap(  # type: ignore[method-assign]
        "core.server.resolve", server.resolve
    )
    server.resolve_for_update = tracer.wrap(  # type: ignore[method-assign]
        "core.server.resolve", server.resolve_for_update
    )
    server.coverage.resolve = tracer.wrap(  # type: ignore[method-assign]
        "core.coverage.resolve", server.coverage.resolve
    )
    server.pep.enforce = tracer.wrap(  # type: ignore[method-assign]
        "access.enforce", server.pep.enforce
    )
    cache = server.cache
    if cache is not None:
        for method in ("get", "get_stale", "put", "invalidate"):
            setattr(cache, method,
                    tracer.wrap("core.cache", getattr(cache, method)))
    for adapter in server.adapters.values():
        adapter.get = tracer.wrap(  # type: ignore[method-assign]
            "adapters.get", adapter.get
        )
        adapter.export_user = tracer.wrap(  # type: ignore[method-assign]
            "workloads.export", adapter.export_user
        )
    bus = world.bus
    if bus is not None:
        bus.append = tracer.wrap(  # type: ignore[method-assign]
            "bus.append", bus.append
        )
    drain = app.jobs.drain_bus_once

    def traced_drain() -> None:
        if bus is not None:
            stats.lag_max = max(stats.lag_max, max(
                (bus.pending_for(listener) for listener in bus.listeners),
                default=0,
            ))
        start = time.perf_counter()
        try:
            drain()
        finally:
            stats.drains.append((start, time.perf_counter() - start))

    app.jobs.drain_bus_once = traced_drain  # type: ignore[method-assign]


def build_summary(tracer: Tracer, until: float) -> Dict[str, float]:
    """World-build counts and times from the spans recorded up to
    *until* (build spans carry no request id)."""
    calls: Dict[str, int] = defaultdict(int)
    seconds: Dict[str, float] = defaultdict(float)
    for span in tracer.spans:
        if span.start >= until:
            break
        calls[span.name] += 1
        seconds[span.name] += span.end - span.start
    return {
        "core.coverage.register_calls": calls["core.coverage.register"],
        # inclusive: the path parsing inside register counts here too
        "core.coverage.register_us":
            seconds["core.coverage.register"] * 1e6,
        "pxml.path.parse_calls": calls["pxml.path.parse"],
        "pxml.path.parse_us": seconds["pxml.path.parse"] * 1e6,
        "sharding.place_calls": calls["sharding.place"],
    }


def _counters(app: App) -> Dict[str, int]:
    """The cache, bus and listener counters a phase reports deltas of."""
    world = app.world
    counts: Dict[str, int] = {}
    if world.server.cache is not None:
        counts.update(world.server.cache.counter_snapshot())
    bus = world.bus
    if bus is not None:
        counts.update({
            "waves": bus.waves,
            "records": bus.records_delivered,
            "deliveries": bus.deliveries,
            "appends": bus.appends,
            "listener_invalidations": sum(
                getattr(listener, "invalidated_paths", 0)
                for listener in bus.listeners
            ),
        })
    return counts


class Phase:
    """Accounting of one named phase, which the client may run as
    several slices (``begin`` ... ``end``, repeated)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.slices: List[Tuple[float, float]] = []
        self.span_ranges: List[Tuple[int, int]] = []
        self.cpu_s = 0.0
        self.deltas: Dict[str, int] = defaultdict(int)
        self.lag_max = 0
        #: per slice: the host-speed loop's time, mean of the readings
        #: just before and just after the slice (no request in flight)
        self.calibration_ms: List[float] = []
        self._open: Optional[Tuple[float, float, int, Dict[str, int]]] = None
        self._calibrated = 0.0

    def begin(self, app: App, stats: WriteStats,
              tracer: Optional[Tracer]) -> None:
        stats.lag_max = 0
        self._calibrated = host_speed_ms()
        self._open = (
            time.perf_counter(), time.process_time(),
            len(tracer.spans) if tracer is not None else 0, _counters(app),
        )

    def end(self, app: App, stats: WriteStats,
            tracer: Optional[Tracer]) -> None:
        if self._open is None:
            raise RuntimeError("phase %s was not begun" % self.name)
        start, cpu, span_index, counts = self._open
        self._open = None
        self.slices.append((start, time.perf_counter()))
        self.cpu_s += time.process_time() - cpu
        if tracer is not None:
            self.span_ranges.append((span_index, len(tracer.spans)))
        for key, value in _counters(app).items():
            self.deltas[key] += value - counts.get(key, 0)
        self.lag_max = max(self.lag_max, stats.lag_max)
        self.calibration_ms.append((self._calibrated + host_speed_ms()) / 2)

    def figures(self, stats: WriteStats, tracer: Optional[Tracer],
                gcmon: GcMonitor) -> Dict[str, Any]:
        wall = sum(end - start for start, end in self.slices)
        gc_stats = [gcmon.between(start, end) for start, end in self.slices]
        deltas = self.deltas
        looked = deltas["hits"] + deltas["misses"]
        drains = [
            seconds for at, seconds in stats.drains
            if any(start <= at < end for start, end in self.slices)
        ]
        figures: Dict[str, Any] = {
            "phase": self.name,
            "slices": len(self.slices),
            "wall_s": wall,
            "cpu_busy": self.cpu_s / wall,
            "calibration_ms": self.calibration_ms,
            "gc": {
                "gen2_pauses": sum(g["gen2_pauses"] for g in gc_stats),
                "gen2_max_ms": max(g["gen2_max_ms"] for g in gc_stats),
                "pause_total_ms": sum(g["pause_total_ms"] for g in gc_stats),
            },
            "cache": {
                "hit_ratio": deltas["hits"] / looked if looked else 0.0,
                "evictions": deltas["evictions"],
                "invalidations": deltas["invalidations"],
            },
            "bus": {
                "waves": deltas["waves"],
                "appends": deltas["appends"],
                "records_per_wave": (
                    deltas["records"] / deltas["deliveries"]
                    if deltas["deliveries"] else 0.0
                ),
                "cursor_lag_max": self.lag_max,
                "listener_invalidations": deltas["listener_invalidations"],
                "drains": len(drains),
                "drain_mean_ms": (
                    sum(drains) / len(drains) * 1000.0 if drains else 0.0
                ),
                "drain_max_ms": max(drains, default=0.0) * 1000.0,
            },
        }
        if tracer is not None:
            figures["trace"] = trace_figures(tracer, [
                span for first, last in self.span_ranges
                for span in tracer.spans[first:last]
            ])
        return figures


def trace_figures(tracer: Tracer, spans: List[Span]) -> Dict[str, Any]:
    """Per-request layer accounting of *spans* (see ``breakdown``)."""
    result = breakdown(spans)
    intents: Dict[str, float] = defaultdict(float)
    rids = {s.rid for s in spans if s.rid}
    for (cls, rid), count in tracer.intents.items():
        if rid in rids:
            intents[cls] += count
    return {
        "requests": result.requests,
        "self_us": {k: v * 1e6 for k, v in result.self_s.items()},
        "calls": dict(result.calls),
        "sizes": dict(result.sizes),
        "wall_us": result.wall_s * 1e6,
        "intents": {
            cls: count / result.requests if result.requests else 0.0
            for cls, count in intents.items()
        },
    }


def emit(event: Dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(event) + "\n")
    sys.stdout.flush()


async def serve(args: argparse.Namespace, gcmon: GcMonitor,
                tracer: Optional[Tracer]) -> None:
    timings: Dict[str, float] = {}
    build_start = time.perf_counter()
    world, _fleets = build_serve_world(timings=timings)
    app = create_app(world)
    stats = WriteStats()
    if tracer is not None:
        trace_world(tracer, app, stats)
    http = AppServer(app)
    if tracer is not None:
        # The connection handler is the request's root span (socket
        # glue, close); it is bound when the socket starts listening.
        http.http._serve_connection = tracer.wrap_async(  # type: ignore[method-assign]
            "serve.http.connection", http.http._serve_connection,
            new_request=True,
        )
    _host, port = await http.start()
    ready = time.perf_counter()
    build = dict(timings)
    build["gc"] = gcmon.between(build_start, ready)
    if tracer is not None:
        build.update(build_summary(tracer, ready))
    emit({"event": "ready", "port": port, "build": build,
          "pid": os.getpid()})
    if args.build_only:
        await http.stop()
        return

    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
    )
    phases: Dict[str, Phase] = {}
    current: Optional[Phase] = None
    try:
        while True:
            line = await reader.readline()
            if not line:
                break
            command = json.loads(line)
            cmd = command.get("cmd")
            if cmd == "begin" and current is None:
                name = command["phase"]
                current = phases.setdefault(name, Phase(name))
                current.begin(app, stats, tracer)
                emit({"event": "begun", "phase": name})
            elif cmd == "end" and current is not None:
                # let the slice's last connections finish closing
                await asyncio.sleep(0.05)
                current.end(app, stats, tracer)
                current = None
                emit({"event": "ended"})
            elif cmd == "report":
                emit({"event": "report", "phases": {
                    name: phase.figures(stats, tracer, gcmon)
                    for name, phase in phases.items()
                }})
            elif cmd == "drain":
                app.jobs.drain_bus_once()
                emit({"event": "drained"})
            elif cmd == "stop":
                break
            else:
                emit({"event": "error", "detail": "bad command %r" % cmd})
    finally:
        await http.stop()
    jobs = app.jobs.stats()
    if args.spans and tracer is not None:
        with open(args.spans, "w") as out:
            for span in tracer.spans:
                if span.rid:
                    out.write("%s %.9f %.9f %d %d %d %d\n" % span)
    emit({"event": "bye", "peak_rss_mb": peak_rss_mb(),
          "jobs_failed": jobs["failed"]})


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--build-only", action="store_true")
    parser.add_argument("--spans", default=None,
                        help="write request spans here on stop")
    parser.add_argument("--cpu", type=int, default=None,
                        help="run on this CPU only")
    args = parser.parse_args(argv)
    pin_to_cpu(args.cpu)
    gcmon = GcMonitor()
    gc.callbacks.append(gcmon)
    tracer: Optional[Tracer] = None
    if args.trace:
        tracer = Tracer()
        install_tracing(tracer)
    asyncio.run(serve(args, gcmon, tracer))
    return 0


if __name__ == "__main__":
    sys.exit(main())
