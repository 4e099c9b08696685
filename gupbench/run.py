"""GUPster benchmark: one command for every workload.

    python3 gupbench/run.py --workload write-mix --seed 1 --seconds 25 --trace 0
    python3 gupbench/run.py --workload all --seed 1

Workloads (see ``gupbench/README.md`` for why each exists):

* ``hot-read``, ``fanout-read``, ``write-mix`` — the asyncio HTTP server
  (:mod:`repro.serve`) in its own process (``gupbench/server.py``),
  driven from this process: open-loop slices at the workload's fixed
  rate alternate with closed-loop slices on two connections;
* ``sim-batch``, ``sim-referral``, ``sim-federation`` — the in-process
  simulator paths, one workload each (``gupbench/sim.py``).

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics, from an untraced
server and then a traced one (spans around each layer's public
functions; the goodput difference is the tracing overhead). A full
record — host facts, commit, seed, rates, every phase — is written to
``gupbench/out/<workload>-seed<seed>-trace<trace>.json``, and the
traced run's request spans next to it. Output checks run in the same
command; a run whose outputs are wrong prints ``"correct": false`` with
no metrics and exits 1.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import random
import statistics
import sys
import time
from collections import defaultdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from tracing import cpu_pair, pin_to_cpu

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: name -> (read pattern, subscriber choice, write share, open-loop rate)
#: Rates are about half of each workload's closed-loop goodput on the
#: 2-CPU reference host (see README).
HTTP_WORKLOADS: Dict[str, Tuple[str, str, float, float]] = {
    "hot-read": ("cached", "zipf", 0.0, 280.0),
    "fanout-read": ("chaining", "uniform", 0.0, 150.0),
    "write-mix": ("cached", "zipf", 0.2, 130.0),
}
#: workload -> the simulator path it runs
SIM_WORKLOADS = {
    "sim-batch": "batch",
    "sim-referral": "referral",
    "sim-federation": "federation",
}
WORKLOADS = tuple(HTTP_WORKLOADS) + tuple(SIM_WORKLOADS)
ZIPF_EXPONENT = 1.1
#: Server processes started to measure set-up (median reported).
SETUP_REPEATS = 3
WARMUP_S = 1.0
#: The end-to-end latency and goodput are medians over this many
#: slices of their phase, so one garbage-collector pause of the server
#: (0.2-0.8 s; the python.gc rows) costs a slice, not the figure.
ROBUST_SLICES = 24
#: Open-loop and closed-loop slices alternate this many times.
ROUNDS = 6
BOTH_PHASES = ("open", "closed")
#: The generator, not the server, set the pace of a phase when the
#: client process was this busy or fell this far behind its schedule.
CLIENT_BUSY_MAX = 0.9
LATE_MAX_MS = 100.0
#: The traced run's accounting is checked against the client's own
#: clock: the layers' server-side totals per request must cover at
#: least this share of the client's mean send-to-answer time (the rest
#: is connection set-up, the kernel and the client), and cannot exceed
#: it.
SERVER_WALL_SHARE_MIN = 0.4
#: Server time no wrapped layer claims (the root connection span's own
#: time) may be at most this share of a request's server wall.
ROOT_SELF_SHARE_MAX = 0.25
#: The generator and the server each get a CPU of their own.
CLIENT_CPU, SERVER_CPU = cpu_pair()

E2E_UNITS = {
    "setup_s": "s",
    "latency_ms": "ms",
    "goodput_per_s": "1/s",
    "peak_rss_mb": "MB",
}


# ---------------------------------------------------------------------------
# Host facts
# ---------------------------------------------------------------------------

def git_commit(root: str) -> Optional[str]:
    """HEAD's commit read from ``.git`` in *root* (no git binary, no
    search outside the checkout); None outside a git checkout."""
    head_file = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_file) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(root, ".git", ref)
        if os.path.exists(ref_file):
            with open(ref_file) as handle:
                return handle.read().strip()
        packed = os.path.join(root, ".git", "packed-refs")
        with open(packed) as handle:
            for line in handle:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def host_facts() -> Dict[str, Any]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# The server process
# ---------------------------------------------------------------------------

class ServerProcess:
    """``gupbench/server.py`` in a child process, controlled over its
    stdin/stdout."""

    def __init__(self, proc: "asyncio.subprocess.Process",
                 setup_s: float, ready: Dict[str, Any]) -> None:
        self.proc = proc
        self.setup_s = setup_s
        self.port: int = ready["port"]
        self.build: Dict[str, Any] = ready["build"]

    @classmethod
    async def start(cls, trace: bool = False, build_only: bool = False,
                    spans: Optional[str] = None) -> "ServerProcess":
        argv = [sys.executable, os.path.join(HERE, "server.py")]
        if trace:
            argv.append("--trace")
        if build_only:
            argv.append("--build-only")
        if spans:
            argv += ["--spans", spans]
        if SERVER_CPU is not None:
            argv += ["--cpu", str(SERVER_CPU)]
        started = time.perf_counter()
        proc = await asyncio.create_subprocess_exec(
            *argv, cwd=ROOT, stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE, limit=1 << 24,
        )
        try:
            ready = await cls._read(proc, "ready")
        except BaseException:
            await cls._kill(proc)
            raise
        return cls(proc, time.perf_counter() - started, ready)

    @staticmethod
    async def _read(proc: "asyncio.subprocess.Process",
                    expect: str) -> Dict[str, Any]:
        assert proc.stdout is not None
        line = await asyncio.wait_for(proc.stdout.readline(), 120.0)
        if not line:
            raise RuntimeError("server exited before %r" % expect)
        event = json.loads(line)
        if event.get("event") != expect:
            raise RuntimeError("server said %r, expected %r"
                               % (event, expect))
        return event

    @staticmethod
    async def _kill(proc: "asyncio.subprocess.Process") -> None:
        if proc.returncode is None:
            proc.kill()
        await proc.wait()

    async def command(self, cmd: Dict[str, Any],
                      expect: str) -> Dict[str, Any]:
        assert self.proc.stdin is not None
        self.proc.stdin.write((json.dumps(cmd) + "\n").encode())
        await self.proc.stdin.drain()
        return await self._read(self.proc, expect)

    async def wait_exit(self) -> None:
        try:
            await asyncio.wait_for(self.proc.wait(), 60.0)
        finally:
            await self._kill(self.proc)

    async def stop(self) -> Dict[str, Any]:
        try:
            bye = await self.command({"cmd": "stop"}, "bye")
            await asyncio.wait_for(self.proc.wait(), 60.0)
            return bye
        finally:
            await self._kill(self.proc)


# ---------------------------------------------------------------------------
# HTTP workloads
# ---------------------------------------------------------------------------

def make_stream(workload: str, seed: int, users: Sequence[str]) -> Any:
    from loadgen import OpStream, UniformChooser, ZipfChooser

    pattern, choice, write_share, _rate = HTTP_WORKLOADS[workload]
    chooser: Any = (
        ZipfChooser(users, ZIPF_EXPONENT, random.Random("%d:rank" % seed))
        if choice == "zipf" else UniformChooser(users)
    )
    return OpStream(chooser, pattern, write_share,
                    random.Random("%d:ops" % seed))


def phase_record(slices: Sequence[Any],
                 figures: Dict[str, Any]) -> Dict[str, Any]:
    from loadgen import (
        PhaseResult, latency_summary, median_goodput, median_p50_ms,
    )

    from tracing import CAL_REF_MS

    client = PhaseResult.merge(slices)
    per_slice = ROBUST_SLICES // len(slices)
    # host speed on the server's CPU around each slice (README, "Host
    # speed")
    scales = [CAL_REF_MS / ms for ms in figures["calibration_ms"]]
    record = {
        "wall_s": client.wall_s,
        "attempted": len(client.results),
        "succeeded": client.succeeded(),
        "failed": client.failed(),
        "rejected": sum(1 for r in client.results if r.status == 503),
        "goodput_rps": client.succeeded() / client.wall_s,
        "goodput_median_rps": median_goodput(slices, per_slice),
        "p50_median_ms": median_p50_ms(slices, per_slice),
        "goodput_median_rps_scaled": median_goodput(slices, per_slice,
                                                    scales),
        "p50_median_ms_scaled": median_p50_ms(slices, per_slice, scales),
        "read": latency_summary(client.latencies("read")),
        "write": latency_summary(client.latencies("write")),
        "all": latency_summary(
            client.latencies("read") + client.latencies("write")
        ),
        "client_mean_ms": client.mean_exchange_ms(),
        "client_cpu_busy": client.cpu_busy,
        "loadgen_late_max_ms": client.late_max_ms,
        "server": figures,
    }
    record["valid"] = (
        client.cpu_busy <= CLIENT_BUSY_MAX
        and client.late_max_ms <= LATE_MAX_MS
    )
    return record


async def drive(server: ServerProcess, workload: str, seed: int,
                seconds: float, stream: Any,
                phases: Sequence[str]) -> Dict[str, Any]:
    """Warm up, then :data:`ROUNDS` rounds of one slice of each of
    *phases* (``"open"``, ``"closed"``), so each phase samples the whole
    run."""
    from loadgen import arrival_offsets, closed_loop, open_loop

    host, port = "127.0.0.1", server.port
    rate = HTTP_WORKLOADS[workload][3]
    warmup = await closed_loop(host, port, stream, WARMUP_S)
    slice_s = seconds / (len(phases) * ROUNDS)
    slices: Dict[str, List[Any]] = {name: [] for name in phases}
    for round_no in range(ROUNDS):
        offsets = arrival_offsets(
            rate, slice_s, random.Random("%d:arrivals:%d" % (seed, round_no))
        )
        for name in phases:
            await server.command({"cmd": "begin", "phase": name}, "begun")
            if name == "open":
                part = await open_loop(host, port, stream, offsets)
            else:
                part = await closed_loop(host, port, stream, slice_s)
            slices[name].append(part)
            await server.command({"cmd": "end"}, "ended")
    figures = (await server.command({"cmd": "report"}, "report"))["phases"]
    run: Dict[str, Any] = {
        name: phase_record(slices[name], figures[name]) for name in phases
    }
    run["rate_per_s"] = rate
    run["results"] = warmup.results + [
        result for name in phases
        for part in slices[name] for result in part.results
    ]
    return run


def check_reads(results: Sequence[Any],
                written: Dict[str, List[str]]) -> Tuple[List[str], int]:
    """Sampled read responses must equal what the seeded adapters hold,
    computed in process: the pristine profile, or — once the address
    book was written — the profile with one of this run's writes
    applied. Returns the failures and how many sampled reads showed an
    unwritten component changed by a write (see README)."""
    from repro.pxml import parse
    from world import expected_components, make_fleets

    pristine, after_write = make_fleets(), make_fleets()
    failures: List[str] = []
    side_effects = 0
    for result in results:
        if result.body is None:
            continue
        fragment = json.loads(result.body).get("fragment")
        got = {
            child.tag: child.serialize()
            for child in (parse(fragment).children if fragment else ())
        }
        want = expected_components(pristine, result.user_id)
        book = got.get("address-book")
        if book != want["address-book"]:
            if book not in written.get(result.user_id, ()):
                failures.append("read %s: unexpected address book"
                                % result.user_id)
                continue
            changed = want
            want = expected_components(after_write, result.user_id,
                                       {"address-book": book})
            side_effects += any(
                want[tag] != changed[tag] for tag in want
                if tag != "address-book"
            )
        for tag, value in want.items():
            if got.get(tag) != value:
                failures.append("read %s: wrong <%s>" % (result.user_id, tag))
    return failures, side_effects


async def check_writes(server: ServerProcess, results: Sequence[Any],
                       workload: str) -> Tuple[List[str], int]:
    """After a bus drain, every written subscriber's profile must read
    back (through the cache) with a value one of its writes set: the
    last to complete, or one that overlapped it in time."""
    from loadgen import Op, read_bytes, send_op
    from repro.pxml import parse

    by_user: Dict[str, List[Any]] = defaultdict(list)
    for result in results:
        if result.kind == "write" and result.ok:
            by_user[result.user_id].append(result)
    if not by_user:
        return [], 0
    await server.command({"cmd": "drain"}, "drained")
    pattern = HTTP_WORKLOADS[workload][0]
    failures: List[str] = []
    for user_id, writes in sorted(by_user.items()):
        writes.sort(key=lambda r: r.done_at)
        last = writes[-1]
        allowed = {w.written for w in writes if w.done_at >= last.sent_at}
        answer = await send_op("127.0.0.1", server.port,
                             Op("read", user_id, read_bytes(user_id, pattern)),
                             True, time.perf_counter())
        book = None
        if answer.ok and answer.body is not None:
            fragment = json.loads(answer.body).get("fragment")
            node = parse(fragment).child("address-book") if fragment else None
            book = node.serialize() if node is not None else None
        if book not in allowed:
            failures.append("write %s: read back %s"
                            % (user_id, "nothing" if book is None
                               else "a value none of its writes set"))
    return failures, len(by_user)


def _written_by_user(results: Sequence[Any]) -> Dict[str, List[str]]:
    written: Dict[str, List[str]] = defaultdict(list)
    for result in results:
        if result.kind == "write" and result.written is not None:
            written[result.user_id].append(result.written)
    return written


async def http_untraced(workload: str, seed: int, seconds: float,
                        setups: int, phases: Sequence[str]) -> Dict[str, Any]:
    """Set up *setups* times (median is ``setup_s``), serve the last."""
    from world import SERVE_USERS, user_ids

    setup_times, builds = [], []
    for _ in range(setups - 1):
        probe = await ServerProcess.start(build_only=True)
        setup_times.append(probe.setup_s)
        builds.append(probe.build)
        await probe.wait_exit()
    server = await ServerProcess.start()
    setup_times.append(server.setup_s)
    builds.append(server.build)
    try:
        stream = make_stream(workload, seed, user_ids(SERVE_USERS))
        run = await drive(server, workload, seed, seconds, stream, phases)
        results = run.pop("results")
        failures, side_effects = check_reads(
            results, _written_by_user(results)
        )
        write_failures, written_users = await check_writes(
            server, results, workload
        )
        failures += write_failures
    finally:
        bye = await server.stop()
    if bye.get("jobs_failed"):
        failures.append("server background jobs died: %s"
                        % bye["jobs_failed"])
    run.update({
        "setup_times_s": setup_times,
        "builds": builds,
        "peak_rss_mb": bye["peak_rss_mb"],
        "written_users_checked": written_users,
        "reads_with_unwritten_component_changed": side_effects,
        "failures": failures,
    })
    return run


async def http_traced(workload: str, seed: int, seconds: float,
                      spans_path: str) -> Dict[str, Any]:
    from world import SERVE_USERS, user_ids

    server = await ServerProcess.start(trace=True, spans=spans_path)
    try:
        stream = make_stream(workload, seed, user_ids(SERVE_USERS))
        run = await drive(server, workload, seed, seconds, stream,
                          BOTH_PHASES)
        run.pop("results")
    finally:
        bye = await server.stop()
    run.update({"build": server.build, "peak_rss_mb": bye["peak_rss_mb"]})
    return run


def http_e2e(run: Dict[str, Any]) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(run["setup_times_s"]),
        # Closed loop: the server never idles, so the figure is not
        # the host's wake-up latency for an idle process (open-loop
        # medians moved by up to 40% from run to run on the reference
        # host; they are the read_p50_ms / write_p50_ms rows). Scaled
        # to the reference host speed on the server's CPU (README,
        # "Host speed"); the raw figures are in the record.
        "latency_ms": run["closed"]["p50_median_ms_scaled"],
        "goodput_per_s": run["closed"]["goodput_median_rps_scaled"],
        "peak_rss_mb": run["peak_rss_mb"],
    }


def _layer_rows(figures: Dict[str, Any]) -> Dict[str, float]:
    trace = figures.get("trace", {})
    self_us = trace.get("self_us", {})
    calls = trace.get("calls", {})
    sizes = trace.get("sizes", {})
    intents = trace.get("intents", {})

    def us(name: str) -> float:
        return self_us.get(name, 0.0)

    span_intents = sum(intents.get(k, 0.0)
                       for k in ("SpanOpen", "SpanSet", "SpanClose"))
    named = {"Send", "Compute", "StoreGet", "StorePut", "Fork",
             "SpanOpen", "SpanSet", "SpanClose"}
    cache = figures.get("cache", {})
    bus = figures.get("bus", {})
    return {
        "serve.http.connection_us": us("serve.http.connection"),
        "serve.http.read_us": us("serve.http.read"),
        "serve.http.write_us": us("serve.http.write"),
        "serve.admission.wait_ms": us("serve.admission") / 1000.0,
        "serve.middleware.self_us": us("serve.middleware"),
        "serve.routers.self_us": us("serve.routers"),
        "serve.transport.self_us": us("serve.transport"),
        "sansio.engine.step_us": us("sansio.engine.step"),
        "sansio.intents_per_request.Send": intents.get("Send", 0.0),
        "sansio.intents_per_request.Compute": intents.get("Compute", 0.0),
        "sansio.intents_per_request.StoreGet": intents.get("StoreGet", 0.0),
        "sansio.intents_per_request.StorePut": intents.get("StorePut", 0.0),
        "sansio.intents_per_request.Fork": intents.get("Fork", 0.0),
        "sansio.intents_per_request.Span": span_intents,
        "sansio.intents_per_request.Other": sum(
            v for k, v in intents.items() if k not in named
        ),
        "core.server.resolve_us": us("core.server.resolve"),
        "core.coverage.resolve_us": us("core.coverage.resolve"),
        "access.enforce_us": us("access.enforce"),
        "core.cache.self_us": us("core.cache"),
        "core.cache.hit_ratio": cache.get("hit_ratio", 0.0),
        "core.cache.evictions": cache.get("evictions", 0),
        "core.cache.invalidations": cache.get("invalidations", 0),
        "adapters.get_us": us("adapters.get"),
        "adapters.get_calls": calls.get("adapters.get", 0.0),
        "workloads.export_us": us("workloads.export"),
        "pxml.evaluate.extract_us": us("pxml.evaluate.extract"),
        "pxml.node.copy_calls": calls.get("pxml.node.copy", 0.0),
        "pxml.node.copy_us": us("pxml.node.copy"),
        "pxml.node.byte_size_calls": calls.get("pxml.node.byte_size", 0.0),
        "pxml.node.byte_size_us": us("pxml.node.byte_size"),
        "pxml.node.serialize_us": us("pxml.node.serialize"),
        "pxml.node.serialize_bytes": sizes.get("pxml.node.serialize", 0.0),
        "pxml.merge_us": us("pxml.merge"),
        "pxml.path.request_parse_us": us("pxml.path.parse"),
        "bus.append_us": us("bus.append"),
        "bus.waves": bus.get("waves", 0),
        "bus.records_per_wave": bus.get("records_per_wave", 0.0),
        "bus.cursor_lag_max": bus.get("cursor_lag_max", 0),
        "serve.jobs.drain_ms": bus.get("drain_mean_ms", 0.0),
        "serve.jobs.drain_max_ms": bus.get("drain_max_ms", 0.0),
        "bus.listeners.invalidations": bus.get("listener_invalidations", 0),
        "trace.requests": trace.get("requests", 0),
        "trace.server_wall_us": trace.get("wall_us", 0.0),
    }


# ---------------------------------------------------------------------------
# Per-layer metric table
# ---------------------------------------------------------------------------

def _units() -> Dict[str, str]:
    units: Dict[str, str] = {
        "read_p50_ms": "ms", "read_p99_ms": "ms", "read_tail_pct": "pct",
        "write_p50_ms": "ms", "write_p99_ms": "ms", "write_tail_pct": "pct",
        "goodput_rps": "1/s", "fail_ratio": "ratio",
        "sim_batch_qps": "1/s", "sim_referral_qps": "1/s",
        "fed_writes_per_s": "1/s",
        "workloads.populate_s": "s", "core.server.join_s": "s",
        "core.coverage.register_calls": "count",
        "core.coverage.register_us": "us",
        "pxml.path.parse_calls": "count", "pxml.path.parse_us": "us",
        "sharding.place_calls": "count",
        "serve.admission.rejected": "count",
        "trace.overhead": "ratio",
        "trace.server_wall_share": "ratio",
        "trace.root_self_share": "ratio",
        "server.cpu_busy.open": "ratio", "server.cpu_busy.closed": "ratio",
        "client.cpu_busy.open": "ratio", "client.cpu_busy.closed": "ratio",
        "loadgen.late_max_ms": "ms",
        "core.query.execute_batch_us": "us/call",
        "core.query.referral_us": "us/call",
        "core.mdm.resolve_batch_us": "us/call",
        "simnet.virtual_p50_ms": "ms",
        "host.calibration_ms": "ms",
        "simnet.messages": "count", "simnet.bytes": "B",
        "federation.round_us": "us/call", "federation.rounds": "count",
        "federation.conflicts": "count",
        "federation.echo_suppressed": "count",
    }
    for name in _layer_rows({}):
        if name.endswith("_us"):
            units[name] = "us/req"
        elif name.endswith("_ms"):
            units[name] = "ms"
        elif name.endswith(("_calls",)) or ".intents_per_request." in name:
            units[name] = "calls/req"
        elif name.endswith("_bytes"):
            units[name] = "B/req"
        elif name.endswith("ratio"):
            units[name] = "ratio"
        else:
            units[name] = "count"
    for stat, unit in (("gen2_pauses", "count"), ("gen2_max_ms", "ms"),
                       ("pause_total_ms", "ms")):
        for phase in ("build", "open", "closed", "sim"):
            units["python.gc.%s.%s" % (stat, phase)] = unit
    return units


#: name -> unit; every traced run reports every row (0 where the
#: workload never runs the layer — see README).
PER_LAYER_UNITS = _units()


def http_per_layer(plain: Dict[str, Any],
                   traced: Dict[str, Any]) -> Dict[str, float]:
    rows = {name: 0.0 for name in PER_LAYER_UNITS}
    opened = plain["open"]
    read, write = opened["read"], opened["write"]
    attempted = opened["attempted"] + plain["closed"]["attempted"]
    failed = opened["failed"] + plain["closed"]["failed"]
    rows.update({
        "read_p50_ms": read.get("p50_ms", 0.0),
        "read_p99_ms": read.get("tail_ms", 0.0),
        "read_tail_pct": read.get("tail_pct", 0.0),
        "write_p50_ms": write.get("p50_ms", 0.0),
        "write_p99_ms": write.get("tail_ms", 0.0),
        "write_tail_pct": write.get("tail_pct", 0.0),
        "goodput_rps": plain["closed"]["goodput_rps"],
        "fail_ratio": failed / attempted if attempted else 0.0,
    })
    build = plain["builds"][-1]
    rows["workloads.populate_s"] = build["workloads.populate_s"]
    rows["core.server.join_s"] = build["core.server.join_s"]
    for name in ("core.coverage.register_calls", "core.coverage.register_us",
                 "pxml.path.parse_calls", "pxml.path.parse_us",
                 "sharding.place_calls"):
        rows[name] = traced["build"][name]
    # Layer table from the traced open-loop phase (requests rarely
    # overlap there); goodput from the traced closed-loop phase.
    rows.update(_layer_rows(traced["open"]["server"]))
    rows["serve.admission.rejected"] = (
        opened["rejected"] + plain["closed"]["rejected"]
    )
    rows["trace.overhead"] = 1.0 - (
        traced["closed"]["goodput_rps"] / plain["closed"]["goodput_rps"]
    )
    client_ms = traced["open"]["client_mean_ms"]
    if client_ms:
        rows["trace.server_wall_share"] = (
            rows["trace.server_wall_us"] / 1000.0 / client_ms
        )
    if rows["trace.server_wall_us"]:
        rows["trace.root_self_share"] = (
            rows["serve.http.connection_us"] / rows["trace.server_wall_us"]
        )
    for phase in ("open", "closed"):
        rows["server.cpu_busy." + phase] = plain[phase]["server"]["cpu_busy"]
        rows["client.cpu_busy." + phase] = plain[phase]["client_cpu_busy"]
        for stat, value in plain[phase]["server"]["gc"].items():
            rows["python.gc.%s.%s" % (stat, phase)] = value
    for stat, value in build["gc"].items():
        rows["python.gc.%s.build" % stat] = value
    rows["host.calibration_ms"] = statistics.median(
        plain["open"]["server"]["calibration_ms"]
        + plain["closed"]["server"]["calibration_ms"]
    )
    rows["loadgen.late_max_ms"] = max(
        plain["open"]["loadgen_late_max_ms"],
        traced["open"]["loadgen_late_max_ms"],
    )
    return rows


def trace_accounting_failures(rows: Dict[str, float]) -> List[str]:
    """The traced layers must account for the request: against the
    client's clock, and with little server time left unclaimed."""
    failures = []
    share = rows["trace.server_wall_share"]
    if not SERVER_WALL_SHARE_MIN <= share <= 1.0:
        failures.append(
            "traced layers cover %.3f of the client's request wall "
            "(must be %.2f..1)" % (share, SERVER_WALL_SHARE_MIN)
        )
    if rows["trace.root_self_share"] > ROOT_SELF_SHARE_MAX:
        failures.append(
            "%.3f of the server's request wall is in no traced layer "
            "(at most %.2f)" % (rows["trace.root_self_share"],
                                ROOT_SELF_SHARE_MAX)
        )
    return failures


# ---------------------------------------------------------------------------
# The simulator workloads
# ---------------------------------------------------------------------------

#: simulator path -> its per-layer rate row
SIM_RATE_ROWS = {
    "batch": "sim_batch_qps",
    "referral": "sim_referral_qps",
    "federation": "fed_writes_per_s",
}


def sim_metrics(run: Dict[str, Any], trace: bool) -> Dict[str, float]:
    rate = run["ops"] / run["wall_s"]
    if not trace:
        # Scaled to the reference host speed, second by second (see
        # README, "Host speed"); the raw figures are in the record.
        return {
            "setup_s": statistics.median(run["setup_times_s"]),
            # mean wall time of one unit of work as its caller sees it:
            # a 64-query batch call, a 64-query referral chunk, a storm.
            # The mean, not the median: the host's speed switches
            # between states every few seconds, and the median of a run
            # follows whichever state held half its time.
            "latency_ms": run["scaled_call_s"] / len(run["call_s"]) * 1000.0,
            "goodput_per_s": run["ops"] / run["scaled_wall_s"],
            "peak_rss_mb": run["peak_rss_mb"],
        }
    rows = {name: 0.0 for name in PER_LAYER_UNITS}
    virtual = run["virtual"]
    fed = virtual["fed"]
    rows.update({
        SIM_RATE_ROWS[run["phase"]]: rate,
        "host.calibration_ms": statistics.median(run["calibration_ms"]),
        "simnet.virtual_p50_ms": virtual["p50_ms"],
        "simnet.messages": virtual["messages"],
        "simnet.bytes": virtual["bytes"],
        "federation.rounds": fed.get("rounds", 0),
        "federation.conflicts": fed.get("conflicts", 0),
        "federation.echo_suppressed": fed.get("echo_suppressed", 0),
    })
    per_call: Dict[str, List[float]] = defaultdict(list)
    for span in run["tracer"].spans:
        per_call[span.name].append(span.end - span.start)
    for span_name, row in (
        ("core.query.execute_batch", "core.query.execute_batch_us"),
        ("core.query.referral", "core.query.referral_us"),
        ("core.mdm.resolve_batch", "core.mdm.resolve_batch_us"),
        ("federation.round", "federation.round_us"),
    ):
        calls = per_call.get(span_name, [])
        rows[row] = sum(calls) / len(calls) * 1e6 if calls else 0.0
    for name, value in run["build"].items():
        rows[name] = value
    for stat, value in run["gc"]["build"].items():
        rows["python.gc.%s.build" % stat] = value
    for stat, value in run["gc"]["sim"].items():
        rows["python.gc.%s.sim" % stat] = value
    return rows


def run_sim_workload(phase: str, seed: int, seconds: float,
                     trace: bool) -> Dict[str, Any]:
    import gc

    from sim import run_sim
    from tracing import GcMonitor, peak_rss_mb

    gcmon = GcMonitor()
    gc.callbacks.append(gcmon)
    try:
        start = time.perf_counter()
        run = run_sim(phase, seed, seconds, trace)
    finally:
        gc.callbacks.remove(gcmon)
    measure_start, measure_end = run.pop("measured")
    run["gc"] = {
        "build": gcmon.between(start, measure_start),
        "sim": gcmon.between(measure_start, measure_end),
    }
    run["peak_rss_mb"] = peak_rss_mb()
    return run


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> Dict[str, Any]:
    """Run one workload; returns the record (metrics, checks, facts)."""
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, "%s-seed%d-trace%d" % (workload, seed, trace))
    record: Dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "host": host_facts(),
        "git_commit": git_commit(ROOT),
        "cpus": {"client": CLIENT_CPU, "server": SERVER_CPU},
    }
    if workload in SIM_WORKLOADS:
        from sim import ARRIVAL_MEAN_MS, BATCH_SIZE, FED_WRITES

        run = run_sim_workload(SIM_WORKLOADS[workload], seed, seconds, trace)
        failures = run["failures"]
        attempted = run["ops"]
        metrics = sim_metrics(run, trace)
        run.pop("tracer")
        calls = run.pop("call_s")
        run["raw"] = {
            "goodput_per_s": run["ops"] / run["wall_s"],
            "latency_ms": statistics.fmean(calls) * 1000.0,
            "call_p50_ms": statistics.median(calls) * 1000.0,
        }
        run["call_ms"] = [round(s * 1000.0, 3) for s in calls]
        record.update(run)
        record["rates"] = {
            "batch_size": BATCH_SIZE,
            "arrival_mean_ms": ARRIVAL_MEAN_MS,
            "federation_writes_per_storm": FED_WRITES,
        }
        failed = 0
    else:
        from loadgen import CONNECTIONS

        # The end-to-end metrics come from the closed loop alone, so an
        # untraced run spends its whole time there.
        names = BOTH_PHASES if trace else ("closed",)
        seconds_each = seconds / 2.0 if trace else seconds
        plain = asyncio.run(http_untraced(
            workload, seed, seconds_each, 1 if trace else SETUP_REPEATS,
            names,
        ))
        failures = plain["failures"]
        phases = [plain[name] for name in names]
        attempted = sum(phase["attempted"] for phase in phases)
        failed = sum(phase["failed"] for phase in phases)
        record["rates"] = {"closed_loop_connections": CONNECTIONS}
        record["untraced"] = plain
        if trace:
            record["rates"]["open_loop_per_s"] = plain["rate_per_s"]
            traced = asyncio.run(http_traced(
                workload, seed, seconds_each, stem + ".spans"
            ))
            record["traced"] = traced
            phases += [traced["open"], traced["closed"]]
            metrics = http_per_layer(plain, traced)
            failures += trace_accounting_failures(metrics)
        else:
            metrics = http_e2e(plain)
        for phase in phases:
            if not phase["valid"]:
                failures.append(
                    "a phase was paced by the load generator (client "
                    "busy %.2f, late %.1f ms): not reported"
                    % (phase["client_cpu_busy"],
                       phase["loadgen_late_max_ms"])
                )
    record.update({
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "correct": not failures,
        "metrics": metrics,
    })
    with open(stem + ".json", "w") as out:
        json.dump(record, out, indent=1, sort_keys=True, default=str)
    return record


def result_line(record: Dict[str, Any], units: Dict[str, str]) -> str:
    metrics = record["metrics"] if record["correct"] else {}
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    })


def print_table(record: Dict[str, Any], units: Dict[str, str]) -> None:
    print("== %s seed=%d trace=%d  correct=%s  attempted=%d failed=%d" % (
        record["workload"], record["seed"], record["trace"],
        record["correct"], record["attempted"], record["failed"],
    ))
    for failure in record["failures"][:20]:
        print("   FAILED CHECK: %s" % failure)
    if record["correct"]:
        for name, value in record["metrics"].items():
            print("   %-40s %14.4f %s" % (name, value, units[name]))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("gupbench: the program's sources (%s) are missing" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    pin_to_cpu(CLIENT_CPU)
    units = E2E_UNITS if not args.trace else PER_LAYER_UNITS
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for workload in workloads:
        record = run_workload(workload, args.seed, args.seconds,
                              bool(args.trace))
        print_table(record, units)
        records.append(record)
    if len(records) == 1:
        print(result_line(records[0], units))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": {
                "%s.%s" % (r["workload"], name): {
                    "value": value, "unit": units[name],
                }
                for r in records if r["correct"]
                for name, value in r["metrics"].items()
            },
        }))
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
