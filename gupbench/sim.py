"""The simulator workloads: the in-process, virtual-time paths the
HTTP server never runs, one workload per path so that each has its own
rate.

* ``sim-batch`` — E19 shape: Zipf(1.1) arrivals over the simulator
  world's subscribers, 64 queries per :meth:`~repro.core.QueryExecutor.
  execute_batch` call;
* ``sim-referral`` — the same arrivals resolved through the mirrored
  :meth:`~repro.core.mdm.CentralizedMdm.resolve_batch`, then each run
  through the referral pattern (:meth:`QueryExecutor.referral`);
* ``sim-federation`` — E22 shape: two-sided write storms against a
  GUP <-> foreign-directory :class:`~repro.federation.Reconciler`
  (last-writer-wins), each run to its fixpoint.

A workload runs rounds of its path for the whole measuring time. Every
round is a pure function of (seed, round).

Set-up and determinism are measured together, in child processes of
this module (``python3 gupbench/sim.py --child --phase P --seed N
--started T``): each starts, imports the program, builds the world,
notes the time since it was spawned, then runs round 0 and prints a
digest of its virtual totals and message counts. Each child runs under
its own ``PYTHONHASHSEED``, so an outcome that depended on the order of
a string-keyed set or dict would give a digest different from the
measuring process's round 0, and the run fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

if __name__ == "__main__":  # run as a script: find the program's sources
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    ))

from repro.access import (  # noqa: E402
    PolicyEnforcementPoint, PolicyRepository, PolicyRule, RequestContext,
)
from repro.bus import ChangeBus  # noqa: E402
from repro.core.provenance import ProvenanceTracker  # noqa: E402
from repro.federation import (  # noqa: E402
    FederationListener, ForeignDirectory, GupAttributeStore, MappingEntry,
    MappingTable, Reconciler, policy_named,
)
from repro.simnet import Network, Simulator  # noqa: E402

from loadgen import ZipfChooser  # noqa: E402
from tracing import CAL_REF_MS, Tracer, calibration_ms  # noqa: E402
from world import SIM_COMPONENT, SimWorld, component_path  # noqa: E402

PHASES = ("batch", "referral", "federation")
BATCH_SIZE = 64
#: Batches (and referral chunks) per round.
BATCHES_PER_ROUND = 8
ARRIVAL_MEAN_MS = 5.0
ZIPF_EXPONENT = 1.1
#: The virtual figures (latency, messages, federation counts) are taken
#: over this many first rounds, so one seed gives one value whatever
#: the host's speed.
VIRTUAL_ROUNDS = 4
#: One set-up child per hash seed; its round 0 must match the parent's.
CHILD_HASH_SEEDS = ("1", "2", "3", "4")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 60.0
#: The host's speed is read after every round (``calibration_ms``), and
#: each window of this many seconds is scaled to the reference speed.
CAL_WINDOW_S = 1.0

#: (gup suffix, foreign attribute, direction), as in E22.
FED_TABLE = (
    ("self/email", "mail", "both"),
    ("self/name", "displayName", "out"),
    ("work/phone", "telephoneNumber", "in"),
)
FED_WRITES = 2000
FED_USERS = 40
FED_INTERVAL_MS = 250.0


def _context() -> RequestContext:
    return RequestContext("app", relationship="third-party")


class Totals:
    """Deterministic virtual figures of one round (compared bit for
    bit across processes) plus wall timings (not compared)."""

    def __init__(self) -> None:
        #: virtual ms per call (batch, referral) or per storm
        self.virtual: List[float] = []
        self.messages = 0
        self.bytes = 0
        #: wall seconds per unit of work: a batch call, a referral
        #: chunk, a storm
        self.call_s: List[float] = []
        self.ops = 0
        #: federation storms only: reconciler figures, and the values
        #: every contested pair converged to
        self.fed: Dict[str, int] = {}
        self.converged: List[Tuple[str, str, str]] = []

    def charge(self, trace: Any) -> None:
        self.virtual.append(trace.elapsed_ms)
        self.messages += trace.hops
        self.bytes += trace.bytes_total

    def key(self) -> Tuple[Any, ...]:
        return (tuple(self.virtual), self.messages, self.bytes,
                tuple(sorted(self.fed.items())), tuple(self.converged))


def digest(totals: Totals) -> str:
    return hashlib.sha256(repr(totals.key()).encode("utf-8")).hexdigest()


def _arrivals(chooser: ZipfChooser, seed: int, phase: str,
              round_no: int) -> List[Tuple[float, str]]:
    rng = random.Random("%d:%s:%d" % (seed, phase, round_no))
    now, out = 0.0, []
    for _ in range(BATCH_SIZE * BATCHES_PER_ROUND):
        now += rng.expovariate(1.0 / ARRIVAL_MEAN_MS)
        out.append((now, chooser.pick(rng)))
    return out


def _check_book(world: SimWorld, user_id: str, fragment: Any,
                failures: List[str], what: str) -> None:
    book = fragment.child(SIM_COMPONENT) if fragment is not None else None
    got = book.serialize() if book is not None else None
    if got != world.expected_book(user_id):
        failures.append("%s: wrong address book for %s" % (what, user_id))


def batch_round(world: SimWorld, chooser: ZipfChooser, seed: int,
                round_no: int, failures: List[str]) -> Totals:
    totals = Totals()
    arrivals = _arrivals(chooser, seed, "batch", round_no)
    for start in range(0, len(arrivals), BATCH_SIZE):
        chunk = arrivals[start:start + BATCH_SIZE]
        users = [user_id for _at, user_id in chunk]
        began = time.perf_counter()
        results, trace = world.executor.execute_batch(
            "client", [component_path(u, SIM_COMPONENT) for u in users],
            [_context() for _ in users], now=chunk[-1][0],
        )
        totals.call_s.append(time.perf_counter() - began)
        totals.charge(trace)
        for index, (user_id, item) in enumerate(zip(users, results)):
            if not item.ok:
                failures.append("batch: %s failed: %s" % (user_id, item.error))
            elif index % 16 == 0:
                _check_book(world, user_id, item.fragment, failures, "batch")
        totals.ops += len(users)
    return totals


def referral_round(world: SimWorld, chooser: ZipfChooser, seed: int,
                   round_no: int, failures: List[str]) -> Totals:
    totals = Totals()
    arrivals = _arrivals(chooser, seed, "referral", round_no)
    for start in range(0, len(arrivals), BATCH_SIZE):
        chunk = arrivals[start:start + BATCH_SIZE]
        now = chunk[-1][0]
        paths = [component_path(u, SIM_COMPONENT) for _at, u in chunk]
        fragments = []
        began = time.perf_counter()
        outcomes, trace = world.mdm.resolve_batch(
            "client", paths, [_context() for _ in paths], now=now,
        )
        totals.charge(trace)
        for path in paths:
            fragment, trace = world.executor.referral(
                "client", path, _context(), now=now,
            )
            totals.charge(trace)
            fragments.append(fragment)
        totals.call_s.append(time.perf_counter() - began)
        for path, (referral, error) in zip(paths, outcomes):
            if error is not None or referral is None:
                failures.append("mdm: %s unresolved: %s" % (path, error))
        for index in range(0, len(chunk), 16):
            _check_book(world, chunk[index][1], fragments[index], failures,
                        "referral")
        totals.ops += len(chunk)
    return totals


def federation_storm(seed: int, round_no: int, failures: List[str],
                     tracer: Optional[Tracer] = None) -> Totals:
    """One E22-shaped two-sided storm of :data:`FED_WRITES` writes,
    run to its fixpoint; every contested pair must converge."""
    rng = random.Random("%d:federation:%d" % (seed, round_no))
    start = time.perf_counter()
    sim = Simulator()
    network = Network()
    for node in ("gupster", "fed-conn", "corp-ad"):
        network.add_node(node)
    bus = ChangeBus(sim, network, "gupster")
    gup = GupAttributeStore(sim, bus=bus)
    foreign = ForeignDirectory("corp-ad", sim)
    repo = PolicyRepository()
    users = ["u%04d" % index for index in range(FED_USERS)]
    for user in users:
        repo.store(PolicyRule(user, "/user[@id='%s']" % user, "permit"))
    rec = Reconciler(
        "fed-conn", gup, foreign,
        MappingTable([MappingEntry(s, a, d) for s, a, d in FED_TABLE]),
        network, PolicyEnforcementPoint(repo),
        policy=policy_named("lww"), provenance=ProvenanceTracker(),
        interval_ms=FED_INTERVAL_MS,
    )
    if tracer is not None:
        rec.sync_round = tracer.wrap(  # type: ignore[method-assign]
            "federation.round", rec.sync_round
        )
    bus.attach(FederationListener("fed", rec))
    rec.start()
    attr_of = {suffix: attr for suffix, attr, _d in FED_TABLE}
    direction = {suffix: d for suffix, _a, d in FED_TABLE}
    last: Dict[Tuple[str, str], Tuple[str, str]] = {}  # -> (side, value)
    totals = Totals()
    for _ in range(FED_WRITES):
        sim.run(until=sim.now + rng.randint(1, 9))
        user = rng.choice(users)
        suffix = rng.choice(list(attr_of))
        value = "v%06x" % rng.getrandbits(24)
        if rng.random() < 0.5:
            gup.write(user, suffix, value)
            side = "gup"
        else:
            foreign.write(user, attr_of[suffix], value)
            side = "foreign"
        if direction[suffix] == "both" or (
            (direction[suffix] == "out") == (side == "gup")
        ):
            last[(user, suffix)] = (side, value)
    sim.run(until=sim.now + 8000)
    totals.call_s.append(time.perf_counter() - start)
    totals.ops = FED_WRITES
    diverged = 0
    for (user, suffix), (_side, value) in sorted(last.items()):
        totals.converged.append((user, suffix, value))
        g = gup.read(user, suffix)
        f = foreign.read(user, attr_of[suffix])
        pair = (None if g is None else g[0], None if f is None else f[0])
        if pair != (value, value):
            diverged += 1
    if diverged:
        failures.append("federation storm %d: %d pair(s) diverged"
                        % (round_no, diverged))
    totals.virtual = [sim.now]
    totals.messages = int(network.metrics.counter("bus.messages").value)
    totals.fed = {
        "rounds": rec.rounds,
        "conflicts": rec.conflicts,
        "echo_suppressed": rec.echo_suppressed_in + rec.echo_suppressed_gup,
        "diverged": diverged,
    }
    return totals


def build_world(tracer: Optional[Tracer] = None,
                build: Optional[Dict[str, float]] = None) -> SimWorld:
    """One simulator world; with a *tracer*, the build is traced and
    its figures land in *build*."""
    from server import build_summary, install_build_tracing

    undo = install_build_tracing(tracer) if tracer is not None else None
    try:
        world = SimWorld(timings=build)
    finally:
        if undo is not None:
            undo()
    if tracer is not None and build is not None:
        build.update(build_summary(tracer, time.perf_counter()))
    return world


def trace_sim_world(tracer: Tracer, world: SimWorld) -> None:
    world.executor.execute_batch = tracer.wrap(  # type: ignore[method-assign]
        "core.query.execute_batch", world.executor.execute_batch
    )
    world.executor.referral = tracer.wrap(  # type: ignore[method-assign]
        "core.query.referral", world.executor.referral
    )
    world.mdm.resolve_batch = tracer.wrap(  # type: ignore[method-assign]
        "core.mdm.resolve_batch", world.mdm.resolve_batch
    )


def round_runner(phase: str, seed: int, failures: List[str],
                 tracer: Optional[Tracer] = None,
                 build: Optional[Dict[str, float]] = None,
                 ) -> Callable[[int], Totals]:
    """Build what *phase* needs; returns round number -> its totals."""
    if phase == "federation":
        return lambda r: federation_storm(seed, r, failures, tracer)
    world = build_world(tracer, build)
    if tracer is not None:
        trace_sim_world(tracer, world)
    chooser = ZipfChooser(world.user_ids, ZIPF_EXPONENT,
                          random.Random("%d:rank" % seed))
    one = batch_round if phase == "batch" else referral_round
    return lambda r: one(world, chooser, seed, r, failures)


def host_scaled(rounds: List[Tuple[float, float, Totals, float]],
                start: float) -> Tuple[float, float]:
    """(wall s, summed call s) of *rounds* — (ended at, wall s, totals,
    calibration ms) each — scaled window by window to a host on which
    the calibration loop takes :data:`CAL_REF_MS`."""
    windows: Dict[int, List[Tuple[float, Totals, float]]] = {}
    for ended, wall, totals, cal_ms in rounds:
        windows.setdefault(int((ended - start) / CAL_WINDOW_S), []).append(
            (wall, totals, cal_ms)
        )
    wall_s = call_s = 0.0
    for window in windows.values():
        scale = CAL_REF_MS / statistics.median(c for _w, _t, c in window)
        wall_s += scale * sum(w for w, _t, _c in window)
        call_s += scale * sum(s for _w, t, _c in window for s in t.call_s)
    return wall_s, call_s


def spawn_child(phase: str, seed: int, hash_seed: str) -> Dict[str, Any]:
    """Set up *phase* in a fresh process under *hash_seed*; returns its
    set-up seconds, round 0 digest and failures."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    argv = [sys.executable, os.path.abspath(__file__), "--child",
            "--phase", phase, "--seed", str(seed)]
    started = time.perf_counter()
    done = subprocess.run(
        argv + ["--started", repr(started)], env=env, capture_output=True,
        text=True, timeout=CHILD_TIMEOUT_S, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError("set-up child failed (%d): %s"
                           % (done.returncode, done.stderr[-2000:]))
    return dict(json.loads(done.stdout.splitlines()[-1]),
                hash_seed=hash_seed)


def run_sim(phase: str, seed: int, seconds: float,
            trace: bool) -> Dict[str, Any]:
    """Set up in children, run *phase* for *seconds*, check."""
    failures: List[str] = []
    mine = os.environ.get("PYTHONHASHSEED")
    hash_seeds = [h for h in CHILD_HASH_SEEDS if h != mine][:SETUP_REPEATS]
    children = [spawn_child(phase, seed, h) for h in hash_seeds]
    tracer = Tracer() if trace else None
    build: Dict[str, float] = {}
    run_round = round_runner(phase, seed, failures, tracer, build)
    measure_start = time.perf_counter()
    done: List[Totals] = []
    timed: List[Tuple[float, float, Totals, float]] = []
    while (len(done) < VIRTUAL_ROUNDS
           or time.perf_counter() - measure_start < seconds):
        began = time.perf_counter()
        done.append(run_round(len(done)))
        ended = time.perf_counter()
        timed.append((ended, ended - began, done[-1], calibration_ms()))
    measured = (measure_start, time.perf_counter())
    scaled_wall_s, scaled_call_s = host_scaled(timed, measure_start)
    first = digest(done[0])
    for child in children:
        failures += ["child (PYTHONHASHSEED=%s): %s"
                     % (child["hash_seed"], f) for f in child["failures"]]
        if child["digest"] != first:
            failures.append(
                "round 0 under PYTHONHASHSEED=%s is not bit-identical to "
                "this process's" % child["hash_seed"]
            )
    fixed = done[:VIRTUAL_ROUNDS]
    fed = [t.fed for t in fixed if t.fed]
    return {
        "phase": phase,
        "setup_times_s": [child["setup_s"] for child in children],
        "hash_seeds": hash_seeds,
        "measured": measured,
        "build": build,
        "rounds": len(done),
        "ops": sum(t.ops for t in done),
        "wall_s": sum(wall for _e, wall, _t, _c in timed),
        "call_s": [s for t in done for s in t.call_s],
        "calibration_ms": [cal for _e, _w, _t, cal in timed],
        "scaled_wall_s": scaled_wall_s,
        "scaled_call_s": scaled_call_s,
        "virtual": {
            "rounds": len(fixed),
            "p50_ms": statistics.median(ms for t in fixed for ms in t.virtual),
            "messages": sum(t.messages for t in fixed),
            "bytes": sum(t.bytes for t in fixed),
            "fed": {key: sum(f[key] for f in fed) for key in
                    (fed[0] if fed else {})},
        },
        "virtual_digest": first[:16],
        "failures": failures,
        "tracer": tracer,
    }


def child_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--child", action="store_true", required=True)
    parser.add_argument("--phase", choices=PHASES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--started", type=float, required=True)
    args = parser.parse_args(argv)
    failures: List[str] = []
    run_round = round_runner(args.phase, args.seed, failures)
    # perf_counter is the system-wide monotonic clock the parent read
    # just before spawning this process.
    setup_s = time.perf_counter() - args.started
    totals = run_round(0)
    print(json.dumps({"setup_s": setup_s, "digest": digest(totals),
                      "failures": failures}))
    return 0


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))
