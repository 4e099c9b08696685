"""The worlds the benchmark builds, and the expected answers they give.

Two worlds, both fixed (independent of the workload seed, which only
drives the requests):

* the **served world** — two :class:`~repro.stores.ShardedStore` fleets
  over one subscriber population behind a GUPster with a component
  cache, the privacy shield on (one permit rule per subscriber for the
  benchmark's requester) and a change bus invalidating the cache;
* the **simulator world** — the E19 shape: one sharded fleet holding
  one address book per subscriber, driven through
  :class:`~repro.core.QueryExecutor` and a mirrored
  :class:`~repro.core.mdm.CentralizedMdm`; plus the E22 shape, a
  GUP <-> foreign-directory reconciler under a two-sided write storm.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.access import PolicyRule, requester_is
from repro.bus import CacheInvalidationListener, ChangeBus
from repro.core import GupsterServer, QueryExecutor
from repro.core.cache import ComponentCache
from repro.core.coverage import CoverageMap
from repro.core.mdm import CentralizedMdm
from repro.pxml import PNode
from repro.serve import ServeWorld
from repro.simnet import Network, Simulator
from repro.stores import ShardedStore
from repro.workloads import SyntheticAdapter

#: Subscribers in the served world: five times the 4096-entry
#: ``parse_path`` memo and ten times the component cache, so a uniform
#: choice over them bypasses both.
SERVE_USERS = 20_000
SHARDS_PER_FLEET = 8
#: (fleet id, region, adapter seed, components it holds per subscriber)
FLEETS: Tuple[Tuple[str, str, int, Tuple[str, ...]], ...] = (
    ("gup.home", "core", 5, ("address-book", "presence")),
    ("gup.corp", "enterprise", 9, ("calendar", "devices")),
)
#: Sized so the Zipf(1.1) head fits: the 2048 hottest of 20k
#: subscribers draw about 89% of the requests.
CACHE_CAPACITY = 2048
#: The one requester every benchmark request claims; each subscriber's
#: shield holds one permit rule for it.
REQUESTER = "bench-app"

SIM_USERS = 10_000
SIM_SHARDS = 16
SIM_COMPONENT = "address-book"
SIM_MIRRORS = ("mdm-1", "mdm-2")

Timings = Dict[str, float]


@contextmanager
def timed(timings: Timings, name: str) -> Iterator[None]:
    """Add the wall seconds spent in the block to ``timings[name]``."""
    start = time.perf_counter()
    try:
        yield
    finally:
        timings[name] = timings.get(name, 0.0) + (
            time.perf_counter() - start
        )


def user_ids(count: int) -> List[str]:
    return ["u%06d" % index for index in range(count)]


def profile_path(user_id: str) -> str:
    return "/user[@id='%s']" % user_id


def component_path(user_id: str, component: str) -> str:
    return "/user[@id='%s']/%s" % (user_id, component)


# ---------------------------------------------------------------------------
# The served world
# ---------------------------------------------------------------------------

def make_fleets(network: Optional[Network] = None) -> List[ShardedStore]:
    """The two fleets, empty. The client builds the same fleets (same
    ids, seeds and ring) to compute expected answers in process."""
    fleets = []
    for base_id, region, seed, _components in FLEETS:
        fleets.append(ShardedStore(
            base_id,
            SHARDS_PER_FLEET,
            network=network,
            region=region,
            adapter_factory=lambda sid, reg, seed=seed: SyntheticAdapter(
                sid, region=reg, seed=seed
            ),
        ))
    return fleets


def populate(fleets: Sequence[ShardedStore], users: Sequence[str]) -> None:
    for fleet, (_id, _region, _seed, components) in zip(fleets, FLEETS):
        for user_id in users:
            fleet.add_user(user_id, components)


def build_serve_world(
    timings: Optional[Timings] = None,
) -> Tuple[ServeWorld, List[ShardedStore]]:
    """The served world; *timings* receives the build phases (s)."""
    timings = timings if timings is not None else {}
    network = Network(seed=11)
    network.add_node("gupster", region="core")
    network.add_node("http-client", region="internet")
    server = GupsterServer(
        "gupster",
        cache=ComponentCache(
            capacity=CACHE_CAPACITY,
            default_ttl_ms=600_000.0,
            stale_grace_ms=600_000.0,
        ),
        enforce_policies=True,
        coverage=CoverageMap(track_changes=False),
    )
    ids = user_ids(SERVE_USERS)
    fleets = make_fleets(network)
    with timed(timings, "workloads.populate_s"):
        populate(fleets, ids)
    with timed(timings, "core.server.join_s"):
        for fleet in fleets:
            fleet.join(server)
    with timed(timings, "access.provision_s"):
        condition = requester_is(REQUESTER)
        for user_id in ids:
            server.provision_policy(user_id, PolicyRule(
                user_id, profile_path(user_id), "permit",
                condition=condition, rule_id="bench-" + user_id,
            ))
    sim = Simulator()
    bus = ChangeBus(sim, network, origin_node="gupster")
    bus.attach(CacheInvalidationListener("serve-cache", server.cache))
    world = ServeWorld(server, sim=sim, network=network, bus=bus)
    return world, fleets


def expected_components(
    fleets: Sequence[ShardedStore], user_id: str,
    writes: Optional[Dict[str, str]] = None,
) -> Dict[str, str]:
    """component tag -> serialized content the seeded adapters of
    *fleets* give *user_id* once *writes* (component -> serialized
    value) are applied; computed in process, the fleets hold only the
    users asked about."""
    from repro.pxml import parse

    expected: Dict[str, str] = {}
    for fleet in fleets:
        adapter = fleet.adapter_for(user_id)
        components = _components_of(fleet)
        if not adapter.holdings(user_id):  # type: ignore[attr-defined]
            fleet.add_user(user_id, components)
        for component, value in (writes or {}).items():
            if component in components:
                adapter.apply_component(user_id, component, parse(value))
        view = adapter.export_user(user_id)
        for child in view.children if view is not None else ():
            expected[child.tag] = child.serialize()
    return expected


def _components_of(fleet: ShardedStore) -> Tuple[str, ...]:
    for base_id, _region, _seed, components in FLEETS:
        if base_id == fleet.base_id:
            return components
    raise KeyError(fleet.base_id)


def written_book(user_id: str, serial: int, rng: random.Random) -> PNode:
    """The address book a provisioning write sets: three entries, the
    first naming the write so every write's value is distinct."""
    book = PNode("address-book")
    for index in range(3):
        item = book.append(PNode("item", {
            "id": str(index),
            "type": "personal" if index % 2 else "corporate",
        }))
        item.append(PNode(
            "name", text="Entry %d of %s, write %d" % (index, user_id, serial)
        ))
        item.append(PNode("number", {"type": "cell"}, "732-%03d-%04d" % (
            rng.randint(100, 999), rng.randint(0, 9999),
        )))
    return book


# ---------------------------------------------------------------------------
# The simulator world (E19 shape)
# ---------------------------------------------------------------------------

class SimWorld:
    """One sharded fleet, a GUPster, an executor and a mirrored MDM."""

    def __init__(self, timings: Optional[Timings] = None) -> None:
        timings = timings if timings is not None else {}
        self.network = Network(seed=19)
        self.network.add_node("gupster", region="core")
        self.network.add_node("client", region="internet")
        for mirror in SIM_MIRRORS:
            self.network.add_node(mirror, region="core")
        self.server = GupsterServer(
            "gupster",
            enforce_policies=False,
            coverage=CoverageMap(track_changes=False),
        )
        # No export memo (E19 keeps one): every query generates its
        # profile, so a query costs the same early and late in a run.
        self.fleet = ShardedStore(
            "gup.shard",
            SIM_SHARDS,
            network=self.network,
            region="core",
            adapter_factory=lambda sid, region: SyntheticAdapter(
                sid, region=region
            ),
        )
        self.user_ids = user_ids(SIM_USERS)
        with timed(timings, "workloads.populate_s"):
            for user_id in self.user_ids:
                self.fleet.add_user(user_id, [SIM_COMPONENT])
        with timed(timings, "core.server.join_s"):
            self.fleet.join(self.server)
        self.executor = QueryExecutor(self.network, self.server)
        self.mdm = CentralizedMdm(
            self.network, self.server, list(SIM_MIRRORS)
        )

    def expected_book(self, user_id: str) -> str:
        view = self.fleet.adapter_for(user_id).export_user(user_id)
        book = view.child(SIM_COMPONENT) if view is not None else None
        return book.serialize() if book is not None else ""
