"""The packed routing store: pinned output, capture, and edge cases.

Edge cases are checked against the exact path-vector reference in
:mod:`tests.path_vector` as well as by hand.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import SMALL
from repro.experiments.world import World
from repro.explain import provenance
from repro.geo.atlas import load_default_atlas
from repro.netaddr.ipv4 import IPv4Address, IPv4Prefix
from repro.par.cache import decode_table, encode_table, tables_digest
from repro.routing.engine import RoutingEngine
from repro.routing.flat import FlatRoutingTable
from repro.routing.route import Announcement, OriginSpec
from repro.topology.asys import (
    AutonomousSystem,
    Interconnect,
    Link,
    LinkKind,
    PoP,
    Tier,
)
from repro.topology.graph import Topology
from tests.path_vector import assert_matches_oracle

ATLAS = load_default_atlas()
PREFIX = IPv4Prefix.parse("198.18.0.0/24")


class Net:
    """Terse imperative topology construction (mirrors test_routing)."""

    def __init__(self):
        self.topo = Topology()
        self._addr = 167772160  # 10.0.0.0

    def node(self, nid, iata="FRA", tier=Tier.TRANSIT):
        self.topo.add_node(
            AutonomousSystem(
                node_id=nid, asn=nid, name=f"as{nid}", tier=tier,
                home_country=ATLAS.get(iata).country,
                pops=(PoP(city=ATLAS.get(iata)),),
            )
        )
        return nid

    def _ic(self, iata):
        a = IPv4Address(self._addr)
        b = IPv4Address(self._addr + 1)
        self._addr += 2
        return Interconnect(city=ATLAS.get(iata), addr_a=a, addr_b=b)

    def transit(self, customer, provider, iata="FRA"):
        self.topo.add_link(Link(a=customer, b=provider, kind=LinkKind.TRANSIT,
                                interconnects=(self._ic(iata),)))


#: SMALL routing digest over every registered announcement; a change to
#: routing output shows up here first.
SMALL_TABLES_DIGEST = (
    "6829ed2a9a305d1269ccc2900c1f54ce31d9f4fcbfaedecdb1389033760ee1f0"
)


class TestSmallWorldDigest:
    def test_tables_digest_pinned(self):
        # A fresh world: the shared session world is mutated by other
        # tests (extra announcements, failed sites).
        world = World(SMALL)
        engine = RoutingEngine(world.topology)
        tables = engine.compute_many(world.registry.announcements())
        assert tables_digest(tables) == SMALL_TABLES_DIGEST


class TestExplainTrailParity:
    """Provenance capture runs the production sweep: the table computed
    under capture is the same packed table, and every routed node gets
    a selection trail."""

    def test_trails_and_digest_under_capture(self, tiny_topology):
        stub = next(n.node_id for n in tiny_topology.nodes()
                    if n.tier is Tier.STUB)
        announcement = Announcement(
            prefix=PREFIX, origins=(OriginSpec(site_node=stub),)
        )
        engine = RoutingEngine(tiny_topology)
        baseline = engine.compute_uncached(announcement)
        with provenance.capturing() as recorder:
            captured = engine.compute_uncached(announcement)
        assert isinstance(captured, FlatRoutingTable)
        assert encode_table(captured) == encode_table(baseline)
        trailed = [
            node_id for node_id in captured.best
            if recorder.selection_for(str(PREFIX), node_id) is not None
        ]
        assert trailed == list(captured.best)


class TestFlatEdgeCases:
    def test_equal_best_overflow_capped_like_dict(self):
        """>16 equal candidates at one node: the best 16 are kept."""
        net = Net()
        sink = net.node(1, tier=Tier.STUB)
        origins = []
        for nid in range(2, 22):  # 20 single-hop providers of the sink
            net.node(nid)
            net.transit(sink, nid)
            origins.append(nid)
        announcement = Announcement(
            prefix=PREFIX,
            origins=tuple(OriginSpec(site_node=o) for o in origins),
        )
        flat = RoutingEngine(net.topo).compute_uncached(announcement)
        assert_matches_oracle(net.topo, flat)
        choice = flat.choice_at(sink)
        assert choice is not None and len(choice.routes) == 16

    def test_unreachable_node_absent_from_flat_store(self):
        """Export restriction leaves a node unreachable."""
        net = Net()
        origin = net.node(1, tier=Tier.STUB)
        reached = net.node(2)
        starved = net.node(3)
        net.transit(origin, reached)
        net.transit(origin, starved)
        # The origin announces toward provider 2 only; provider 3's sole
        # path to the prefix is the direct link the restriction blocks.
        announcement = Announcement(
            prefix=PREFIX,
            origins=(OriginSpec(site_node=origin, neighbors=(reached,)),),
        )
        flat = RoutingEngine(net.topo).compute_uncached(announcement)
        assert_matches_oracle(net.topo, flat)
        assert flat.choice_at(starved) is None
        assert flat.catchment_of(starved) is None
        assert flat.reachable_fraction() == pytest.approx(2.0 / 3.0)

    def test_unreachable_nodes_survive_codec_roundtrip(self):
        net = Net()
        origin = net.node(1, tier=Tier.STUB)
        hub = net.node(2)
        stranded = net.node(3, tier=Tier.STUB)
        net.transit(origin, hub)
        # `stranded` has no links at all: absent from every table.
        announcement = Announcement(
            prefix=PREFIX, origins=(OriginSpec(site_node=origin),)
        )
        flat = RoutingEngine(net.topo).compute_uncached(announcement)
        assert_matches_oracle(net.topo, flat)
        assert flat.choice_at(stranded) is None
        assert flat.reachable_fraction() == pytest.approx(2.0 / 3.0)
        blob = encode_table(flat)
        decoded = decode_table(blob, announcement, flat.topology_version)
        assert isinstance(decoded, FlatRoutingTable)
        assert decoded.choice_at(stranded) is None
        assert decoded.reachable_fraction() == flat.reachable_fraction()
        assert encode_table(decoded) == blob
