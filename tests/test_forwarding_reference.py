"""The forwarding walk against an exact object-walk reference.

:mod:`tests.forwarding_reference` re-derives every walk from
``choice_at`` route sets and plain great-circle geometry.  Every test
here asserts exact equality with the production walk: the node path,
every hop (address, node, city, IXP, RTT), the total RTT and distance,
the destination city, and, under provenance capture, the exits
considered at each hop.
"""

from __future__ import annotations

from hypothesis import given, settings

from repro.explain import provenance
from repro.geo.atlas import load_default_atlas
from repro.netaddr.ipv4 import IPv4Address
from repro.routing.engine import RoutingEngine
from repro.routing.forwarding import ForwardingPath, Hop, trace_forwarding_path
from repro.routing.route import Announcement, OriginSpec
from repro.topology.asys import Interconnect, Link, LinkKind, Tier
from tests.forwarding_reference import ReferenceWalk, reference_walk
from tests.test_routing import Net
from tests.test_routing_properties import PREFIX, build, small_topologies

ATLAS = load_default_atlas()


def as_forwarding_path(ref: ReferenceWalk) -> ForwardingPath:
    return ForwardingPath(
        node_path=ref.node_path,
        origin=ref.origin,
        hops=tuple(
            Hop(addr=addr, node_id=node, city=city, ixp_id=ixp_id, rtt_ms=rtt)
            for addr, node, city, ixp_id, rtt in ref.hops
        ),
        rtt_ms=ref.rtt_ms,
        distance_km=ref.distance_km,
        dest_city=ref.dest_city,
    )


def assert_matches_reference(
    topology, table, start_node, start_point, last_mile_ms=0.0,
    primary_only=False,
) -> ForwardingPath | None:
    """Walk with and without capture; both must equal the reference."""
    ref = reference_walk(topology, table, start_node, start_point,
                         last_mile_ms, primary_only)
    path = trace_forwarding_path(topology, table, start_node, start_point,
                                 last_mile_ms=last_mile_ms,
                                 primary_only=primary_only)
    with provenance.capturing() as recorder:
        captured = trace_forwarding_path(
            topology, table, start_node, start_point,
            last_mile_ms=last_mile_ms, primary_only=primary_only,
        )
    if ref is None:
        assert path is None and captured is None
        return None
    expected = as_forwarding_path(ref)
    assert path == expected
    assert captured == expected
    trail = recorder.forwarding_for(str(table.prefix), start_node)
    assert trail is not None
    assert trail.origin == ref.origin
    assert trail.steps == ref.steps
    return path


class TestSmallWorld:
    def test_regional_and_global_addresses_match_reference(self, small_world):
        world = small_world
        addresses = [world.imperva.ns.address]
        for deployment in (world.imperva.im6, world.edgio.eg3, world.edgio.eg4):
            addresses.extend(deployment.address_of_region(region)
                             for region in deployment.region_names)
        walked = 0
        for addr in addresses:
            table = world.engine.table_for(addr)
            for probe in world.usable_probes:
                for primary_only in (False, True):
                    path = assert_matches_reference(
                        world.topology, table, probe.as_node, probe.location,
                        probe.last_mile_ms, primary_only,
                    )
                    walked += path is not None
        assert len(addresses) >= 8
        assert walked > len(addresses) * len(world.usable_probes)


@settings(max_examples=200, deadline=None)
@given(small_topologies())
def test_random_topologies_match_reference(spec):
    n, edges, origins = spec
    topo = build(n, edges)
    announcement = Announcement(
        prefix=PREFIX,
        origins=tuple(OriginSpec(site_node=o) for o in origins),
    )
    table = RoutingEngine(topo).compute(announcement)
    for client in range(n):
        for point in (topo.node(client).pops[0].city.location,
                      ATLAS.get("SIN").location):
            for primary_only in (False, True):
                assert_matches_reference(topo, table, client, point, 1.5,
                                         primary_only)


class TestTieBreaks:
    def test_same_city_interconnects_break_ties_on_address_text(self):
        net = Net()
        origin = net.node(9, "FRA", tier=Tier.CDN)
        provider = net.node(1, "LHR")
        stub = net.node(2, "LHR", tier=Tier.STUB)
        london = ATLAS.get("LHR")
        # Numerically .9 < .10, but as text "10.0.0.10" < "10.0.0.9".
        net.topo.add_link(Link(
            a=stub, b=provider, kind=LinkKind.TRANSIT,
            interconnects=tuple(
                Interconnect(city=london,
                             addr_a=IPv4Address.parse(f"10.0.0.{last}"),
                             addr_b=IPv4Address.parse(f"10.0.1.{last}"))
                for last in (9, 10)
            ),
        ))
        net.transit(origin, provider, iata="FRA")
        table = net.routes(origin)
        path = assert_matches_reference(net.topo, table, stub, london.location)
        assert path.hops[0].addr == IPv4Address.parse("10.0.1.10")


class TestMemoInvalidation:
    def test_new_link_nearer_the_probe_is_used(self):
        net = Net()
        origin = net.node(9, "FRA", tier=Tier.CDN)
        far = net.node(1, "JFK")
        stub = net.node(2, "LHR", tier=Tier.STUB)
        net.transit(stub, far, iata="JFK")
        net.transit(origin, far, iata="FRA")
        engine = RoutingEngine(net.topo)
        announcement = Announcement(prefix=PREFIX,
                                    origins=(OriginSpec(site_node=origin),))
        start = ATLAS.get("LHR").location

        before = assert_matches_reference(
            net.topo, engine.compute(announcement), stub, start)
        assert before.node_path == (stub, far, origin)
        assert before.hops[0].city.iata == "JFK"

        # A second provider of equal path length, met in London: the
        # version bump must retire every memoized exit of the old graph.
        version = net.topo.version
        near = net.node(3, "LHR")
        net.transit(stub, near, iata="LHR")
        net.transit(origin, near, iata="FRA")
        assert net.topo.version > version

        after = assert_matches_reference(
            net.topo, engine.compute(announcement), stub, start)
        assert after.node_path == (stub, near, origin)
        assert after.hops[0].city.iata == "LHR"
        assert after.rtt_ms < before.rtt_ms
