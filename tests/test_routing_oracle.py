"""The routing engine against an exact path-vector reference.

:mod:`tests.path_vector` derives the stable Gao-Rexford state by plain
iteration over the object topology.  Every test here asserts exact
equality with the engine's table: tier, hop count, the equal-best paths
in order, and the primary.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.experiments.config import SMALL
from repro.experiments.world import World
from repro.netaddr.ipv4 import IPv4Prefix
from repro.routing.engine import RoutingEngine
from repro.routing.route import Announcement, OriginSpec
from repro.topology.asys import Tier
from tests.path_vector import assert_matches_oracle
from tests.test_routing_properties import build, small_topologies

PREFIX = IPv4Prefix.parse("198.18.0.0/24")


class TestSmallWorld:
    def test_every_announcement_matches_oracle(self):
        # A fresh world: the shared session world is mutated by other
        # tests (extra announcements, failed sites).
        world = World(SMALL)
        announcements = world.registry.announcements()
        assert len(announcements) == 27
        for announcement in announcements:
            table = RoutingEngine(world.topology).compute(announcement)
            assert_matches_oracle(world.topology, table)


class TestDefaultTopology:
    @pytest.fixture(scope="class")
    def default_topology(self):
        from repro.experiments.config import DEFAULT
        from repro.topology.builder import InternetBuilder

        return InternetBuilder(DEFAULT.topology).build()

    def test_anycast_announcement_matches_oracle(self, default_topology):
        stubs = [n.node_id for n in default_topology.nodes()
                 if n.tier is Tier.STUB]
        announcement = Announcement(
            prefix=PREFIX,
            origins=(OriginSpec(site_node=stubs[0]),
                     OriginSpec(site_node=stubs[len(stubs) // 2]),
                     OriginSpec(site_node=stubs[-1])),
        )
        table = RoutingEngine(default_topology).compute(announcement)
        assert_matches_oracle(default_topology, table)


@settings(max_examples=200, deadline=None)
@given(small_topologies())
def test_engine_matches_path_vector_oracle(spec):
    n, edges, origins = spec
    topo = build(n, edges)
    announcement = Announcement(
        prefix=PREFIX,
        origins=tuple(OriginSpec(site_node=o) for o in origins),
    )
    assert_matches_oracle(topo, RoutingEngine(topo).compute(announcement))
