"""Each unit of work is done once per run.

Two mechanisms: the experiment results a run computed feed the claim
scorecard (``World.results``), and routing tables and forwarding walks
are shared by origin set rather than by prefix.  Outputs stay pinned by
``TestSmallWorldDigest``, ``TestOutputsPinned`` and the independent
forwarding reference; these tests check the sharing itself.
"""

from __future__ import annotations

import io

import pytest

from repro import obs
from repro.experiments import runner
from repro.experiments.claims import ALL_CLAIMS, render_scorecard, verify_claims
from repro.experiments.config import SMALL
from repro.experiments.world import World
from repro.explain import provenance
from repro.measurement.engine import MeasurementEngine
from repro.netaddr.ipv4 import IPv4Address, IPv4Prefix
from repro.obs.health import record_health
from repro.par.cache import encode_table
from repro.routing.engine import RoutingEngine
from repro.routing.forwarding import trace_forwarding_path
from repro.routing.route import Announcement
from repro.topology.asys import Interconnect, Link, LinkKind


def experiment_spans(span: obs.SpanRecord) -> list[str]:
    return [s.name for _, s in span.walk() if s.name.startswith("experiment.")]


def walks_during(action) -> float:
    """Forwarding walks ``action()`` made."""
    obs.uninstall()
    with obs.recording("walks") as recorder:
        action()
    return recorder.root.subtree_counters().get("forwarding.walks", 0.0)


@pytest.fixture(scope="module")
def traced_suite():
    """A fresh SMALL world after ``repro run --small --trace``'s work:
    the full suite under a recorder, then the health gauges."""
    world = World(SMALL)
    obs.uninstall()
    with obs.recording("traced-suite") as recorder:
        runner.run_all(world, stream=io.StringIO())
        gauges = record_health(world)
    return world, recorder, gauges


@pytest.fixture(scope="module")
def fresh_scorecard() -> str:
    """``repro verify --small`` on a world nothing has run on."""
    return render_scorecard(verify_claims(World(SMALL)))


class TestScorecardReusesTheRun:
    def test_suite_records_every_result(self, traced_suite):
        world, _, _ = traced_suite
        assert list(world.results) == [
            name for name in runner.EXPERIMENTS_BY_NAME
        ]

    def test_health_runs_no_experiment(self, traced_suite):
        _, recorder, gauges = traced_suite
        health = recorder.root.find("obs.health")
        assert health is not None
        assert experiment_spans(health) == []
        assert gauges["health.claims.passed"] == gauges["health.claims.total"]

    def test_scorecard_matches_a_fresh_verify(self, traced_suite,
                                             fresh_scorecard):
        world, _, _ = traced_suite
        assert render_scorecard(verify_claims(world)) == fresh_scorecard

    def test_parallel_scorecard_matches_serial(self, fresh_scorecard):
        world = World(SMALL)
        try:
            runner.run_all(world, stream=io.StringIO(), parallel=True,
                           workers=2)
        finally:
            world.close()
        assert len(world.results) == len(runner.ALL_EXPERIMENTS)
        obs.uninstall()
        with obs.recording("scorecard") as recorder:
            scorecard = render_scorecard(verify_claims(world))
        assert experiment_spans(recorder.root) == []
        assert scorecard == fresh_scorecard

    def test_missing_results_run_once(self, small_world):
        claims = tuple(c for c in ALL_CLAIMS if c.claim_id == "fig1")
        small_world.results.pop("fig1", None)
        obs.uninstall()
        with obs.recording("claims") as recorder:
            verify_claims(small_world, claims)
            verify_claims(small_world, claims)
        assert experiment_spans(recorder.root) == ["experiment.fig1"]
        assert "fig1" in small_world.results


def fresh_prefix_like(world: World, addr: IPv4Address):
    """A newly allocated prefix announced from ``addr``'s origin set."""
    known = world.registry.lookup(addr)
    network = world.tangled.network
    announcement = Announcement(
        prefix=network.allocate_service_prefix(), origins=known.origins)
    world.registry.register(announcement)
    return known, announcement


class TestTablesSharedByOriginSet:
    def test_new_prefix_shares_the_known_columns(self, small_world):
        engine = small_world.engine.routing
        known, fresh = fresh_prefix_like(
            small_world, small_world.tangled.global_deployment.address)
        base = engine.compute(known)
        computes = engine.cache_stats()[1]
        table = engine.compute(fresh)
        assert engine.cache_stats()[1] == computes
        assert table.announcement == fresh
        assert table.path_nodes is base.path_nodes
        assert encode_table(table) == encode_table(engine.compute_uncached(fresh))
        assert {route.prefix for choice in table.best.values()
                for route in choice.routes} == {fresh.prefix}
        assert [t.announcement for t in engine.compute_many([known, fresh])] \
            == [known, fresh]
        assert engine.cache_stats()[1] == computes

    def test_compute_many_computes_each_origin_set_once(self, tiny_topology):
        stubs = sorted(n.node_id for n in tiny_topology.nodes())[-3:]
        anns = [
            Announcement.from_sites(IPv4Prefix.parse(f"198.18.{i}.0/24"), stubs)
            for i in range(3)
        ]
        engine = RoutingEngine(tiny_topology)
        tables = engine.compute_many(anns)
        assert engine.cache_stats() == (2, 1)
        assert [t.announcement for t in tables] == anns
        for table, ann in zip(tables, anns):
            assert encode_table(table) == encode_table(
                engine.compute_uncached(ann))

    def test_capture_still_records_the_new_prefix(self, small_world):
        engine = small_world.engine.routing
        known, fresh = fresh_prefix_like(
            small_world, small_world.imperva.ns.address)
        engine.compute(known)
        with provenance.capturing() as recorder:
            table = engine.compute(fresh)
        assert table.announcement == fresh
        assert encode_table(table) == encode_table(engine.compute(known).rebind(fresh))
        origin = fresh.origins[0].site_node
        trail = recorder.selection_for(str(fresh.prefix), origin)
        assert trail is not None and trail.stage == "origin"
        assert all(
            recorder.selection_for(str(fresh.prefix), node) is not None
            for node in table.best
        )


class TestWalksSharedByOriginSet:
    def test_new_prefix_walks_nothing(self, small_world):
        addr = small_world.tangled.global_deployment.address
        before = small_world.ping_all(addr)
        _, fresh = fresh_prefix_like(small_world, addr)
        new_addr = fresh.prefix.address(1)
        assert walks_during(lambda: small_world.ping_all(new_addr)) == 0
        after = small_world.ping_all(new_addr)
        assert [r.catchment for r in after.values()] == [
            r.catchment for r in before.values()]
        unshared = MeasurementEngine(
            small_world.topology, small_world.registry,
            seed=small_world.config.measurement_seed)
        assert list(after.values()) == unshared.ping_many(
            small_world.usable_probes, new_addr)

    def test_memo_dropped_when_the_topology_moves(self):
        world = World(SMALL)  # fresh: the topology is mutated below
        addr = world.tangled.global_deployment.address
        world.ping_all(addr)
        probe = world.usable_probes[0]
        site = next(o.site_node for o in world.registry.lookup(addr).origins)
        world.topology.add_link(Link(
            a=site, b=probe.as_node, kind=LinkKind.TRANSIT,
            interconnects=(Interconnect(
                city=world.topology.node(site).pops[0].city,
                addr_a=IPv4Address.parse("192.0.2.1"),
                addr_b=IPv4Address.parse("192.0.2.2"),
            ),),
        ))
        assert walks_during(lambda: world.ping_all(addr)) == len(
            world.usable_probes)
        pings = world.ping_all(addr)
        table = world.engine.table_for(addr)
        expected = trace_forwarding_path(
            world.topology, table, probe.as_node, probe.location,
            last_mile_ms=probe.last_mile_ms)
        assert pings[probe.probe_id].catchment == expected.origin == site
