"""Tests for repro.obs.health: domain gauges on instrumented runs.

Uses the session-scoped SMALL world with ``include_claims=False``: on
a world that has not run the suite, the claims scorecard would run the
experiments it needs.  ``tests/test_once_per_run.py`` checks the
scorecard after a full suite.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs.health import (
    HEALTH_PREFIX,
    catchment_health,
    collect_health,
    dns_health,
    health_gauges,
    record_health,
    render_health,
    routing_health,
)
from repro.obs.manifest import from_recorder


@pytest.fixture(scope="module")
def gauges(small_world):
    return collect_health(small_world, include_claims=False)


class TestCollect:
    def test_all_gauges_carry_the_health_prefix(self, gauges):
        assert gauges
        assert all(name.startswith(HEALTH_PREFIX) for name in gauges)

    def test_routing_cache_gauges(self, small_world):
        health = routing_health(small_world)
        assert 0.0 <= health["health.routing.cache_hit_rate"] <= 1.0
        assert (health["health.routing.cache_lookups"]
                >= health["health.routing.tables_computed"])
        # A built world computed at least one table per deployment.
        assert health["health.routing.tables_computed"] >= 1

    def test_catchments_have_live_sites_per_region(self, small_world):
        health = catchment_health(small_world)
        regional = {k: v for k, v in health.items() if ".sites" in k}
        assert len(regional) >= 10  # im6 (6) + eg3 (3) + eg4 (4) + ns
        assert all(sites >= 1.0 for sites in regional.values()), (
            "a region with zero serving sites means a collapsed catchment"
        )

    def test_dns_mapping_fractions_sum_to_one(self, small_world):
        health = dns_health(small_world)
        assert health["health.dns.groups_classified"] >= 1
        fractions = [
            health["health.dns.mapping.efficient"],
            health["health.dns.mapping.suboptimal"],
            health["health.dns.mapping.wrong_region"],
        ]
        assert all(0.0 <= f <= 1.0 for f in fractions)
        assert sum(fractions) == pytest.approx(1.0)

    def test_collect_is_sorted_and_skips_claims_when_asked(self, gauges):
        assert list(gauges) == sorted(gauges)
        assert not any(name.startswith("health.claims.") for name in gauges)


class TestRecord:
    def test_record_health_sets_gauges_under_span(self, small_world):
        obs.uninstall()
        with obs.recording("health-run") as rec:
            recorded = record_health(small_world, include_claims=False)
        span = rec.root.find("obs.health")
        assert span is not None
        assert span.gauges == recorded
        assert recorded["health.routing.cache_hit_rate"] >= 0.0

    def test_health_gauges_reads_back_from_manifest(self, small_world):
        obs.uninstall()
        with obs.recording("health-run") as rec:
            with obs.span("unrelated"):
                obs.gauge.set("experiment.custom", 1.0)
            recorded = record_health(small_world, include_claims=False)
        manifest = from_recorder(rec)
        read_back = health_gauges(manifest)
        assert read_back == recorded
        assert "experiment.custom" not in read_back


class TestRender:
    def test_render_empty_hints_at_tracing(self):
        assert "repro run --trace" in render_health({})

    def test_render_leads_with_claims_and_cache_rate(self):
        text = render_health({
            "health.claims.failed": 0.0,
            "health.claims.passed": 18.0,
            "health.claims.total": 18.0,
            "health.routing.cache_hit_rate": 0.925,
        })
        lines = text.splitlines()
        assert lines[0] == "claims    18/18 hold  [ok]"
        assert lines[1] == "routing   cache hit rate 92.5%"
        assert "  health.claims.passed" in text

    def test_render_flags_failed_claims(self):
        text = render_health({
            "health.claims.passed": 17.0,
            "health.claims.total": 18.0,
        })
        assert "[FAIL]" in text

    def test_render_real_gauges(self, gauges):
        text = render_health(gauges)
        assert "cache hit rate" in text
        assert "health.dns.mapping.efficient" in text
