"""Tests for the Tangled testbed model and the ReOpt partitioner."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.geo.areas import Area
from repro.geo.atlas import load_default_atlas
from repro.geo.coords import GeoPoint
from repro.tangled.reopt import ReOpt, spherical_kmeans
from repro.tangled.testbed import TANGLED_SITES

ATLAS = load_default_atlas()


class TestTestbedModel:
    def test_twelve_sites_with_paper_area_distribution(self, small_world):
        counts = small_world.tangled.global_deployment.sites_by_area()
        assert counts == {Area.APAC: 2, Area.EMEA: 5, Area.NA: 3, Area.LATAM: 2}
        assert len(TANGLED_SITES) == 12

    def test_africa_presence_for_reopt(self, small_world):
        """Two African sites let K-Means discover the separate AF region
        the paper reports (§6.1)."""
        african = [
            n for n in small_world.tangled.site_names
            if small_world.tangled.site(n).city.continent.value == "AF"
        ]
        assert len(african) == 2

    def test_unicast_prefixes_one_per_site(self, small_world):
        tangled = small_world.tangled
        assert set(tangled.unicast) == set(tangled.site_names)
        addrs = {tangled.unicast_address(n) for n in tangled.site_names}
        assert len(addrs) == 12

    def test_unicast_announcement_single_origin(self, small_world):
        anns = small_world.tangled.unicast_announcements()
        assert len(anns) == 12
        assert all(len(a.origins) == 1 for a in anns)


class TestSphericalKMeans:
    def _site_points(self):
        return {iata: ATLAS.get(iata).location for iata in TANGLED_SITES}

    def test_k_greater_than_points_gives_singletons(self):
        points = {"A": GeoPoint(0, 0), "B": GeoPoint(10, 10)}
        assignment = spherical_kmeans(points, 5)
        assert len(set(assignment.values())) == 2

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            spherical_kmeans({"A": GeoPoint(0, 0)}, 0)

    def test_deterministic(self):
        points = self._site_points()
        assert spherical_kmeans(points, 5) == spherical_kmeans(points, 5)

    def test_exact_cluster_count(self):
        for k in (3, 4, 5, 6):
            assignment = spherical_kmeans(self._site_points(), k)
            assert len(set(assignment.values())) == k

    def test_geographic_coherence_at_k5(self):
        assignment = spherical_kmeans(self._site_points(), 5)
        # European sites must share a cluster; so must the African pair
        # and the South American pair.
        assert assignment["AMS"] == assignment["FRA"] == assignment["LHR"]
        assert assignment["JNB"] == assignment["CPT"]
        assert assignment["GRU"] == assignment["POA"]
        assert assignment["JNB"] != assignment["AMS"]

    @settings(max_examples=25, deadline=None)
    @given(
        st.dictionaries(
            st.text(alphabet="ABCDEFGHIJ", min_size=1, max_size=3),
            st.builds(
                GeoPoint,
                lat=st.floats(min_value=-80, max_value=80, allow_nan=False),
                lon=st.floats(min_value=-179, max_value=179, allow_nan=False),
            ),
            min_size=1,
            max_size=12,
        ),
        st.integers(min_value=1, max_value=6),
    )
    def test_property_total_assignment(self, points, k):
        assignment = spherical_kmeans(points, k)
        assert set(assignment) == set(points)
        assert all(0 <= c < max(k, len(points)) for c in assignment.values())


class TestReOpt:
    @pytest.fixture(scope="class")
    def reopt(self, small_world):
        return ReOpt(small_world.tangled, small_world.engine,
                     small_world.usable_probes)

    def test_requires_probes(self, small_world):
        with pytest.raises(ValueError):
            ReOpt(small_world.tangled, small_world.engine, [])

    def test_unicast_latencies_cached_and_complete(self, reopt, small_world):
        lat = reopt.unicast_latencies()
        assert lat is reopt.unicast_latencies()
        covered = sum(1 for v in lat.values() if len(v) == 12)
        assert covered / len(lat) > 0.95

    def test_plan_assigns_probe_to_its_best_sites_region(self, reopt):
        plan = reopt.plan(5)
        unicast = reopt.unicast_latencies()
        for probe_id, region in list(plan.region_of_probe.items())[:200]:
            rtts = unicast[probe_id]
            best_site = min(rtts, key=lambda s: (rtts[s], s))
            assert plan.region_of_site[best_site] == region

    def test_country_mapping_is_majority_vote(self, reopt, small_world):
        plan = reopt.plan(5)
        from collections import Counter

        by_country: dict[str, Counter] = {}
        probes_by_id = {p.probe_id: p for p in small_world.usable_probes}
        for pid, region in plan.region_of_probe.items():
            country = probes_by_id[pid].country
            by_country.setdefault(country, Counter())[region] += 1
        for country, votes in by_country.items():
            top_count = votes.most_common(1)[0][1]
            # The chosen region must be one of the (possibly tied) majority.
            assert votes[plan.region_of_country[country]] == top_count

    def test_region_map_contains_all_probe_countries(self, reopt, small_world):
        plan = reopt.plan(4)
        countries = {p.country for p in small_world.usable_probes}
        assert countries <= set(plan.region_of_country)

    def test_deploy_cached_on_plan(self, reopt):
        plan = reopt.plan(3)
        assert reopt.deploy(plan) is reopt.deploy(plan)
        assert plan.deployment is not None

    def test_measure_fills_metric(self, reopt):
        plan = reopt.plan(3)
        measured = reopt.measure(plan)
        assert measured == plan.mean_measured_latency_ms
        assert 0 < measured < 1000

    def test_measure_equals_the_per_probe_ping_loop(self, reopt, small_world):
        """One ping batch per region address, summed in probe order: the
        mean is bit-identical to pinging one probe at a time."""
        plan = reopt.plan(5)
        measured = reopt.measure(plan)
        total = 0.0
        count = 0
        for probe in small_world.usable_probes:
            region = plan.region_of_country.get(probe.country,
                                                plan.default_region)
            addr = plan.deployment.address_of_region(region)
            rtt_ms = small_world.engine.ping(probe, addr).rtt_ms
            if rtt_ms is not None:
                total += rtt_ms
                count += 1
        assert measured == total / count

    def test_sweep_selects_minimum(self, reopt):
        best, plans = reopt.sweep((3, 6))
        assert [p.k for p in plans] == [3, 4, 5, 6]
        assert best.mean_measured_latency_ms == min(
            p.mean_measured_latency_ms for p in plans
        )

    def test_sweep_prefers_finer_partitions_than_k3(self, reopt):
        """Coarse partitions leave BGP room to pick distant in-region
        sites; the measured optimum is never K=3 on the default world."""
        best, _ = reopt.sweep((3, 6))
        assert best.k > 3
