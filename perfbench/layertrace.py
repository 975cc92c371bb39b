"""Outside-in per-layer tracing of the ``repro`` package.

The tracer replaces public entry points of each layer with thin wrappers
where the program looks them up: class methods on their class, and
module-bound functions on the module that imports them.  No file under
``src/`` changes.  Each wrapped call is one span, kept in memory in
packed columns (name, parent, start, end, bookkeeping overhead); at the
end the spans are written out once and reduced to per-layer numbers.

A span's self time is its duration minus the time its child spans cover,
including the child wrappers' own bookkeeping.  That bookkeeping is
measured inside every wrapper and reported as ``trace.overhead_s``; time
in no span at all is ``unattributed_s``.  The layer self times,
``unattributed_s`` and ``trace.overhead_s`` add up to the traced wall
time by construction.  What can go wrong is the span data itself: a
wrapped call made outside the traced interval, or spans that do not nest
(a call still open when its parent ends), which would give a negative
self or unattributed time.  :meth:`Tracer.layer_metrics` checks for
both and raises.
"""

from __future__ import annotations

from array import array
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

#: Layers whose self times partition the traced wall time, with the
#: metric each one is reported under.
LAYER_METRICS = {
    "topology": "topology.build_s",
    "cdn": "cdn.build_s",
    "world": "world.self_s",
    "routing": "routing.compute_s",
    "forwarding": "forwarding.walk_s",
    "measurement.ping": "measurement.ping_self_s",
    "measurement.traceroute": "measurement.trace_self_s",
    "dnssim": "dnssim.resolve_s",
    "geoloc": "geoloc.lookup_s",
    "sitemap": "sitemap.map_s",
    "tangled": "tangled.reopt_self_s",
    "experiments": "experiments.self_s",
    "obs": "obs.self_s",
}

class Tracer:
    """Wraps entry points, records spans, reduces them to layer numbers."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._layers: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._over = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        #: Extra per-span facts recorded by hooks: span index -> value.
        self._items: dict[int, int] = {}
        self._hops = 0
        self._routes = 0
        self._nodes = 0
        self._links = 0
        self._walk_keys: set[tuple[object, ...]] = set()
        #: Keeps every walked table alive so ``id(table)`` stays unique.
        self._tables: dict[int, object] = {}
        self.wall_start = 0.0
        self.wall_end = 0.0

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _name_id(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self._names)
            self._names.append(name)
            self._layers.append(layer)
        return nid

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        layer: str,
        after: Callable[..., None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``after(index, result, args, kwargs)`` runs once the call has
        returned; its cost is bookkeeping and counts as trace overhead.
        """
        original = getattr(owner, attr)
        nid = self._name_id(name, layer)
        name_col, parent_col = self._name, self._parent
        start_col, end_col, over_col = self._start, self._end, self._over
        stack = self._stack
        clock = perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            t0 = clock()
            index = len(name_col)
            name_col.append(nid)
            parent_col.append(stack[-1])
            start_col.append(0.0)
            end_col.append(0.0)
            over_col.append(0.0)
            stack.append(index)
            t1 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                t2 = clock()
                stack.pop()
                start_col[index] = t1
                end_col[index] = t2
            if after is not None:
                after(index, result, args, kwargs)
            over_col[index] = (t1 - t0) + (clock() - t2)
            return result

        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer's public entry points."""
        import repro.experiments.world as world_mod
        import repro.measurement.engine as measurement_mod
        import repro.obs.health as health_mod
        import repro.obs.manifest as manifest_mod
        from repro.dnssim.resolver import ResolverPool
        from repro.experiments.base import experiment_name
        from repro.experiments.runner import ALL_EXPERIMENTS
        from repro.geoloc.database import GeoDatabase
        from repro.geoloc.oracle import GeoOracle
        from repro.geoloc.rdns import ReverseDNS
        from repro.routing.engine import RoutingEngine
        from repro.sitemap.pipeline import SiteMapper
        from repro.tangled.reopt import ReOpt
        from repro.topology.builder import InternetBuilder

        self.wrap(InternetBuilder, "build", "topology.build", "topology",
                  self._after_topology)
        for builder in ("build_edgio", "build_imperva", "build_tangled"):
            self.wrap(world_mod, builder, f"cdn.{builder}", "cdn")
        self.wrap(world_mod.World, "__init__", "world.build", "world")
        for method in ("ping_all", "trace_all", "resolve_all"):
            self.wrap(world_mod.World, method, f"world.{method}", "world")
        self.wrap(RoutingEngine, "compute", "routing.compute", "routing")
        self.wrap(RoutingEngine, "compute_uncached",
                  "routing.compute_uncached", "routing", self._after_compute)
        self.wrap(RoutingEngine, "compute_many", "routing.compute_many",
                  "routing", self._after_compute_many)
        self.wrap(measurement_mod, "trace_forwarding_path", "forwarding.walk",
                  "forwarding", self._after_walk)
        self.wrap(measurement_mod.MeasurementEngine, "ping",
                  "measurement.ping", "measurement.ping")
        self.wrap(measurement_mod.MeasurementEngine, "traceroute",
                  "measurement.traceroute", "measurement.traceroute")
        self.wrap(ResolverPool, "resolve", "dnssim.resolve", "dnssim")
        for cls, methods in (
            (GeoOracle, ("attribute", "attribute_subnet")),
            (GeoDatabase, ("lookup", "lookup_subnet")),
            (ReverseDNS, ("name_of",)),
        ):
            for method in methods:
                self.wrap(cls, method, f"geoloc.{cls.__name__}.{method}",
                          "geoloc")
        self.wrap(SiteMapper, "map_traces", "sitemap.map_traces", "sitemap")
        self.wrap(ReOpt, "plan", "tangled.plan", "tangled")
        self.wrap(ReOpt, "measure", "tangled.measure", "tangled")
        for module, _description in ALL_EXPERIMENTS:
            self.wrap(module, "run", f"experiment.{experiment_name(module)}",
                      "experiments")
        self.wrap(health_mod, "record_health", "obs.health", "obs")
        self.wrap(manifest_mod, "from_recorder", "obs.from_recorder", "obs")
        self.wrap(manifest_mod, "write_manifest", "obs.write_manifest", "obs")

    def uninstall(self) -> None:
        """Restore every wrapped attribute, last wrapped first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def start(self) -> None:
        self.wall_start = perf_counter()

    def stop(self) -> None:
        self.wall_end = perf_counter()

    # ------------------------------------------------------------------
    # Hooks: exact counts taken at layer boundaries
    # ------------------------------------------------------------------
    def _after_topology(
        self, index: int, topology: Any, args: tuple, kwargs: dict
    ) -> None:
        self._nodes += topology.num_nodes
        self._links += topology.num_links

    def _after_compute(
        self, index: int, table: Any, args: tuple, kwargs: dict
    ) -> None:
        self._routes += table.num_routes()

    def _after_compute_many(
        self, index: int, tables: Any, args: tuple, kwargs: dict
    ) -> None:
        self._items[index] = len(tables)

    def _after_walk(
        self, index: int, path: Any, args: tuple, kwargs: dict
    ) -> None:
        # trace_forwarding_path(topology, table, start_node, start_point,
        #                      last_mile_ms=...)
        table = args[1]
        self._tables[id(table)] = table
        last_mile = args[4] if len(args) > 4 else kwargs.get("last_mile_ms")
        self._walk_keys.add((id(table), args[2], args[3], last_mile))
        if path is not None:
            self._hops += len(path.hops)

    # ------------------------------------------------------------------
    # Reduction
    # ------------------------------------------------------------------
    def layer_metrics(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per-layer metrics and the exact counts, from the span columns."""
        n = len(self._name)
        names = np.frombuffer(self._name, dtype=np.int32)
        parents = np.frombuffer(self._parent, dtype=np.int32)
        dur = np.frombuffer(self._end) - np.frombuffer(self._start)
        over = np.frombuffer(self._over)
        wall = self.wall_end - self.wall_start

        # Slot 0 collects top-level spans; slot i+1 collects span i's children.
        covered = np.bincount(parents + 1, weights=dur + over, minlength=n + 1)
        child_count = np.bincount(parents + 1, minlength=n + 1)[1:]
        self_time = dur - covered[1:]
        unattributed = wall - covered[0]
        overhead = float(over.sum())

        layers = sorted(set(self._layers) | set(LAYER_METRICS))
        layer_index = {layer: i for i, layer in enumerate(layers)}
        span_layer = np.array(
            [layer_index[layer] for layer in self._layers], dtype=np.int64
        )[names]
        per_layer = np.bincount(span_layer, weights=self_time,
                                minlength=len(layers))
        self.check(dur, self_time, unattributed)

        def ids(*span_names: str) -> np.ndarray:
            wanted = [self._ids[s] for s in span_names if s in self._ids]
            return np.isin(names, wanted)

        def inclusive(span_name: str) -> float:
            return float(dur[ids(span_name)].sum())

        def percentile_us(mask: np.ndarray, q: float) -> float:
            sample = dur[mask]
            return float(np.percentile(sample, q) * 1e6) if sample.size else 0.0

        walks = ids("forwarding.walk")
        pings = ids("measurement.ping")
        uncached = ids("routing.compute_uncached")
        lookups_single = ids("routing.compute")
        lookups_many = ids("routing.compute_many")
        lookup_spans = lookups_single | lookups_many
        # A lookup missed when it ran a real compute as its direct child.
        parent_is_lookup = np.zeros(n, dtype=bool)
        inner = uncached & (parents >= 0)
        parent_is_lookup[inner] = lookup_spans[parents[inner]]
        misses = int(parent_is_lookup.sum())
        lookups = int(lookups_single.sum()) + sum(
            self._items.get(int(i), 0) for i in np.flatnonzero(lookups_many)
        )
        measure = ids("world.ping_all", "world.trace_all", "world.resolve_all")
        measure_calls = int(measure.sum())
        measure_hits = int((measure & (child_count == 0)).sum())
        num_walks = int(walks.sum())

        counts = {
            "topology.nodes": self._nodes,
            "topology.links": self._links,
            "routing.computes": int(uncached.sum()),
            "routing.lookups": lookups,
            "routing.lookup_hits": lookups - misses,
            "routing.routes": self._routes,
            "forwarding.walks": num_walks,
            "forwarding.hops": self._hops,
            "forwarding.unique_walks": len(self._walk_keys),
            "measurement.pings": int(pings.sum()),
            "measurement.traceroutes": int(ids("measurement.traceroute").sum()),
            "dnssim.resolves": int(ids("dnssim.resolve").sum()),
            "geoloc.lookups": int(ids(
                *(s for s in self._ids if s.startswith("geoloc."))).sum()),
            "sitemap.map_calls": int(ids("sitemap.map_traces").sum()),
            "world.measure_calls": measure_calls,
            "world.measure_hits": measure_hits,
        }
        metrics: dict[str, float] = {
            metric: float(per_layer[layer_index[layer]])
            for layer, metric in LAYER_METRICS.items()
        }
        metrics.update(counts)
        metrics.update({
            "world.measure_hit_ratio": (
                measure_hits / measure_calls if measure_calls else 0.0),
            "routing.lookup_hit_ratio": (
                (lookups - misses) / lookups if lookups else 0.0),
            "forwarding.unique_walk_ratio": (
                len(self._walk_keys) / num_walks if num_walks else 0.0),
            "forwarding.walk_p50_us": percentile_us(walks, 50),
            "forwarding.walk_p999_us": percentile_us(walks, 99.9),
            "measurement.ping_p50_us": percentile_us(pings, 50),
            "measurement.ping_p999_us": percentile_us(pings, 99.9),
            "obs.health_s": inclusive("obs.health"),
            "unattributed_s": unattributed,
            "trace.overhead_s": overhead,
            "trace.wall_s": wall,
            "trace.spans": n,
        })
        for name in self._names:
            if name.startswith("experiment."):
                metrics[f"{name}_s"] = inclusive(name)
        return metrics, counts

    def check(self, dur: np.ndarray, self_time: np.ndarray,
              unattributed: float) -> None:
        """Raise unless every span lies in the traced interval and nests."""
        if not len(dur):
            return
        start = np.frombuffer(self._start)
        end = np.frombuffer(self._end)
        outside = (start < self.wall_start) | (end > self.wall_end)
        if outside.any():
            first = int(np.flatnonzero(outside)[0])
            raise RuntimeError(
                f"{int(outside.sum())} spans lie outside the traced interval, "
                f"first {self._names[self._name[first]]!r}")
        eps = 1e-6
        if unattributed < -eps:
            raise RuntimeError(f"negative unattributed time {unattributed!r}")
        worst = int(np.argmin(self_time))
        if self_time[worst] < -eps:
            raise RuntimeError(
                f"span {self._names[self._name[worst]]!r} has negative self "
                f"time {float(self_time[worst])!r}: its children do not nest")

    def write(self, path: Path) -> None:
        """Write every span once, as packed columns, to ``path`` (.npz)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self._names),
            layers=np.array(self._layers),
            name=np.frombuffer(self._name, dtype=np.int32),
            parent=np.frombuffer(self._parent, dtype=np.int32),
            start=np.frombuffer(self._start) - self.wall_start,
            end=np.frombuffer(self._end) - self.wall_start,
            overhead=np.frombuffer(self._over),
        )
