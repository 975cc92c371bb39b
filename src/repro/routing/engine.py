"""Three-stage BGP route computation with equal-best route sets.

The engine exploits the valley-free structure of Gao-Rexford policies to
compute every node's selected route(s) in three deterministic passes
instead of simulating message-level convergence:

1. **Customer routes propagate up.**  A breadth-first sweep from the origin
   sites along customer→provider edges assigns each node its best
   customer-learned routes (shortest AS path).
2. **Peer routes cross one lateral hop.**  Every node holding an origin or
   customer route exports its primary route to its peers.  Receivers rank
   public/private peers above route-server peers *before* comparing path
   lengths — exactly the preference that sends the Belarusian probe of
   Fig. 7 to Singapore.
3. **Provider routes propagate down.**  A Dijkstra-style sweep along
   provider→customer edges delivers routes to everyone else; an AS always
   exports its overall best route to its customers.

Preference order: highest tier (customer > peer > route-server peer >
provider), then shortest AS path.  All routes tied on (tier, length) are
*kept* as an equal-best set: a continent-spanning AS does not choose one
global exit — each ingress router picks the nearest equally-good exit
(IGP hot-potato).  :mod:`repro.routing.forwarding` resolves among the
equal-best sets geographically, per client, which is what makes most
clients of a global anycast system land on a same-continent site while
the policy-driven pathological tail (Fig. 1) does not.

The *primary* route of each set (deterministic hot-potato + id
tie-breaks) is what the node advertises to its neighbors, matching BGP's
single-best-announcement behaviour.

The sweep runs over the int arrays of :class:`repro.topology.flat
.FlatAdjacency` and plain path tuples, and packs its result into a
:class:`repro.routing.flat.FlatRoutingTable`.  With a provenance
recorder installed (:mod:`repro.explain`), the same sweep also records a
:class:`SelectionTrail` per routed node: every offer it considered and
why each loser lost.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro import obs
from repro.explain import provenance
from repro.explain.provenance import RouteCandidate, SelectionTrail
from repro.netaddr.ipv4 import IPv4Prefix
from repro.routing.route import Announcement, OriginSpec, PrefTier, Route
from repro.topology.graph import Topology

if TYPE_CHECKING:
    from repro.par.cache import RoutingTableCache
    from repro.routing.flat import FlatRoutingTable

#: Tie-break description recorded on selection trails: how the engine
#: orders routes *within* one equal-best set (the sort key of
#: ``settle`` in :meth:`RoutingEngine._compute`).
HOT_POTATO_TIE_BREAK = "hot-potato: nearest exit-interconnect km, then neighbor id, then origin id"

#: Lowercase tier names, as selection trails spell them.
_TIER_NAMES = {int(tier): tier.name.lower() for tier in PrefTier}


def _rejected(
    path: tuple[int, ...], tier: str, via: int, reason: str
) -> RouteCandidate:
    """A selection-trail entry for an offer that lost."""
    return RouteCandidate(path=path, tier=tier, via=via, accepted=False,
                          reason=reason)

@dataclass(frozen=True)
class RouteChoice:
    """The equal-best routes of one node for one prefix.

    All member routes share the same preference tier and AS-path length;
    ``routes[0]`` is the primary (advertised) route.
    """

    routes: tuple[Route, ...]

    def __post_init__(self) -> None:
        if not self.routes:
            raise ValueError("a route choice cannot be empty")
        tiers = {r.tier for r in self.routes}
        hops = {r.hops for r in self.routes}
        if len(tiers) != 1 or len(hops) != 1:
            raise ValueError("equal-best routes must share tier and length")

    @property
    def primary(self) -> Route:
        return self.routes[0]

    @property
    def tier(self) -> PrefTier:
        return self.routes[0].tier

    @property
    def hops(self) -> int:
        return self.routes[0].hops

    def next_hops(self) -> tuple[int, ...]:
        return tuple(r.next_hop for r in self.routes)


@dataclass
class RoutingTable:
    """Best route set per node for one announcement."""

    announcement: Announcement
    best: dict[int, RouteChoice]
    topology_version: int
    #: Node count of the topology the table was computed over — the
    #: denominator of :meth:`reachable_fraction`.  Populated by the
    #: engine and by the persistent-cache loader.
    _num_nodes: int = field(default=0, repr=False)

    @property
    def prefix(self) -> IPv4Prefix:
        return self.announcement.prefix

    def choice_at(self, node_id: int) -> RouteChoice | None:
        """The equal-best route set at a node, or None if unreachable."""
        return self.best.get(node_id)

    def route_at(self, node_id: int) -> Route | None:
        """The primary (advertised) route at a node, or None."""
        choice = self.best.get(node_id)
        return choice.primary if choice is not None else None

    def catchment_of(self, node_id: int) -> int | None:
        """Origin site of the node's primary route.

        Note that the *realised* catchment of a client inside the node may
        differ when hot-potato forwarding picks an alternate equal-best
        exit; use the measurement layer for client-level catchments.
        """
        route = self.route_at(node_id)
        return route.origin if route is not None else None

    def num_routes(self) -> int:
        """Total stored routes over every node's equal-best set.

        The denominator of the memory census's bytes-per-route headline
        (:func:`repro.obs.memory.census_routing_table`).
        """
        return sum(len(choice.routes) for choice in self.best.values())

    def reachable_fraction(self) -> float:
        """Fraction of nodes holding a route (global reachability, §4.5)."""
        if self._num_nodes <= 0:
            return 0.0
        return len(self.best) / self._num_nodes


class RoutingEngine:
    """Computes and caches routing tables over one topology."""

    #: Upper bound on stored equal-best routes per node; forwarding only
    #: needs enough diversity to pick a nearby exit.
    MAX_EQUAL_BEST = 16

    #: Cap on candidates kept per selection trail; rejected offers past
    #: this are dropped rather than growing trails without bound.
    MAX_TRAIL_CANDIDATES = 64

    def __init__(self, topology: Topology):
        self._topology = topology
        #: One table per (origin set, topology version): a table never
        #: depends on the prefix, so every prefix of one origin set
        #: shares the columns of the first one computed (see
        #: :meth:`compute`).
        self._cache: dict[
            tuple[tuple[OriginSpec, ...], int], FlatRoutingTable
        ] = {}
        self._cache_hits = 0
        self._cache_misses = 0
        self._pcache_hits = 0
        #: Optional on-disk table store (:class:`repro.par.cache
        #: .RoutingTableCache`), attached by the world builder or CLI.
        #: None (the default) keeps the engine purely in-memory.
        self.persistent_cache: "RoutingTableCache | None" = None

    @property
    def topology(self) -> Topology:
        return self._topology

    def compute(self, announcement: Announcement) -> FlatRoutingTable:
        """Routing table for an announcement (cached per topology version).

        Lookup order: the in-memory cache, then the persistent on-disk
        cache when one is attached, then a real compute (whose result
        feeds both caches).  Only the real compute opens a
        ``routing.compute`` span — a warm run shows none.

        The in-memory cache is keyed by the origin set: a new prefix
        announced from a known origin set gets the known table's columns
        re-bound to its own announcement (:meth:`FlatRoutingTable
        .rebind`), except under an active provenance capture, where it
        is computed for real so its selection trails carry its prefix.
        """
        key = (announcement.origins, self._topology.version)
        table = self._bound(self._cache.get(key), announcement)
        if table is not None:
            return table
        table = self._load_persistent(announcement)
        if table is None:
            self._cache_misses += 1
            table = self.compute_uncached(announcement)
            self._store_persistent(announcement, table)
        self._cache[key] = table
        return table

    def _bound(
        self, table: FlatRoutingTable | None, announcement: Announcement
    ) -> FlatRoutingTable | None:
        """A cached table of ``announcement``'s origin set, served for
        ``announcement`` (a cache hit), or None when it must be computed."""
        if table is None:
            return None
        if table.announcement.prefix != announcement.prefix:
            if provenance.active() is not None:
                return None
            table = table.rebind(announcement)
        self._cache_hits += 1
        obs.counter.inc("routing.cache_hits")
        return table

    def compute_uncached(self, announcement: Announcement) -> FlatRoutingTable:
        """One real three-stage compute, bypassing every cache.

        This is the unit of work :func:`repro.par.routing.compute_fanout`
        runs in worker processes; the caches stay a parent-side concern.
        """
        with obs.span("routing.compute",
                      prefix=str(announcement.prefix),
                      origins=len(announcement.origins)):
            return self._compute(announcement)

    def compute_many(
        self,
        announcements: Iterable[Announcement],
        workers: int | None = None,
    ) -> list[FlatRoutingTable]:
        """Tables for many announcements, optionally computed in parallel.

        Cache hits (in-memory, then persistent) resolve inline, and each
        uncomputed origin set is computed once (its other prefixes are
        re-bound, as in :meth:`compute`).  Only those computes fan out
        to worker processes, and only when the resolved worker count
        exceeds 1 and no provenance capture is active (selection trails
        are recorded into a process-local recorder, so parallel workers
        would lose them).
        Results are returned in input order and are byte-identical to
        serial computes.
        """
        announcements = list(announcements)
        version = self._topology.version
        resolved: dict[int, FlatRoutingTable] = {}
        pending: list[int] = []
        for index, announcement in enumerate(announcements):
            key = (announcement.origins, version)
            table = self._bound(self._cache.get(key), announcement)
            if table is None:
                table = self._load_persistent(announcement)
                if table is not None:
                    self._cache[key] = table
            if table is None:
                pending.append(index)
            else:
                resolved[index] = table

        # One compute per origin set; later prefixes of a set share it.
        computing: set[tuple[tuple[OriginSpec, ...], int]] = set()
        shared: list[int] = []
        todo: list[int] = []
        capture = provenance.active() is not None
        for index in pending:
            key = (announcements[index].origins, version)
            if key in computing and not capture:
                shared.append(index)
            else:
                computing.add(key)
                todo.append(index)

        if todo:
            from repro.par.pool import capture_blocks_parallel, worker_count

            parallel = (
                worker_count(workers) > 1
                and len(todo) > 1
                and not capture_blocks_parallel()
            )
            if parallel:
                from repro.par.routing import compute_fanout

                tables = compute_fanout(
                    self._topology,
                    [announcements[i] for i in todo],
                    workers=workers,
                )
            else:
                tables = [
                    self.compute_uncached(announcements[i]) for i in todo
                ]
            for index, table in zip(todo, tables):
                announcement = announcements[index]
                self._cache_misses += 1
                self._cache[(announcement.origins, version)] = table
                self._store_persistent(announcement, table)
                resolved[index] = table
        for index in shared:
            announcement = announcements[index]
            table = self._bound(
                self._cache[(announcement.origins, version)], announcement)
            assert table is not None  # no capture: a known set always binds
            resolved[index] = table
        return [resolved[i] for i in range(len(announcements))]

    # ------------------------------------------------------------------
    def _load_persistent(
        self, announcement: Announcement
    ) -> FlatRoutingTable | None:
        cache = self.persistent_cache
        if cache is None:
            return None
        table = cache.load(self._topology, announcement)
        if table is not None:
            self._pcache_hits += 1
            obs.counter.inc("routing.pcache_hits")
        return table

    def _store_persistent(
        self, announcement: Announcement, table: FlatRoutingTable
    ) -> None:
        cache = self.persistent_cache
        if cache is not None:
            cache.store(self._topology, announcement, table)

    def cache_stats(self) -> tuple[int, int]:
        """Lifetime ``(hits, misses)`` of the routing-table caches.

        Persistent-cache hits count as hits: the caller asked for a
        table and no compute ran.
        """
        return self._cache_hits + self._pcache_hits, self._cache_misses

    def cache_hit_rate(self) -> float:
        """Fraction of ``compute`` calls served from a cache (0 when cold)."""
        hits, misses = self.cache_stats()
        total = hits + misses
        return hits / total if total else 0.0

    # ------------------------------------------------------------------
    def _record_trail(
        self,
        prov: provenance.ProvenanceRecorder,
        prefix_str: str,
        node: int,
        tier: int,
        stage: str,
        ranked: list[tuple[int, ...]],
        rejected: list[RouteCandidate] | None,
    ) -> None:
        """Record a node's selection: its hot-potato-ranked equal-best
        paths (those past :attr:`MAX_EQUAL_BEST` as overflow), then the
        offers it refused on the way."""
        name = _TIER_NAMES[tier]
        cap = self.MAX_EQUAL_BEST
        candidates = [
            RouteCandidate(path=path, tier=name, via=path[1], accepted=True)
            for path in ranked[:cap]
        ]
        candidates.extend(
            _rejected(path, name, path[1], "equal-best-overflow")
            for path in ranked[cap:]
        )
        if rejected:
            candidates.extend(rejected)
        del candidates[self.MAX_TRAIL_CANDIDATES:]
        prov.record_selection(SelectionTrail(
            prefix=prefix_str,
            node_id=node,
            stage=stage,
            winner_tier=name,
            winner_hops=len(ranked[0]) - 1,
            tie_break=HOT_POTATO_TIE_BREAK,
            candidates=tuple(candidates),
        ))

    def _record_reject(
        self,
        prov: provenance.ProvenanceRecorder,
        prefix_str: str,
        node: int,
        candidate: RouteCandidate,
    ) -> None:
        """Append a rejected offer to a node's already-recorded trail.

        Trails are frozen, so the stored one is replaced with a copy that
        carries the extra candidate.  This is how a later stage's refused
        offer (e.g. a provider route a customer-holding node turned down
        — the paper's prefer-customer decision) lands on the record of
        the decision that beat it.
        """
        trail = prov.selection_for(prefix_str, node)
        if trail is None or len(trail.candidates) >= self.MAX_TRAIL_CANDIDATES:
            return
        prov.record_selection(SelectionTrail(
            prefix=trail.prefix,
            node_id=trail.node_id,
            stage=trail.stage,
            winner_tier=trail.winner_tier,
            winner_hops=trail.winner_hops,
            tie_break=trail.tie_break,
            candidates=trail.candidates + (candidate,),
        ))

    # ------------------------------------------------------------------
    def _compute(self, announcement: Announcement) -> FlatRoutingTable:
        """The three-stage sweep over flat arrays and plain path tuples.

        A route is just its AS-path tuple (``path[0]`` the holder,
        ``path[1]`` the next hop, ``path[-1]`` the origin); a node's
        equal-best set is ``(tier, [paths])`` with ``paths[0]`` primary.
        Table rows come out in discovery order, which follows adjacency
        insertion order.

        Decision provenance is fetched once per compute.  Capture sites
        guard on ``prov is not None``, per offer only inside branches
        that already skip it, so an uncaptured compute builds no trail
        objects and pays one check per routed node.
        """
        from repro.routing.flat import FlatRoutingTable
        from repro.topology.flat import flat_adjacency

        topo = self._topology
        adj = flat_adjacency(topo)
        prefix_str = str(announcement.prefix)
        origin_spec: dict[int, OriginSpec] = {
            spec.site_node: spec for spec in announcement.origins
        }
        for site in origin_spec:
            if not topo.has_node(site):
                raise ValueError(f"announcement origin {site} not in topology")

        exit_km = adj.exit_km
        max_equal = self.MAX_EQUAL_BEST

        best: dict[int, tuple[int, list[tuple[int, ...]]]] = {
            site: (int(PrefTier.ORIGIN), [(site,)]) for site in origin_spec
        }

        prov = provenance.active()
        if prov is not None:
            for site in origin_spec:
                prov.record_selection(SelectionTrail(
                    prefix=prefix_str,
                    node_id=site,
                    stage="origin",
                    winner_tier="origin",
                    winner_hops=0,
                    tie_break="originates the prefix",
                    candidates=(RouteCandidate(
                        path=(site,), tier="origin", via=site, accepted=True,
                    ),),
                ))

        def may_export(exporter: int, neighbor: int) -> bool:
            spec = origin_spec.get(exporter)
            return spec is None or spec.announces_to(neighbor)

        splits = 0

        def settle(
            node: int,
            tier: int,
            paths: list[tuple[int, ...]],
            stage: str,
            rejects: dict[int, list[RouteCandidate]],
        ) -> list[tuple[int, ...]]:
            """Hot-potato sort + equal-best cap; records the trail."""
            nonlocal splits
            if len(paths) > 1:
                paths.sort(
                    key=lambda path: (exit_km(node, path[1]), path[1], path[-1])
                )
                splits += 1
            if prov is not None:
                self._record_trail(prov, prefix_str, node, tier, stage,
                                   paths, rejects.get(node))
            del paths[max_equal:]
            return paths

        # --- Stage 1: customer routes up ------------------------------
        with obs.span("routing.stage1_customer"):
            export_checks = 0
            routes_pushed = 0
            customer_tier = int(PrefTier.CUSTOMER)
            providers = adj.providers
            frontier = list(origin_spec)
            while frontier:
                candidates: dict[int, list[tuple[int, ...]]] = {}
                level_rejects: dict[int, list[RouteCandidate]] = {}
                for u in frontier:
                    path_u = best[u][1][0]
                    for p in providers(u):
                        if p in best:
                            if prov is not None:
                                self._record_reject(prov, prefix_str, p, _rejected(
                                    (p,) + path_u, "customer", u, "longer-path"))
                            continue
                        export_checks += 1
                        if not may_export(u, p):
                            if prov is not None:
                                level_rejects.setdefault(p, []).append(_rejected(
                                    (p,) + path_u, "customer", u, "not-exported"))
                            continue
                        if p in path_u:
                            if prov is not None:
                                level_rejects.setdefault(p, []).append(_rejected(
                                    (p,) + path_u, "customer", u, "loop"))
                            continue
                        routes_pushed += 1
                        extended = (p,) + path_u
                        held = candidates.get(p)
                        if held is None:
                            candidates[p] = [extended]
                        else:
                            held.append(extended)
                frontier = []
                for p, paths in candidates.items():
                    # BFS level fixes the hop count, so all are equal-best.
                    best[p] = (customer_tier, settle(
                        p, customer_tier, paths, "stage1-customer",
                        level_rejects))
                    frontier.append(p)
            obs.counter.inc("routing.export_checks", export_checks)
            obs.counter.inc("routing.routes_pushed", routes_pushed)
            if splits:
                obs.counter.inc("routing.equal_best_splits", splits)
                splits = 0

        # --- Stage 2: peer routes, one lateral hop ---------------------
        with obs.span("routing.stage2_peer"):
            export_checks = 0
            routes_pushed = 0
            peers = adj.peers
            peer_candidates: dict[
                int, tuple[list[int], list[tuple[int, ...]]]
            ] = {}
            peer_rejects: dict[int, list[RouteCandidate]] = {}
            for u, (_tier_u, paths_u) in best.items():
                path_u = paths_u[0]
                for v, tier in peers(u):
                    if v in best:
                        if prov is not None:
                            self._record_reject(prov, prefix_str, v, _rejected(
                                (v,) + path_u, _TIER_NAMES[tier], u,
                                "held-better-tier"))
                        continue
                    export_checks += 1
                    if not may_export(u, v):
                        if prov is not None:
                            peer_rejects.setdefault(v, []).append(_rejected(
                                (v,) + path_u, "peer", u, "not-exported"))
                        continue
                    if v in path_u:
                        if prov is not None:
                            peer_rejects.setdefault(v, []).append(_rejected(
                                (v,) + path_u, "peer", u, "loop"))
                        continue
                    routes_pushed += 1
                    held_peer = peer_candidates.get(v)
                    if held_peer is None:
                        held_peer = ([], [])
                        peer_candidates[v] = held_peer
                    held_peer[0].append(tier)
                    held_peer[1].append((v,) + path_u)
            for v, (tiers, paths) in peer_candidates.items():
                top_tier = max(tiers)
                tiered = [p for t, p in zip(tiers, paths) if t == top_tier]
                min_len = min(len(p) for p in tiered)
                equal = [p for p in tiered if len(p) == min_len]
                if prov is not None:
                    rejects = peer_rejects.setdefault(v, [])
                    rejects.extend(
                        _rejected(p, _TIER_NAMES[t], p[1], "lower-tier")
                        for t, p in zip(tiers, paths) if t != top_tier
                    )
                    rejects.extend(
                        _rejected(p, _TIER_NAMES[top_tier], p[1], "longer-path")
                        for p in tiered if len(p) != min_len
                    )
                best[v] = (top_tier, settle(
                    v, top_tier, equal, "stage2-peer", peer_rejects))
            obs.counter.inc("routing.export_checks", export_checks)
            obs.counter.inc("routing.routes_pushed", routes_pushed)
            if splits:
                obs.counter.inc("routing.equal_best_splits", splits)
                splits = 0

        # --- Stage 3: provider routes down ------------------------------
        with obs.span("routing.stage3_provider"):
            export_checks = 0
            routes_pushed = 0
            customers = adj.customers
            provider_tier = int(PrefTier.PROVIDER)
            heap: list[tuple[int, float, int, int, int]] = []
            path_of_entry: dict[
                tuple[int, float, int, int, int], tuple[int, ...]
            ] = {}

            def push(path: tuple[int, ...], via: int) -> None:
                nonlocal routes_pushed
                routes_pushed += 1
                entry = (
                    len(path) - 1,
                    exit_km(path[0], via),
                    via,
                    path[-1],
                    path[0],
                )
                path_of_entry[entry] = path
                heapq.heappush(heap, entry)

            provider_rejects: dict[int, list[RouteCandidate]] = {}
            for u, (_tier_u, paths_u) in best.items():
                path_u = paths_u[0]
                for c in customers(u):
                    if c in best:
                        if prov is not None:
                            self._record_reject(prov, prefix_str, c, _rejected(
                                (c,) + path_u, "provider", u,
                                "held-better-tier"))
                        continue
                    export_checks += 1
                    if not may_export(u, c):
                        if prov is not None:
                            provider_rejects.setdefault(c, []).append(_rejected(
                                (c,) + path_u, "provider", u, "not-exported"))
                        continue
                    if c in path_u:
                        if prov is not None:
                            provider_rejects.setdefault(c, []).append(_rejected(
                                (c,) + path_u, "provider", u, "loop"))
                        continue
                    push((c,) + path_u, u)
            provider_paths: dict[int, list[tuple[int, ...]]] = {}
            provider_hops: dict[int, int] = {}
            while heap:
                entry = heapq.heappop(heap)
                path = path_of_entry.pop(entry)
                node = entry[4]
                if node in best:
                    continue
                assigned = provider_hops.get(node)
                if assigned is None:
                    # First (best) provider route: assign and export onward.
                    provider_hops[node] = entry[0]
                    provider_paths[node] = [path]
                    for c in customers(node):
                        if c in best:
                            if prov is not None:
                                self._record_reject(prov, prefix_str, c, _rejected(
                                    (c,) + path, "provider", node,
                                    "held-better-tier"))
                            continue
                        if c in path:
                            if prov is not None:
                                provider_rejects.setdefault(c, []).append(_rejected(
                                    (c,) + path, "provider", node, "loop"))
                            continue
                        push((c,) + path, node)
                elif entry[0] == assigned:
                    # Equal-best alternate via a different neighbor.
                    existing = provider_paths[node]
                    via = path[1]
                    if (
                        len(existing) < max_equal
                        and all(p[1] != via for p in existing)
                    ):
                        existing.append(path)
                    elif prov is not None:
                        reason = ("duplicate-exit"
                                  if any(p[1] == via for p in existing)
                                  else "equal-best-overflow")
                        provider_rejects.setdefault(node, []).append(_rejected(
                            path, "provider", via, reason))
                elif prov is not None:
                    # Longer provider routes are ignored; only a trail
                    # notes them.
                    provider_rejects.setdefault(node, []).append(_rejected(
                        path, "provider", path[1], "longer-path"))
            for node, paths in provider_paths.items():
                best[node] = (provider_tier, settle(
                    node, provider_tier, paths, "stage3-provider",
                    provider_rejects))
            obs.counter.inc("routing.export_checks", export_checks)
            obs.counter.inc("routing.routes_pushed", routes_pushed)
            if splits:
                obs.counter.inc("routing.equal_best_splits", splits)

        table = FlatRoutingTable.from_rows(
            announcement,
            topo.version,
            topo.num_nodes,
            (
                (node, tier, paths)
                for node, (tier, paths) in best.items()
            ),
        )
        obs.gauge.set("routing.routed_nodes", len(best))
        if prov is not None:
            prov.emit("routing.table-computed", prefix=prefix_str,
                      routed=len(best), origins=len(origin_spec))
        return table
