"""Ablated routing: hop-count shortest path without BGP policy.

§2.1 attributes catchment inefficiency to *policy* routing.  This module
removes the policy: routes propagate over every adjacency regardless of
business relationship and each node keeps the equal-best set by hop count
alone.  Comparing anycast latency under this engine against the real one
isolates how much of the inefficiency BGP's preferences cause — the
"policy on/off" ablation of DESIGN.md.
"""

from __future__ import annotations

from repro.routing.flat import FlatRoutingTable
from repro.routing.route import Announcement, PrefTier
from repro.topology.graph import Topology


def compute_shortest_path_table(
    topology: Topology, announcement: Announcement, max_equal_best: int = 16
) -> FlatRoutingTable:
    """Hop-count BFS routing table (no preferences, no export rules).

    Origins hold the ORIGIN tier, every other routed node the CUSTOMER
    tier; each node keeps one path per next hop, ordered by (next hop,
    origin).
    """
    paths: dict[int, list[tuple[int, ...]]] = {}
    frontier: list[int] = []
    for spec in announcement.origins:
        if not topology.has_node(spec.site_node):
            raise ValueError(f"announcement origin {spec.site_node} not in topology")
        paths[spec.site_node] = [(spec.site_node,)]
        frontier.append(spec.site_node)
    origins = set(paths)
    while frontier:
        candidates: dict[int, list[tuple[int, ...]]] = {}
        for u in frontier:
            path_u = paths[u][0]
            spec = next(
                (s for s in announcement.origins if s.site_node == u), None
            )
            for v in topology.neighbors_of(u):
                if v in paths:
                    continue
                if spec is not None and not spec.announces_to(v):
                    continue
                if v in path_u:
                    continue
                candidates.setdefault(v, []).append((v,) + path_u)
        frontier = []
        for v, found in candidates.items():
            unique: dict[int, tuple[int, ...]] = {}
            for path in sorted(found, key=lambda p: (p[1], p[-1])):
                unique.setdefault(path[1], path)
            paths[v] = list(unique.values())[:max_equal_best]
            frontier.append(v)
    origin_tier = int(PrefTier.ORIGIN)
    customer_tier = int(PrefTier.CUSTOMER)
    return FlatRoutingTable.from_rows(
        announcement,
        topology.version,
        topology.num_nodes,
        (
            (node, origin_tier if node in origins else customer_tier, node_paths)
            for node, node_paths in paths.items()
        ),
    )
