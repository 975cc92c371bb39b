"""Exact reference for the routing engine: a synchronous path-vector
fixed point.

It shares nothing with the engine's three ordered sweeps over flat
arrays.  Every round, each non-origin AS re-selects from its routed
neighbours' current *primary* paths: it keeps those Gao-Rexford exports
to it (everything to customers, only origin/customer routes to peers
and providers, ``OriginSpec.announces_to`` at origins) that do not
already contain it; then the highest tier by link kind, the shortest
paths, ordered by (exit km, next hop, origin) and capped at 16.  Rounds
repeat until no selection changes.
"""

from __future__ import annotations

from repro.routing.route import Announcement, PrefTier
from repro.topology.asys import LinkKind
from repro.topology.graph import Topology

MAX_EQUAL_BEST = 16

#: node -> (tier, equal-best paths with the primary first).
State = dict[int, tuple[PrefTier, list[tuple[int, ...]]]]


def _learned_tiers(topology: Topology, node: int) -> list[tuple[int, PrefTier]]:
    """(neighbour, tier of a route learned from it) for each adjacency."""
    learned = [(c, PrefTier.CUSTOMER) for c in topology.customers_of(node)]
    for peer, kind in topology.peers_of(node):
        rs = kind is LinkKind.PEER_ROUTE_SERVER
        learned.append((peer, PrefTier.RS_PEER if rs else PrefTier.PEER))
    learned.extend((p, PrefTier.PROVIDER) for p in topology.providers_of(node))
    return learned


def path_vector(topology: Topology, announcement: Announcement) -> State:
    """The stable routing state of ``announcement`` over ``topology``."""
    origins = {spec.site_node: spec for spec in announcement.origins}
    adjacency = {
        node.node_id: _learned_tiers(topology, node.node_id)
        for node in topology.nodes() if node.node_id not in origins
    }
    km: dict[tuple[int, int], float] = {}

    def rank(node: int, path: tuple[int, ...]) -> tuple[float, int, int]:
        """Exit km (nearest PoP to the link's closest interconnect, to the
        metre), next hop, origin."""
        key = (node, path[1])
        if key not in km:
            km[key] = round(min(
                ic.city.location.distance_km(pop.city.location)
                for ic in topology.link_between(node, path[1]).interconnects
                for pop in topology.node(node).pops
            ), 3)
        return (km[key], path[1], path[-1])

    state: State = {site: (PrefTier.ORIGIN, [(site,)]) for site in origins}
    for _ in range(2 * topology.num_nodes + 2):
        new: State = {site: state[site] for site in origins}
        for node, learned in adjacency.items():
            offers = []
            for neighbour, tier in learned:
                held = state.get(neighbour)
                if held is None:
                    continue
                spec = origins.get(neighbour)
                if tier is not PrefTier.PROVIDER and held[0] < PrefTier.CUSTOMER:
                    continue  # peers and providers get no peer/provider routes
                if spec is not None and not spec.announces_to(node):
                    continue
                primary = held[1][0]
                if node not in primary:
                    offers.append((tier, (node,) + primary))
            if not offers:
                continue
            top = max(tier for tier, _ in offers)
            shortest = min(len(path) for tier, path in offers if tier == top)
            ranked = sorted(
                (rank(node, path), path) for tier, path in offers
                if tier == top and len(path) == shortest
            )
            new[node] = (top, [path for _, path in ranked[:MAX_EQUAL_BEST]])
        if new == state:
            return state
        state = new
    raise AssertionError("path-vector iteration did not converge")


def assert_matches_oracle(topology: Topology, table) -> None:
    """Exact equality of tier, hops, equal-best paths and primary."""
    expected = path_vector(topology, table.announcement)
    assert set(table.best) == set(expected), table.prefix
    for node, (tier, paths) in expected.items():
        choice = table.choice_at(node)
        got = (choice.tier, choice.hops, [r.path for r in choice.routes],
               choice.primary.path)
        assert got == (tier, len(paths[0]) - 1, paths, paths[0]), (
            f"{table.prefix} node {node}"
        )
