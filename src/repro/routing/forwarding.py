"""From routing tables to geographic forwarding paths and latency.

The routing engine leaves each node with an *equal-best set* of routes
(same preference tier, same AS-path length).  Which member carries a given
packet is decided hop by hop, geographically: the ingress point picks the
equally-good exit nearest its current location (IGP hot-potato), crosses
the chosen adjacency at its nearest interconnect, and repeats at the next
AS.  Path length strictly decreases at every step, so the walk always
terminates at an origin site.

A walk reads the routing table's packed columns directly (tier, route
slices, flattened AS paths; the next hop of a route is the second node
of its path) and stops at the ORIGIN tier.  Every piece of geometry a
hop needs — the nearest interconnect of the link toward each candidate
next hop, its rank and walk distances, the hop's interface address, and
the destination site's distance — comes from the exit and destination
memos on :class:`~repro.topology.flat.FlatAdjacency`, which live as long
as one topology version.  Nothing is memoized per table or per walk, so
memory stays proportional to the distinct geometry, not to the number
of tables or probes.

Latency follows the paper's calibration: 100 km of great-circle fiber path
per 1 ms of RTT, plus per-interconnect extra latency (queueing/processing,
sampled at build time) and the client's last-mile latency.

The *penultimate hop* (p-hop) the measurement pipeline geolocates is the
ingress interface of the destination site at the final interconnect —
which lives in CDN infrastructure space for transit/private links but in
IXP space for IXP sessions, reproducing the "p-hop belongs to an IXP and
is invisible in BGP" population of §5.3.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.explain import provenance
from repro.explain.provenance import ExitOption, ForwardingStep, ForwardingTrail
from repro.geo.atlas import City
from repro.geo.coords import FIBER_KM_PER_MS_RTT, GeoPoint
from repro.netaddr.ipv4 import IPv4Address
from repro.routing.flat import FlatRoutingTable
from repro.routing.route import PrefTier
from repro.topology.flat import ExitHop, flat_adjacency
from repro.topology.flat import site_city  # noqa: F401 - re-exported
from repro.topology.graph import Topology

_ORIGIN = int(PrefTier.ORIGIN)


@dataclass(frozen=True)
class Hop:
    """One traceroute-visible router on a forwarding path."""

    addr: IPv4Address
    node_id: int
    city: City
    ixp_id: int | None
    #: Cumulative RTT from the client to this hop, in milliseconds.
    rtt_ms: float


@dataclass(frozen=True)
class ForwardingPath:
    """The realised path of one client's traffic toward a prefix."""

    #: Node-level path actually taken, client AS first, origin site last.
    node_path: tuple[int, ...]
    #: The origin site node the traffic lands on (the catchment).
    origin: int
    hops: tuple[Hop, ...]
    #: Total RTT from the client to the destination, in milliseconds.
    rtt_ms: float
    #: Total great-circle distance walked, in kilometres.
    distance_km: float
    #: The destination site's city.
    dest_city: City

    @property
    def penultimate_hop(self) -> Hop | None:
        """The last router before the destination (None for on-net clients)."""
        return self.hops[-1] if self.hops else None

    @property
    def as_hops(self) -> int:
        return len(self.node_path) - 1


def trace_forwarding_path(
    topology: Topology,
    table: FlatRoutingTable,
    start_node: int,
    start_point: GeoPoint,
    last_mile_ms: float = 0.0,
    primary_only: bool = False,
) -> ForwardingPath | None:
    """Walk a client's traffic from ``start_node`` to its catchment site.

    Returns None when the client's AS holds no route to the prefix.
    ``last_mile_ms`` is the client's access latency (RTT), added once.
    The returned hops are the ingress interfaces of each successive node,
    which is what traceroute shows.

    ``primary_only`` disables per-ingress hot-potato resolution: every
    node forwards along its single advertised (primary) route, as a
    one-route-per-AS model would.  It exists for the ablation that
    quantifies how much the equal-best/hot-potato model matters (see
    ``docs/modeling.md`` §3); leave it off for faithful behaviour.
    """
    if last_mile_ms < 0:
        raise ValueError(f"last-mile latency must be non-negative: {last_mile_ms!r}")
    row_of = table.row_of
    row = row_of(start_node)
    if row is None:
        obs.counter.inc("forwarding.unreachable")
        return None
    obs.counter.inc("forwarding.walks")
    adjacency = flat_adjacency(topology)
    tiers = table.tiers
    choice_start = table.choice_start
    path_start = table.path_start
    path_nodes = table.path_nodes
    prov = provenance.active()
    steps: list[ForwardingStep] = []
    node = start_node
    point = start_point
    total_km = 0.0
    extra_ms = last_mile_ms
    node_path = [start_node]
    hops: list[Hop] = []
    while tiers[row] != _ORIGIN:
        exits = adjacency.exits_at(point)
        lo = choice_start[row]
        hi = choice_start[row + 1]
        # Hot potato: the equal-best exit whose nearest interconnect is
        # closest, ties to the lower next hop; the first route wins
        # exact ties.
        best: ExitHop | None = None
        best_km = 0.0
        best_next = best_j = -1
        for j in range(lo, lo + 1 if primary_only else hi):
            next_hop = path_nodes[path_start[j] + 1]
            hop = exits.get((node << 32) | next_hop)
            if hop is None:
                hop = adjacency.exit_hop(node, next_hop, point)
            rank_km = hop.rank_km
            if best is None or rank_km < best_km or (
                rank_km == best_km and next_hop < best_next
            ):
                best, best_km, best_next, best_j = hop, rank_km, next_hop, j
        assert best is not None  # every routed row holds at least one route
        if prov is not None:
            options = []
            for j in range(lo, hi):
                next_hop = path_nodes[path_start[j] + 1]
                hop = adjacency.exit_hop(node, next_hop, point)
                options.append(ExitOption(
                    next_hop=next_hop,
                    ic_city=hop.city.iata,
                    km=hop.rank_km,
                    chosen=j == best_j,
                ))
            steps.append(ForwardingStep(node_id=node, options=tuple(options)))
        total_km += best.walk_km
        point = best.city.location
        extra_ms += best.extra_ms
        node = best_next
        node_path.append(node)
        hops.append(
            Hop(
                addr=best.addr,
                node_id=node,
                city=best.city,
                ixp_id=best.ixp_id,
                rtt_ms=total_km / FIBER_KM_PER_MS_RTT + extra_ms,
            )
        )
        row = row_of(node)
        if row is None:  # pragma: no cover - engine guarantees continuity
            return None
    dest, dest_km = adjacency.dest(node, point)
    total_km += dest_km
    rtt_ms = total_km / FIBER_KM_PER_MS_RTT + extra_ms
    obs.counter.inc("forwarding.hops", len(hops))
    if prov is not None:
        prov.record_forwarding(ForwardingTrail(
            prefix=str(table.prefix),
            start_node=start_node,
            origin=node,
            steps=tuple(steps),
        ))
    return ForwardingPath(
        node_path=tuple(node_path),
        origin=node,
        hops=tuple(hops),
        rtt_ms=rtt_ms,
        distance_km=total_km,
        dest_city=dest,
    )
