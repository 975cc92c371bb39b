"""Flat int-indexed adjacency: the routing engine's hot-path view.

The :class:`~repro.topology.graph.Topology` container is built for
mutation and attribution — dicts of lists, dataclass nodes, per-link
interconnect objects.  The Gao-Rexford sweep only needs three things per
node: its providers, its customers, and its peers with their preference
tier.  :class:`FlatAdjacency` packs exactly that into CSR-style
``array('i')`` columns, built once per topology version and memoized, so
the three-pass engine iterates int arrays instead of chasing object
graphs — and so forked workers inherit one compact, copy-on-write block
instead of touching (and copying) the object topology's refcounts.

Neighbor order inside each CSR row is the *insertion order* of the
underlying topology's adjacency lists.  A routing table's row order
is the engine's discovery order, so this mirroring is what keeps row
order, and with it the codec bytes and routing digests, stable.

The exit-kilometre metric (nearest PoP to nearest link interconnect —
the hot-potato tie-break) is served from a per-adjacency memo backed by
a module-level city-pair distance memo, filled lazily or all at once via
:meth:`FlatAdjacency.precompute_km` before a fan-out forks workers.

Forwarding walks read two more memos from the same object, so their
geometry is computed once per topology version and dies with it:

- :meth:`FlatAdjacency.exit_hop` — crossing the link ``node -> next``
  from a point: the nearest interconnect (:func:`nearest_interconnect`),
  its rank and walk distances, and the traceroute-visible hop fields;
- :meth:`FlatAdjacency.dest` — a site node's city and its distance from
  the point the walk arrives at.

Both are filled by the same calls, in the same argument order, that a
walk made before the memo existed (haversine is not assumed symmetric),
so every float they hand out is bit-identical to a fresh computation.
"""

from __future__ import annotations

import weakref
from array import array
from typing import TYPE_CHECKING, Iterator, NamedTuple

from repro.routing.route import PrefTier
from repro.topology.asys import LinkKind

if TYPE_CHECKING:
    from repro.geo.atlas import City
    from repro.geo.coords import GeoPoint
    from repro.netaddr.ipv4 import IPv4Address
    from repro.topology.asys import Interconnect, Link
    from repro.topology.graph import Topology

#: Great-circle km between two city locations, memoized per GeoPoint
#: pair.  GeoPoints are frozen/hashable and version-independent, so the
#: memo is shared across topologies and never invalidated.
_PAIR_KM: dict[tuple["GeoPoint", "GeoPoint"], float] = {}


def _pair_km(a: "GeoPoint", b: "GeoPoint") -> float:
    key = (a, b)
    km = _PAIR_KM.get(key)
    if km is None:
        km = a.distance_km(b)
        _PAIR_KM[key] = km  # repro-lint: disable=fork-global-write -- idempotent content-derived memo
    return km


def nearest_interconnect(link: "Link", point: "GeoPoint") -> "Interconnect":
    """The link interconnect geographically nearest ``point``."""
    return min(
        link.interconnects,
        key=lambda ic: (ic.city.location.distance_km(point), str(ic.addr_a)),
    )


def site_city(topology: "Topology", node_id: int) -> "City":
    """The city of a (single-PoP) site node; first PoP for multi-PoP nodes."""
    return topology.node(node_id).pops[0].city


class ExitHop(NamedTuple):
    """Crossing the link ``node -> next_hop`` from one point."""

    #: ``ic.city.location.distance_km(point)``: the hot-potato rank.
    rank_km: float
    #: ``point.distance_km(ic.city.location)``: the km the walk adds.
    walk_km: float
    #: The interconnect's city (the next point of the walk).
    city: "City"
    extra_ms: float
    #: ``next_hop``'s interface at the interconnect (the traceroute hop).
    addr: "IPv4Address"
    ixp_id: int | None


class FlatAdjacency:
    """CSR provider/customer/peer arrays over one topology version."""

    __slots__ = (
        "version",
        "num_nodes",
        "node_ids",
        "_row",
        "_prov_ptr",
        "_prov_ids",
        "_cust_ptr",
        "_cust_ids",
        "_peer_ptr",
        "_peer_ids",
        "_peer_tiers",
        "_km",
        "_exits",
        "_dests",
        "_topology_ref",
        "__weakref__",
    )

    def __init__(self, topology: "Topology"):
        self.version = topology.version
        self.num_nodes = topology.num_nodes
        # Weak: the memo in flat_adjacency() keys on the topology, so a
        # strong back-reference here would make every entry immortal.
        self._topology_ref: "weakref.ref[Topology]" = weakref.ref(topology)
        ids = [node.node_id for node in topology.nodes()]
        self.node_ids = array("i", ids)
        self._row = {node_id: row for row, node_id in enumerate(ids)}
        rs_tier = int(PrefTier.RS_PEER)
        peer_tier = int(PrefTier.PEER)
        prov_ptr = array("i", [0])
        prov_ids = array("i")
        cust_ptr = array("i", [0])
        cust_ids = array("i")
        peer_ptr = array("i", [0])
        peer_ids = array("i")
        peer_tiers = array("b")
        for node_id in ids:
            prov_ids.extend(topology.providers_of(node_id))
            prov_ptr.append(len(prov_ids))
            cust_ids.extend(topology.customers_of(node_id))
            cust_ptr.append(len(cust_ids))
            for neighbor, kind in topology.peers_of(node_id):
                peer_ids.append(neighbor)
                peer_tiers.append(
                    rs_tier if kind is LinkKind.PEER_ROUTE_SERVER else peer_tier
                )
            peer_ptr.append(len(peer_ids))
        self._prov_ptr = prov_ptr
        self._prov_ids = prov_ids
        self._cust_ptr = cust_ptr
        self._cust_ids = cust_ids
        self._peer_ptr = peer_ptr
        self._peer_ids = peer_ids
        self._peer_tiers = peer_tiers
        #: ``(node << 32) | neighbor`` -> exit km; filled lazily (or all
        #: at once by :meth:`precompute_km`).
        self._km: dict[int, float] = {}
        #: point -> ``(node << 32) | next_hop`` -> ExitHop, filled lazily.
        self._exits: dict["GeoPoint", dict[int, ExitHop]] = {}
        #: ``(site node, point)`` -> (site city, km from point to it).
        self._dests: dict[tuple[int, "GeoPoint"], tuple["City", float]] = {}

    # ------------------------------------------------------------------
    def providers(self, node_id: int) -> array:
        row = self._row[node_id]
        return self._prov_ids[self._prov_ptr[row]:self._prov_ptr[row + 1]]

    def customers(self, node_id: int) -> array:
        row = self._row[node_id]
        return self._cust_ids[self._cust_ptr[row]:self._cust_ptr[row + 1]]

    def peers(self, node_id: int) -> Iterator[tuple[int, int]]:
        """``(neighbor, PrefTier int)`` pairs, adjacency-list order."""
        row = self._row[node_id]
        lo, hi = self._peer_ptr[row], self._peer_ptr[row + 1]
        return zip(self._peer_ids[lo:hi], self._peer_tiers[lo:hi])

    # ------------------------------------------------------------------
    def exit_km(self, node_id: int, neighbor_id: int) -> float:
        """Hot-potato metric: km from the node's nearest PoP to the
        closest interconnect of its link toward ``neighbor_id``.

        Byte-for-byte the same value :class:`repro.routing.engine
        .RoutingEngine` historically computed inline: the same min over
        interconnect x PoP city pairs, rounded to 3 decimals.
        """
        key = (node_id << 32) | neighbor_id
        km = self._km.get(key)
        if km is None:
            topology = self._topology()
            link = topology.link_between(node_id, neighbor_id)
            pops = topology.node(node_id).pops
            km = min(
                _pair_km(ic.city.location, pop.city.location)
                for ic in link.interconnects
                for pop in pops
            )
            km = round(km, 3)
            self._km[key] = km
        return km

    def _topology(self) -> "Topology":
        topology = self._topology_ref()
        if topology is None:
            raise RuntimeError(
                "FlatAdjacency outlived its topology; a memo miss needs "
                "the source graph"
            )
        return topology

    def exits_at(self, point: "GeoPoint") -> dict[int, ExitHop]:
        """The exit memo of one point, keyed ``(node << 32) | next_hop``.

        Walks read it directly and fall back to :meth:`exit_hop` on a miss.
        """
        exits = self._exits.get(point)
        if exits is None:
            exits = self._exits[point] = {}
        return exits

    def exit_hop(self, node_id: int, next_hop: int, point: "GeoPoint") -> ExitHop:
        """The hop crossing ``node_id -> next_hop`` from ``point`` (memoized)."""
        exits = self.exits_at(point)
        key = (node_id << 32) | next_hop
        hop = exits.get(key)
        if hop is None:
            link = self._topology().link_between(node_id, next_hop)
            ic = nearest_interconnect(link, point)
            hop = exits[key] = ExitHop(
                rank_km=ic.city.location.distance_km(point),
                walk_km=point.distance_km(ic.city.location),
                city=ic.city,
                extra_ms=ic.extra_ms,
                addr=link.addr_of(next_hop, ic),
                ixp_id=link.ixp_id,
            )
        return hop

    def dest(self, node_id: int, point: "GeoPoint") -> tuple["City", float]:
        """A site node's city and the km from ``point`` to it (memoized)."""
        key = (node_id, point)
        dest = self._dests.get(key)
        if dest is None:
            city = site_city(self._topology(), node_id)
            dest = self._dests[key] = (city, point.distance_km(city.location))
        return dest

    def precompute_km(self) -> int:
        """Fill the exit-km memo for every directed link end.

        Called by the parallel plane before forking so workers inherit a
        complete memo copy-on-write instead of each recomputing (and
        privately copying) it.  Returns the memo size.
        """
        topology = self._topology_ref()
        if topology is None:
            return len(self._km)
        for link in topology.links():
            self.exit_km(link.a, link.b)
            self.exit_km(link.b, link.a)
        return len(self._km)


_ADJACENCIES: "weakref.WeakKeyDictionary[Topology, FlatAdjacency]" = (
    weakref.WeakKeyDictionary()
)


def flat_adjacency(topology: "Topology") -> FlatAdjacency:
    """The flat adjacency of a topology, memoized per version.

    Stale entries (the topology mutated since the build) are replaced;
    entries die with their topology (weak keys, and the adjacency holds
    only a weak back-reference).
    """
    adjacency = _ADJACENCIES.get(topology)
    if adjacency is None or adjacency.version != topology.version:
        adjacency = FlatAdjacency(topology)
        _ADJACENCIES[topology] = adjacency  # repro-lint: disable=fork-global-write -- idempotent content-derived memo
    return adjacency
