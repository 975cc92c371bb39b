"""Exact reference for forwarding: the object walk over route sets.

It shares nothing with the production walk, which reads a table's packed
columns and takes its geometry from a per-topology exit memo.  Here every
hop materialises the node's equal-best routes with ``choice_at``, scans
each candidate link's interconnects for the one nearest the current
point (great-circle km, then interface address text), takes the exit
with the smallest (km, next hop), first route on exact ties, and sums
great-circle distances as it goes.  The primary-only mode forwards along
each node's first route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.explain.provenance import ExitOption, ForwardingStep
from repro.geo.coords import FIBER_KM_PER_MS_RTT, GeoPoint, great_circle_km
from repro.routing.route import PrefTier
from repro.topology.graph import Topology


@dataclass(frozen=True)
class ReferenceWalk:
    node_path: tuple[int, ...]
    origin: int
    #: (interface address, node id, city, IXP id, cumulative RTT ms).
    hops: tuple[tuple[Any, int, Any, int | None, float], ...]
    rtt_ms: float
    distance_km: float
    dest_city: Any
    #: The exits considered at each hop, as provenance records them.
    steps: tuple[ForwardingStep, ...]


def reference_walk(
    topology: Topology,
    table: Any,
    start_node: int,
    start_point: GeoPoint,
    last_mile_ms: float = 0.0,
    primary_only: bool = False,
) -> ReferenceWalk | None:
    """The walk from ``start_node``; None when it holds no route."""
    if table.choice_at(start_node) is None:
        return None
    node, point = start_node, start_point
    total_km = 0.0
    extra_ms = last_mile_ms
    node_path = [node]
    hops = []
    steps = []
    while True:
        choice = table.choice_at(node)
        if choice.tier is PrefTier.ORIGIN:
            break
        options = []
        for route in choice.routes:
            link = topology.link_between(node, route.next_hop)
            ic = min(
                link.interconnects,
                key=lambda ic: (great_circle_km(ic.city.location, point),
                                str(ic.addr_a)),
            )
            km = great_circle_km(ic.city.location, point)
            options.append((km, route.next_hop, link, ic))
        chosen = options[0] if primary_only else min(
            options, key=lambda option: (option[0], option[1])
        )
        exits = []
        for option in options:
            km, next_hop, _link, ic = option
            exits.append(ExitOption(next_hop=next_hop, ic_city=ic.city.iata,
                                    km=km, chosen=option is chosen))
        steps.append(ForwardingStep(node_id=node, options=tuple(exits)))
        _km, node, link, ic = chosen
        total_km += great_circle_km(point, ic.city.location)
        point = ic.city.location
        extra_ms += ic.extra_ms
        node_path.append(node)
        addr = ic.addr_a if node == link.a else ic.addr_b
        hops.append((addr, node, ic.city, link.ixp_id,
                     total_km / FIBER_KM_PER_MS_RTT + extra_ms))
    dest = topology.node(node).pops[0].city
    total_km += great_circle_km(point, dest.location)
    return ReferenceWalk(
        node_path=tuple(node_path),
        origin=node,
        hops=tuple(hops),
        rtt_ms=total_km / FIBER_KM_PER_MS_RTT + extra_ms,
        distance_km=total_km,
        dest_city=dest,
        steps=tuple(steps),
    )
