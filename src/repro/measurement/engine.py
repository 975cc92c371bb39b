"""Ping / traceroute execution from probes over the routed topology.

The engine binds together the routing layer and the probe population:

- a :class:`ServiceRegistry` records which announcement owns each service
  address, the way the real Internet's routing tables do;
- :meth:`MeasurementEngine.ping` resolves the probe's AS, looks up its
  selected route toward the target's announcement, realises the route
  geographically, and reports an RTT with deterministic per-(probe,
  target) jitter — re-measuring the same target from the same probe gives
  the same value, while two prefixes served from the same site via the
  same path differ slightly (the §5.3 "same path, different RTT" noise);
- :meth:`MeasurementEngine.traceroute` additionally reports hops, with a
  deterministic fraction of silent routers (the paper's invalid-p-hop
  traces, filtered in §5.3);
- :meth:`MeasurementEngine.ping_many` / :meth:`~MeasurementEngine
  .trace_many` measure one address from a batch of probes, doing the
  registry lookup, the table fetch and the jitter-key setup once per
  batch.  Every campaign loop goes through them; ``ping`` and
  ``traceroute`` are one-probe batches.

A measurement is a *walk* and an *observation*.  The walk (the
forwarding path) depends only on topology, routing table and probe; the
observation (jitter, silent hops) adds the campaign seed and the salt.
:meth:`~MeasurementEngine.reach_many` walks a batch once and keeps what
a ping needs as a packed :class:`Reach`; :meth:`~MeasurementEngine
.pings_from` and :meth:`~MeasurementEngine.traces_from` observe a walk
under this engine's seed.  ``ping_many`` and ``trace_many`` are the two
composed, so callers that re-measure an address under another salt or
seed (``World.ping_all``, the longitudinal campaigns) observe the walk
they already have instead of walking again.

``reach_many`` memoises its walks per (routing table, probe batch).  The
routing engine serves every prefix of one origin set from one table, so
a campaign that deploys the same site set under a fresh prefix (ReOpt's
sweep, the baselines' subsets, a withdrawal study) walks it once; only
the jitter, keyed by the address, differs between the prefixes.
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from repro.measurement.probes import Probe
from repro.netaddr.ipv4 import IPv4Address
from repro.routing.engine import RoutingEngine
from repro.routing.flat import FlatRoutingTable
from repro.routing.forwarding import ForwardingPath, trace_forwarding_path
from repro.routing.route import Announcement, OriginSpec
from repro.topology.graph import Topology


@dataclass(frozen=True)
class PingResult:
    """Outcome of one ping measurement."""

    probe_id: int
    target: IPv4Address
    #: None when the probe's AS holds no route to the target.
    rtt_ms: float | None
    #: Origin site node id of the route used (the catchment), or None.
    catchment: int | None

    @property
    def reachable(self) -> bool:
        return self.rtt_ms is not None


@dataclass(frozen=True)
class TracerouteHop:
    """One line of traceroute output."""

    ttl: int
    #: None when the router did not respond ("* * *").
    addr: IPv4Address | None
    rtt_ms: float | None


@dataclass(frozen=True)
class TracerouteResult:
    """Outcome of one traceroute measurement."""

    probe_id: int
    target: IPv4Address
    hops: tuple[TracerouteHop, ...]
    reached: bool
    #: The forwarding path behind the measurement (simulator ground truth,
    #: not visible to analysis code that plays by the paper's rules).
    path: ForwardingPath | None

    @property
    def penultimate_hop(self) -> TracerouteHop | None:
        """The hop before the destination, or None if it did not respond.

        Traces whose p-hop is missing are the "no valid p-hop" traces the
        paper filters out (§5.3).
        """
        if not self.reached or len(self.hops) < 2:
            return None
        hop = self.hops[-2]
        return hop if hop.addr is not None else None


@dataclass(frozen=True)
class Reach:
    """Salt- and seed-free outcome of walking one address from a batch of
    probes, in the batch's order: everything a ping needs, 12 B a probe.
    """

    #: Base RTT of each probe's path (``ForwardingPath.rtt_ms``); 0.0
    #: where the probe has no route.
    rtt_ms: array[float]
    #: Catchment (origin site node) of each probe's path; -1 where the
    #: probe has no route.
    catchment: array[int]

    @classmethod
    def from_paths(cls, paths: Iterable[ForwardingPath | None]) -> Reach:
        rtt_ms = array("d")
        catchment = array("i")
        for path in paths:
            if path is None:
                rtt_ms.append(0.0)
                catchment.append(-1)
            else:
                rtt_ms.append(path.rtt_ms)
                catchment.append(path.origin)
        return cls(rtt_ms, catchment)

    def __len__(self) -> int:
        return len(self.catchment)


class ServiceRegistry:
    """Maps service addresses to the announcement that serves them.

    Lookups use longest-prefix match over the registered prefixes (a
    binary trie keyed on address bits), exactly like a FIB: any address
    inside a registered prefix resolves to its announcement, and more
    specific prefixes shadow less specific ones.
    """

    def __init__(self) -> None:
        self._by_addr: dict[IPv4Address, Announcement] = {}
        # Binary trie node: [zero_child, one_child, announcement|None].
        self._trie: list = [None, None, None]
        self._count = 0

    def register(self, announcement: Announcement) -> None:
        """Register an announcement under its prefix."""
        addr = announcement.prefix.address(1)
        existing = self._by_addr.get(addr)
        if existing is not None and existing != announcement:
            raise ValueError(f"service address {addr} already registered")
        if existing is None:
            self._by_addr[addr] = announcement
            self._trie_insert(announcement)
            self._count += 1

    def _trie_insert(self, announcement: Announcement) -> None:
        prefix = announcement.prefix
        node = self._trie
        for i in range(prefix.length):
            bit = (prefix.network >> (31 - i)) & 1
            if node[bit] is None:
                node[bit] = [None, None, None]
            node = node[bit]
        if node[2] is not None and node[2] != announcement:
            raise ValueError(f"prefix {prefix} already registered")
        node[2] = announcement

    def lookup(self, addr: IPv4Address) -> Announcement | None:
        """Longest-prefix match for an address."""
        node = self._trie
        best: Announcement | None = node[2]
        value = addr.value
        for i in range(32):
            bit = (value >> (31 - i)) & 1
            node = node[bit]
            if node is None:
                break
            if node[2] is not None:
                best = node[2]
        return best

    def announcements(self) -> list[Announcement]:
        return list(self._by_addr.values())

    def __len__(self) -> int:
        return self._count


class MeasurementEngine:
    """Executes measurements from probes."""

    def __init__(
        self,
        topology: Topology,
        registry: ServiceRegistry,
        seed: int = 0,
        jitter_fraction: float = 0.04,
        hop_silent_fraction: float = 0.02,
        hop_silence_seed: int = 0,
    ):
        self._topology = topology
        self._registry = registry
        self._routing = RoutingEngine(topology)
        self._seed = seed
        self._jitter_fraction = jitter_fraction
        self._hop_silent_fraction = hop_silent_fraction
        # Router unresponsiveness is a property of the *router*, not of a
        # measurement campaign: it uses its own seed so two engines with
        # different campaign seeds see the same silent routers.
        self._hop_silence_seed = hop_silence_seed
        #: Interface address -> silent?; a pure function of the address.
        self._silent: dict[IPv4Address, bool] = {}
        #: Walks already done, per routing table origin set: the probe
        #: batches walked under it and their packed reach.  A walk
        #: depends on the table and the probes, never on the prefix, so
        #: every prefix of one origin set shares them.
        self._reach: dict[
            tuple[tuple[OriginSpec, ...], int], list[tuple[tuple[Probe, ...], Reach]]
        ] = {}
        #: Topology version ``_reach`` was filled at.
        self._reach_version = topology.version

    @property
    def routing(self) -> RoutingEngine:
        return self._routing

    @property
    def registry(self) -> ServiceRegistry:
        return self._registry

    # ------------------------------------------------------------------
    def table_for(self, addr: IPv4Address) -> FlatRoutingTable | None:
        announcement = self._registry.lookup(addr)
        if announcement is None:
            return None
        return self._routing.compute(announcement)

    def _walk(self, table: FlatRoutingTable, probe: Probe) -> ForwardingPath | None:
        """The geographic path of a probe's traffic under one table.

        Looks up the module-level ``trace_forwarding_path`` on every
        call, so a wrapper put there (a tracer, a profiler) sees every
        walk.
        """
        return trace_forwarding_path(
            self._topology,
            table,
            probe.as_node,
            probe.location,
            last_mile_ms=probe.last_mile_ms,
        )

    def ping(self, probe: Probe, addr: IPv4Address, salt: object = None) -> PingResult:
        """One ping from a probe to a service address.

        ``salt`` differentiates otherwise identical measurement campaigns
        (e.g. two hostnames resolving to the same addresses, Appendix C):
        the same (probe, address, salt) always measures the same RTT.
        """
        return self.ping_many((probe,), addr, salt=salt)[0]

    def traceroute(self, probe: Probe, addr: IPv4Address) -> TracerouteResult:
        """One traceroute from a probe to a service address."""
        return self.trace_many((probe,), addr)[0]

    def reach_many(
        self,
        probes: Iterable[Probe],
        addr: IPv4Address,
        walk: Callable[[], Reach | None] | None = None,
    ) -> Reach:
        """Walk one service address from each probe, packed for pings.

        Memoised per (routing table origin set, probe batch): a batch
        already walked under the address's table — to this prefix or to
        any other prefix of the same origins — is not walked again.  The
        memo is dropped when the topology version moves.  On a miss,
        ``walk`` (a worker pool's fan-out, or a trace batch's paths) may
        supply the reach; when it is absent or returns None, the batch
        is walked here.
        """
        batch = tuple(probes)
        table = self.table_for(addr)
        if table is None:
            return Reach.from_paths(None for _ in batch)
        if self._reach_version != self._topology.version:
            self._reach.clear()
            self._reach_version = self._topology.version
        walked = self._reach.setdefault(
            (table.announcement.origins, table.topology_version), [])
        for known, reach in walked:
            if known == batch:
                return reach
        supplied = walk() if walk is not None else None
        reach = (supplied if supplied is not None
                 else Reach.from_paths(self._walk_many(table, batch)))
        walked.append((batch, reach))
        return reach

    def ping_many(
        self, probes: Iterable[Probe], addr: IPv4Address, salt: object = None
    ) -> list[PingResult]:
        """Ping one service address from each probe, in input order.

        Equal to ``[self.ping(p, addr, salt) for p in probes]``; the
        registry lookup, the table fetch and the jitter-key prefix are
        done once per batch.
        """
        batch = tuple(probes)
        return self.pings_from(self.reach_many(batch, addr), batch, addr, salt)

    def trace_many(
        self, probes: Iterable[Probe], addr: IPv4Address
    ) -> list[TracerouteResult]:
        """Traceroute one service address from each probe, in input order.

        Equal to ``[self.traceroute(p, addr) for p in probes]``, with the
        per-batch work of :meth:`ping_many` done once.
        """
        batch = tuple(probes)
        table = self.table_for(addr)
        paths = (list(self._walk_many(table, batch)) if table is not None
                 else [None] * len(batch))
        return self.traces_from(paths, batch, addr)

    def _walk_many(
        self, table: FlatRoutingTable, probes: Iterable[Probe]
    ) -> Iterator[ForwardingPath | None]:
        """Each probe's forwarding path under ``table``: the one walk loop."""
        for probe in probes:
            yield self._walk(table, probe)

    def pings_from(
        self, reach: Reach, probes: Sequence[Probe], addr: IPv4Address,
        salt: object = None,
    ) -> list[PingResult]:
        """Observe a walk as pings under this engine's seed and ``salt``.

        ``reach`` must come from walking ``addr`` from ``probes``, in
        that order (:meth:`reach_many`, or :meth:`Reach.from_paths`
        over a traceroute batch's paths).
        """
        if len(reach) != len(probes):
            raise ValueError(
                f"reach of {len(reach)} probes for a batch of {len(probes)}")
        jitter = self._jitter_of(addr, salt)
        results = []
        for probe, rtt_ms, catchment in zip(probes, reach.rtt_ms, reach.catchment):
            if catchment < 0:
                results.append(PingResult(probe_id=probe.probe_id, target=addr,
                                          rtt_ms=None, catchment=None))
            else:
                results.append(PingResult(
                    probe_id=probe.probe_id,
                    target=addr,
                    rtt_ms=rtt_ms * (1.0 + jitter(probe.probe_id)),
                    catchment=catchment,
                ))
        return results

    def traces_from(
        self, paths: Sequence[ForwardingPath | None], probes: Sequence[Probe],
        addr: IPv4Address,
    ) -> list[TracerouteResult]:
        """Observe walked paths as traceroutes under this engine's seed.

        ``paths`` are the forwarding paths from ``probes`` to ``addr``,
        in that order, None where a probe has no route.
        """
        if len(paths) != len(probes):
            raise ValueError(
                f"{len(paths)} paths for a batch of {len(probes)} probes")
        jitter = self._jitter_of(addr, None)
        results = []
        for probe, path in zip(probes, paths):
            if path is None:
                results.append(TracerouteResult(
                    probe_id=probe.probe_id, target=addr, hops=(),
                    reached=False, path=None,
                ))
                continue
            scale = 1.0 + jitter(probe.probe_id)
            hops: list[TracerouteHop] = []
            for ttl, hop in enumerate(path.hops, start=1):
                if self._hop_silent(hop.addr):
                    hops.append(TracerouteHop(ttl=ttl, addr=None, rtt_ms=None))
                else:
                    hops.append(TracerouteHop(ttl=ttl, addr=hop.addr,
                                              rtt_ms=hop.rtt_ms * scale))
            hops.append(TracerouteHop(ttl=len(path.hops) + 1, addr=addr,
                                      rtt_ms=path.rtt_ms * scale))
            results.append(TracerouteResult(
                probe_id=probe.probe_id,
                target=addr,
                hops=tuple(hops),
                reached=True,
                path=path,
            ))
        return results

    # ------------------------------------------------------------------
    def _jitter_of(self, addr: IPv4Address, salt: object) -> Callable[[int], float]:
        """Per-probe multiplicative jitter in [-f, +f] toward one target.

        Deterministic: the sha256 of ``"{seed}|jitter|{probe_id}|{addr}|
        {salt}"``, whose prefix and suffix are built once per target.
        """
        head = f"{self._seed!s}|jitter|"
        tail = f"|{addr!s}|{salt!s}"
        fraction = self._jitter_fraction

        def jitter(probe_id: int) -> float:
            digest = hashlib.sha256(f"{head}{probe_id!s}{tail}".encode()).digest()
            u = int.from_bytes(digest[:8], "big") / float(1 << 64)
            return (2.0 * u - 1.0) * fraction

        return jitter

    def _hop_silent(self, addr: IPv4Address) -> bool:
        """Whether a router interface never answers traceroute (memoized)."""
        silent = self._silent.get(addr)
        if silent is None:
            digest = hashlib.sha256(
                f"silent|{self._hop_silence_seed}|{addr}".encode()
            ).digest()
            u = int.from_bytes(digest[:8], "big") / float(1 << 64)
            silent = self._silent[addr] = u < self._hop_silent_fraction
        return silent
