"""Contention-aware wormhole network model.

``WormholeNetwork`` models X-Y wormhole switching at link granularity.  Each
directed link transfers one flit per cycle.  A packet's head flit leaves node
``i`` for node ``i+1`` only once the link is free; once the head passes, the
link stays occupied for the packet's full flit count (wormhole: the body
follows the head in pipeline fashion and the worm occupies every link it is
crossing).  Router traversal adds a fixed pipeline delay per hop (3 cycles by
default, Table 4).

The model is a well-known approximation of flit-accurate simulation: packets
are processed in injection order and reserve each link for ``num_flits``
cycles starting when their head crosses it.  It captures the two effects the
paper's optimization targets -- hop distance and link contention -- while
staying fast enough to drive 21-application sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .packet import Packet
from .routing import (
    CycleTable,
    Link,
    Route,
    RouteTable,
    link_endpoints,
    link_id,
    pipeline_cycles,
    xy_routes,
)
from .topology import Mesh2D


def throttled_flits(num_flits: int, factor: float) -> int:
    """Cycles a link throttled to ``factor`` of full speed is occupied
    carrying ``num_flits`` flits."""
    return int(math.ceil(num_flits / factor))


@dataclass
class NetworkStats:
    """Aggregate statistics of one network instance (accumulated by
    :meth:`BaseNetwork.transfer`)."""

    packets: int = 0
    flits: int = 0
    flit_hops: int = 0
    total_latency: int = 0
    total_hops: int = 0
    total_queueing: int = 0
    max_latency: int = 0

    @property
    def avg_latency(self) -> float:
        return self.total_latency / self.packets if self.packets else 0.0

    @property
    def avg_hops(self) -> float:
        return self.total_hops / self.packets if self.packets else 0.0

    @property
    def avg_queueing(self) -> float:
        return self.total_queueing / self.packets if self.packets else 0.0


class BaseNetwork:
    """Common interface of the wormhole and analytic network models."""

    def __init__(self, mesh: Mesh2D, router_delay: int = 3, zero_latency: bool = False):
        self.mesh = mesh
        self.router_delay = router_delay
        self.zero_latency = zero_latency
        self.stats = NetworkStats()
        # routes[src][dst] -> link ids crossed: the X-Y table shared by every
        # mesh of this shape, until apply_faults swaps in a detour table.
        self.routes: RouteTable = xy_routes(mesh)
        # Fault timing, empty on a pristine machine: hotspot cycles per
        # router, and the throttle factor of each link id (None = full
        # speed).
        self.router_extra: Dict[int, int] = {}
        self.link_throttle: List[Optional[float]] = [None] * (4 * mesh.num_nodes)
        # cycles[src][dst]: each route's uncontended router pipeline.
        self.route_cycles: CycleTable = pipeline_cycles(
            self.routes, router_delay, self.router_extra
        )
        # Telemetry attachment (see set_telemetry); all None when disabled
        # so the per-packet fast path pays one predicate, nothing more.
        self.telemetry = None
        self._spatial = None
        self._hist_latency = None
        self._hist_hops = None

    def apply_faults(self, degraded) -> None:
        """Route and time packets through a :class:`repro.faults.DegradedTopology`.

        Tabulates its routes once per (src, dst) pair -- X-Y unless
        detouring around a downed link, so a disconnecting plan raises
        :class:`repro.faults.FaultPlanError` here -- and hands the per-hop
        loops its hotspot cycles and link throttles.  Detours cross only
        mesh-neighbour links, so every one has a link id.
        """
        mesh = self.mesh
        nodes = range(mesh.num_nodes)
        self.routes = tuple(
            tuple(
                tuple(link_id(mesh, u, v) for u, v in degraded.route(src, dst))
                for dst in nodes
            )
            for src in nodes
        )
        self.router_extra = degraded.router_extra
        self.link_throttle = [None] * (4 * mesh.num_nodes)
        for (u, v), factor in degraded.link_throttle.items():
            self.link_throttle[link_id(mesh, u, v)] = factor
        self.route_cycles = pipeline_cycles(
            self.routes, self.router_delay, self.router_extra
        )

    def set_telemetry(self, telemetry) -> None:
        """Attach a :class:`repro.obs.Telemetry` hub (or None to detach).

        Caches the spatial accumulators and the latency/hops histograms so
        :meth:`transfer` never does a dict lookup per packet.
        """
        if telemetry is None or not telemetry.enabled:
            self.telemetry = None
            self._spatial = None
            self._hist_latency = None
            self._hist_hops = None
            return
        self.telemetry = telemetry
        self._spatial = telemetry.spatial
        self._hist_latency = telemetry.histogram("noc.packet_latency")
        self._hist_hops = telemetry.histogram("noc.packet_hops")

    def transfer(self, packet: Packet) -> int:
        """Deliver ``packet``; returns the cycle its tail arrives at ``dst``.

        Subclasses implement :meth:`_transfer`; this wrapper handles the
        ideal (zero-latency) network used for the Figure 2 upper bound and
        records statistics and per-link telemetry.
        """
        flits = packet.num_flits
        stats = self.stats
        stats.packets += 1
        stats.flits += flits
        if self.zero_latency or packet.src == packet.dst:
            # Local delivery (or the ideal network of Figure 2): the message
            # does not enter the mesh.
            if self._hist_latency is not None:
                self._hist_latency.record(0)
                self._hist_hops.record(0)
            return packet.inject_time
        # Detours around downed links may be longer than Manhattan.
        links = self.routes[packet.src][packet.dst]
        hops = len(links)
        if self._spatial is not None:
            link_flits = self._spatial.link_flits
            ends = link_endpoints(self.mesh)
            for link in links:
                pair = ends[link]
                link_flits[pair] = link_flits.get(pair, 0) + flits
        arrival, queueing = self._transfer(packet, links)
        latency = arrival - packet.inject_time
        stats.flit_hops += flits * hops
        stats.total_latency += latency
        stats.total_hops += hops
        stats.total_queueing += queueing
        if latency > stats.max_latency:
            stats.max_latency = latency
        if self._hist_latency is not None:
            self._hist_latency.record(latency)
            self._hist_hops.record(hops)
        return arrival

    def _transfer(self, packet: Packet, links: Route) -> Tuple[int, int]:
        """Time ``packet`` over link ids ``links``: (tail arrival, queueing
        cycles)."""
        raise NotImplementedError

    def uncontended_latency(self, src: int, dst: int, num_flits: int) -> int:
        """Latency of a packet on an otherwise empty network."""
        if self.zero_latency or src == dst:
            return 0
        return self.route_cycles[src][dst] + (num_flits - 1)

    def reset_stats(self) -> None:
        self.stats = NetworkStats()


class WormholeNetwork(BaseNetwork):
    """Link-reservation wormhole model with per-link contention."""

    def __init__(self, mesh: Mesh2D, router_delay: int = 3, zero_latency: bool = False):
        super().__init__(mesh, router_delay, zero_latency)
        # Cycle each link id is reserved until.
        self._link_free: List[int] = [0] * (4 * mesh.num_nodes)

    def _transfer(self, packet: Packet, links: Route) -> Tuple[int, int]:
        flits = packet.num_flits
        delay = self.router_delay
        extra = self.router_extra
        throttle = self.link_throttle
        link_free = self._link_free
        head = packet.inject_time
        queueing = 0
        for link in links:
            # Router pipeline (plus any hotspot cycles) at the upstream
            # node, link // 4, then wait for the link.
            ready = head + delay + extra.get(link // 4, 0)
            free_at = link_free[link]
            if free_at > ready:
                queueing += free_at - ready
                ready = free_at
            # Head flit crosses in one cycle; the link then carries the
            # rest of the worm, one flit per cycle -- a throttled link
            # fewer, so it stays reserved proportionally longer.
            head = ready + 1
            factor = throttle[link]
            link_free[link] = ready + (
                flits if factor is None else throttled_flits(flits, factor)
            )
        # Tail arrives (num_flits - 1) cycles after the head.
        return head + flits - 1, queueing

    def link_busy_until(self, link: Link) -> int:
        """Cycle the ``(u, v)`` link is reserved until."""
        return self._link_free[link_id(self.mesh, *link)]

    def reset(self) -> None:
        self._link_free = [0] * len(self._link_free)
        self.reset_stats()
