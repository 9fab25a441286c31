"""Fast analytic network model with window-based contention.

For the 21-application parameter sweeps a per-flit link reservation model is
still too slow, so we also provide an analytic model.  Hop latency is the
same deterministic ``hops * (router_delay + 1) + (flits - 1)`` pipeline term,
and contention is approximated per link with an M/D/1-style queueing delay
computed from the link's recent utilization:

    wait = rho * service / (2 * (1 - rho))

where ``rho`` is the fraction of the current window's cycles in which the
link carried flits and ``service`` is the packet's flit count.  Utilization
is tracked in fixed windows so phase changes (e.g. the barrier-separated
loop nests of our workloads) are reflected quickly.

The wormhole model in :mod:`repro.noc.network` is the reference; unit tests
check the analytic model tracks it on random traffic.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .network import BaseNetwork, throttled_flits
from .packet import Packet
from .routing import Route

_MAX_RHO = 0.95


class AnalyticNetwork(BaseNetwork):
    """Deterministic-latency network with utilization-derived queueing."""

    def __init__(
        self,
        mesh,
        router_delay: int = 3,
        zero_latency: bool = False,
        window: int = 4096,
    ):
        super().__init__(mesh, router_delay, zero_latency)
        if window < 1:
            raise ValueError("window must be positive")
        self.window = window
        # Per link: (window index, flits accumulated in that window,
        #            utilization of the previous window).
        self._link_state: Dict[Tuple[int, int], Tuple[int, int, float]] = {}

    def _utilization(self, link: Tuple[int, int], time: int, flits: int) -> float:
        """Record ``flits`` on ``link`` at ``time``; return recent utilization."""
        widx = time // self.window
        cur_idx, cur_flits, prev_rho = self._link_state.get(link, (widx, 0, 0.0))
        if widx > cur_idx:
            # Close the finished window; windows with no traffic in between
            # mean the previous utilization has decayed to zero.
            prev_rho = cur_flits / self.window if widx == cur_idx + 1 else 0.0
            cur_idx, cur_flits = widx, 0
        cur_flits += flits
        self._link_state[link] = (cur_idx, cur_flits, prev_rho)
        # Blend the closed window with the partially filled current one.
        partial = min(1.0, cur_flits / self.window)
        rho = max(prev_rho, partial)
        return min(rho, _MAX_RHO)

    def _transfer(self, packet: Packet, links: Route) -> Tuple[int, int]:
        # Hotspot routers lengthen the pipeline term per hop; throttled
        # links inflate both the utilization sample and the service time in
        # the M/D/1 numerator, mirroring the wormhole model's longer link
        # reservation.
        flits = packet.num_flits
        time = packet.inject_time
        extra = self.router_extra
        throttle = self.link_throttle
        base = len(links) * (self.router_delay + 1) + (flits - 1)
        queueing = 0.0
        for link in links:
            base += extra.get(link[0], 0)
            factor = throttle.get(link)
            service = flits if factor is None else throttled_flits(flits, factor)
            rho = self._utilization(link, time, service)
            queueing += rho * service / (2.0 * (1.0 - rho))
        wait = int(round(queueing))
        return time + base + wait, wait

    def reset(self) -> None:
        self._link_state.clear()
        self.reset_stats()
