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

Per-link window state lives in three flat lists indexed by link id (see
:mod:`repro.noc.routing`): the link's current window index, the flits it
has carried in that window, and the utilization of the window before.  The
pipeline term is read from the network's per-route cycle table, so the
per-hop loop only updates window state and sums the queueing delay.

The wormhole model in :mod:`repro.noc.network` is the reference; unit tests
check the analytic model tracks it on random traffic.
"""

from __future__ import annotations

from typing import List, Tuple

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
        self._clear_windows()

    def _clear_windows(self) -> None:
        """Forget every link's traffic."""
        links = 4 * self.mesh.num_nodes
        # Per link id: the window it is accumulating (-1: none yet; inject
        # times are non-negative, so the first packet closes it as an empty
        # window), the flits carried in it, and the utilization of the
        # window before.
        self._window_index: List[int] = [-1] * links
        self._window_flits: List[int] = [0] * links
        self._prev_rho: List[float] = [0.0] * links

    def _transfer(self, packet: Packet, links: Route) -> Tuple[int, int]:
        # Throttled links inflate both the utilization sample and the
        # service time in the M/D/1 numerator, mirroring the wormhole
        # model's longer link reservation; hotspot routers are in the
        # route's pipeline cycles.
        flits = packet.num_flits
        time = packet.inject_time
        window = self.window
        throttle = self.link_throttle
        window_index = self._window_index
        window_flits = self._window_flits
        prev_rho = self._prev_rho
        max_rho = _MAX_RHO
        widx = time // window
        queueing = 0.0
        for link in links:
            factor = throttle[link]
            service = flits if factor is None else throttled_flits(flits, factor)
            cur_idx = window_index[link]
            if widx > cur_idx:
                # Close the finished window; windows with no traffic in
                # between mean the previous utilization has decayed to zero.
                prev = window_flits[link] / window if widx == cur_idx + 1 else 0.0
                prev_rho[link] = prev
                window_index[link] = widx
                cur_flits = service
            else:
                # The link's current window -- also when this packet was
                # injected in an earlier one.
                prev = prev_rho[link]
                cur_flits = window_flits[link] + service
            window_flits[link] = cur_flits
            # Blend the closed window with the partially filled current one,
            # capped: min(max(prev, min(1, partial)), max_rho) -- the cap
            # below 1 makes the inner min a no-op, so it is left out.
            rho = cur_flits / window
            if prev >= rho:
                rho = prev
            if rho > max_rho:
                rho = max_rho
            queueing += rho * service / (2.0 * (1.0 - rho))
        wait = int(round(queueing))
        return (
            time + self.route_cycles[packet.src][packet.dst] + (flits - 1) + wait,
            wait,
        )

    def reset(self) -> None:
        self._clear_windows()
        self.reset_stats()
