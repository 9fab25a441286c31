"""Analytic network: utilization-window bookkeeping."""

from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import DegradedTopology, FaultPlan
from repro.noc.analytic import AnalyticNetwork
from repro.noc.network import throttled_flits
from repro.noc.packet import MessageKind, Packet
from repro.noc.routing import xy_route
from repro.noc.topology import Mesh2D

MESH = Mesh2D(6, 6)


class TestWindowing:
    def test_utilization_decays_after_idle_windows(self):
        net = AnalyticNetwork(MESH, router_delay=3, window=64)
        # Saturate one link, then go idle for many windows.
        for k in range(100):
            net.transfer(Packet.data_response(0, 1, time=k, line_bytes=64))
        busy = net.transfer(
            Packet.data_response(0, 1, time=100, line_bytes=64)
        ) - 100
        idle = net.transfer(
            Packet.data_response(0, 1, time=100_000, line_bytes=64)
        ) - 100_000
        assert idle < busy

    def test_fresh_link_has_no_queueing(self):
        net = AnalyticNetwork(MESH, router_delay=3)
        arrival = net.transfer(Packet.request(7, 8, time=500))
        assert arrival - 500 == net.uncontended_latency(7, 8, 1)

    def test_contention_is_per_link(self):
        net = AnalyticNetwork(MESH, router_delay=3, window=64)
        for k in range(100):
            net.transfer(Packet.data_response(0, 1, time=k, line_bytes=64))
        # A disjoint link is unaffected by the hot one.
        far = net.transfer(Packet.request(30, 31, time=100)) - 100
        assert far == net.uncontended_latency(30, 31, 1)

    def test_queueing_bounded_by_rho_cap(self):
        """Even a saturated link yields finite (capped-rho) delays."""
        net = AnalyticNetwork(MESH, router_delay=3, window=32)
        worst = 0
        for k in range(500):
            latency = net.transfer(
                Packet.data_response(0, 1, time=k, line_bytes=64)
            ) - k
            worst = max(worst, latency)
        base = net.uncontended_latency(0, 1, 5)
        # rho cap 0.95 -> wait <= 0.95*5/(2*0.05) = 47.5 per link.
        assert base < worst <= base + 48

    def test_reset_clears_windows(self):
        net = AnalyticNetwork(MESH, window=64)
        for k in range(100):
            net.transfer(Packet.data_response(0, 1, time=k, line_bytes=64))
        net.reset()
        arrival = net.transfer(Packet.request(0, 1, time=0))
        assert arrival == net.uncontended_latency(0, 1, 1)


# -- differential check against the dict-based model -------------------------
class ReferenceAnalytic:
    """The analytic model as it was before link ids: ``(u, v)`` links and a
    dict of ``(window index, flits, previous rho)`` tuples, with ``min`` and
    ``max`` doing the blending.  The array-backed model must match it."""

    def __init__(self, mesh, topo, router_delay, window):
        self.route = topo.route if topo else partial(xy_route, mesh)
        self.extra = topo.router_extra if topo else {}
        self.throttle = topo.link_throttle if topo else {}
        self.delay, self.window = router_delay, window
        self.state = {}

    def utilization(self, link, time, flits):
        widx = time // self.window
        cur_idx, cur_flits, prev_rho = self.state.get(link, (widx, 0, 0.0))
        if widx > cur_idx:
            prev_rho = cur_flits / self.window if widx == cur_idx + 1 else 0.0
            cur_idx, cur_flits = widx, 0
        cur_flits += flits
        self.state[link] = (cur_idx, cur_flits, prev_rho)
        return min(max(prev_rho, min(1.0, cur_flits / self.window)), 0.95)

    def transfer(self, src, dst, flits, time):
        """(tail arrival, queueing cycles)."""
        if src == dst:
            return time, 0
        links = self.route(src, dst)
        base = len(links) * (self.delay + 1) + (flits - 1)
        queueing = 0.0
        for link in links:
            base += self.extra.get(link[0], 0)
            factor = self.throttle.get(link)
            service = flits if factor is None else throttled_flits(flits, factor)
            rho = self.utilization(link, time, service)
            queueing += rho * service / (2.0 * (1.0 - rho))
        wait = int(round(queueing))
        return time + base + wait, wait


SMALL = Mesh2D(4, 4)
WINDOW = 16
FAULT_SPECS = [
    "link:0,0->1,0:throttle=0.5",
    "link:1,1->1,2:throttle=0.3",
    "link:2,1->3,1:down",
    "router:1,0:hotspot=+5cyc",
    "router:2,2:hotspot=+2cyc",
]
# Gaps between consecutive injections: back-to-back, inside one window,
# exactly one window (the next window opens), and several idle windows.
GAPS = st.sampled_from([0, 1, 3, WINDOW, WINDOW + 1, 3 * WINDOW, 7 * WINDOW + 5])
PACKETS = st.lists(
    st.tuples(
        st.integers(0, SMALL.num_nodes - 1),
        st.integers(0, SMALL.num_nodes - 1),
        st.sampled_from([1, 2, 5, 9]),
        GAPS,
        # Injected up to two windows before the latest packet: out of order,
        # possibly into a window the link has already closed.
        st.integers(-2 * WINDOW, 0),
    ),
    min_size=1,
    max_size=80,
)


@pytest.mark.parametrize("faulted", [False, True])
@given(packets=PACKETS)
@settings(max_examples=60, deadline=None)
def test_matches_dict_reference_packet_by_packet(faulted, packets):
    topo = (
        DegradedTopology(SMALL, FaultPlan.parse(FAULT_SPECS)) if faulted else None
    )
    net = AnalyticNetwork(SMALL, router_delay=3, window=WINDOW)
    if topo is not None:
        net.apply_faults(topo)
    reference = ReferenceAnalytic(SMALL, topo, router_delay=3, window=WINDOW)
    clock = 0
    for src, dst, flits, gap, skew in packets:
        clock += gap
        time = max(0, clock + skew)
        before = net.stats.total_queueing
        arrival = net.transfer(Packet(src, dst, MessageKind.CONTROL, flits, time))
        assert (arrival, net.stats.total_queueing - before) == reference.transfer(
            src, dst, flits, time
        )
