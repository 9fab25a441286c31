"""Injection hooks: degraded routing, re-hash/re-interleave, throttles."""

import numpy as np
import pytest

from repro.faults import (
    DegradedDistribution,
    DegradedTopology,
    FaultPlan,
    FaultPlanError,
)
from repro.noc.network import WormholeNetwork
from repro.noc.packet import MessageKind, Packet
from repro.noc.routing import link_id, xy_route, xy_routes
from repro.sim.config import DEFAULT_CONFIG
from repro.sim.machine import Manycore

MESH = DEFAULT_CONFIG.build_mesh()


class TestDegradedTopology:
    def test_pristine_plan_keeps_xy_routes(self):
        topo = DegradedTopology(MESH, FaultPlan.parse(["bank:0:offline"]))
        for src, dst in ((0, 35), (7, 12), (30, 5)):
            assert topo.route(src, dst) == xy_route(MESH, src, dst)
            assert topo.distance_units(src, dst) == MESH.node_distance(src, dst)

    def test_detour_avoids_down_link_and_arrives(self):
        plan = FaultPlan.parse(["link:0,0->1,0:down"])
        topo = DegradedTopology(MESH, plan)
        src, dst = MESH.node_id((0, 0)), MESH.node_id((3, 0))
        route = topo.route(src, dst)
        down = (MESH.node_id((0, 0)), MESH.node_id((1, 0)))
        assert down not in route
        # Contiguous and cycle-free, ending at the destination.
        nodes = [src] + [link[1] for link in route]
        assert all(
            route[i][1] == route[i + 1][0] for i in range(len(route) - 1)
        )
        assert nodes[-1] == dst
        assert len(set(nodes)) == len(nodes)
        assert topo.distance_units(src, dst) > MESH.node_distance(src, dst)

    def test_disconnection_raises(self):
        # Cut all four links around the (0, 0) corner node.
        plan = FaultPlan.parse([
            "link:0,0->1,0:down", "link:1,0->0,0:down",
            "link:0,0->0,1:down", "link:0,1->0,0:down",
        ])
        topo = DegradedTopology(MESH, plan)
        assert not topo.is_connected()
        assert topo.unreachable_pairs()
        with pytest.raises(FaultPlanError):
            topo.route(MESH.node_id((0, 0)), MESH.node_id((3, 0)))
        # The network tabulates every route up front, so the machine
        # refuses the plan when it is built.
        with pytest.raises(FaultPlanError):
            Manycore(DEFAULT_CONFIG, faults=plan)

    def test_throttled_link_costs_more(self):
        plan = FaultPlan.parse(["link:0,0->1,0:throttle=0.5"])
        topo = DegradedTopology(MESH, plan)
        assert topo.edge_cost(0, 1) == 2 * topo.edge_cost(1, 2)
        # A 5-flit worm holds the half-speed link for 10 cycles from when
        # its head is ready (cycle 3), the healthy next link for 5 (cycle 7).
        net = WormholeNetwork(MESH, router_delay=3)
        net.apply_faults(topo)
        net.transfer(Packet(0, 2, MessageKind.DATA_RESPONSE, 5, 0))
        assert net.link_busy_until((0, 1)) == 3 + 10
        assert net.link_busy_until((1, 2)) == 7 + 5

    def test_offline_mc_unreachable_others_throttle(self):
        plan = FaultPlan.parse(["mc:0:offline", "mc:1:throttle=0.5"])
        topo = DegradedTopology(MESH, plan)
        assert topo.mc_distance_units(14, 0) == float("inf")
        base = topo.distance_units(14, MESH.mc_node(2))
        assert topo.mc_distance_units(14, 2) == base
        assert topo.online_mcs() == [1, 2, 3]
        assert topo.nearest_online_mc(0) != 0


class TestDegradedDistribution:
    def test_offline_bank_receives_nothing(self):
        base = DEFAULT_CONFIG.build_distribution()
        plan = FaultPlan.parse(["bank:12:offline"])
        dist = DegradedDistribution.from_plan(base, plan)
        addrs = np.arange(0, 1 << 22, 4096, dtype=np.int64)
        banks = dist.bank_of_batch(addrs)
        assert 12 not in set(banks.tolist())

    def test_scalar_matches_batch(self):
        base = DEFAULT_CONFIG.build_distribution()
        plan = FaultPlan.parse(["bank:3:offline", "mc:2:offline"])
        dist = DegradedDistribution.from_plan(base, plan)
        addrs = np.arange(0, 1 << 21, 8192, dtype=np.int64)
        assert [dist.bank_of(int(a)) for a in addrs] == \
            dist.bank_of_batch(addrs).tolist()
        assert [dist.mc_of(int(a)) for a in addrs] == \
            dist.mc_of_batch(addrs).tolist()

    def test_no_offline_faults_returns_base_unchanged(self):
        base = DEFAULT_CONFIG.build_distribution()
        plan = FaultPlan.parse(["mc:1:throttle=0.5", "router:2,2:hotspot=+2cyc"])
        assert DegradedDistribution.from_plan(base, plan) is base
        assert DegradedDistribution.from_plan(base, None) is base
        assert DegradedDistribution.from_plan(base, FaultPlan.empty()) is base

    def test_all_banks_offline_rejected(self):
        base = DEFAULT_CONFIG.build_distribution()
        specs = [f"bank:{b}:offline" for b in range(MESH.num_nodes)]
        with pytest.raises(FaultPlanError):
            DegradedDistribution.from_plan(base, FaultPlan.parse(specs))


class TestMachineWiring:
    def test_machine_applies_throttles_and_remaps(self):
        plan = FaultPlan.parse(
            ["mc:1:throttle=0.5", "bank:12:offline", "link:3,4->4,4:down",
             "link:1,1->2,1:throttle=0.5"]
        )
        machine = Manycore(DEFAULT_CONFIG, faults=plan)
        assert machine.fault_plan is plan
        assert machine.degraded is not None
        assert machine.mcs[1].throttle == 0.5
        assert machine.mcs[0].throttle == 1.0
        network = machine.network
        mesh = machine.mesh
        assert network.router_extra is machine.degraded.router_extra
        throttled = {
            link_id(mesh, u, v): factor
            for (u, v), factor in machine.degraded.link_throttle.items()
        }
        assert {
            link: factor
            for link, factor in enumerate(network.link_throttle)
            if factor is not None
        } == throttled == {link_id(mesh, 7, 8): 0.5}
        for src in mesh.nodes():
            for dst in mesh.nodes():
                assert network.routes[src][dst] == tuple(
                    link_id(mesh, u, v)
                    for u, v in machine.degraded.route(src, dst)
                )
        assert machine.distribution.bank_of(12 * DEFAULT_CONFIG.page_bytes) != 12

    def test_empty_plan_is_pristine(self):
        machine = Manycore(DEFAULT_CONFIG, faults=FaultPlan.empty())
        assert machine.fault_plan is None
        assert machine.degraded is None
        assert machine.network.routes is xy_routes(machine.mesh)
        assert machine.network.router_extra == {}
        assert set(machine.network.link_throttle) == {None}

    def test_mc_throttle_slows_controller(self):
        pristine = Manycore(DEFAULT_CONFIG)
        throttled = Manycore(
            DEFAULT_CONFIG, faults=FaultPlan.parse(["mc:0:throttle=0.25"])
        )
        addr = 0
        t_pristine = pristine.mcs[0].access(addr, 1000)
        t_throttled = throttled.mcs[0].access(addr, 1000)
        assert t_throttled > t_pristine
