"""X-Y route table: link ids, path shape, hop counts, dimension order,
sharing, and the per-route pipeline cycles."""

import pytest

from repro.faults import DegradedTopology, FaultPlan
from repro.noc.analytic import AnalyticNetwork
from repro.noc.network import WormholeNetwork
from repro.noc.routing import _xy_table, link_ends, link_id, xy_routes
from repro.noc.topology import Mesh2D
from repro.sim.config import DEFAULT_CONFIG
from repro.sim.machine import Manycore

MESH = Mesh2D(6, 6)
MESHES = (Mesh2D(6, 6), Mesh2D(8, 8), Mesh2D(1, 5))
FAULTS = ["link:0,0->1,0:down", "router:2,2:hotspot=+4cyc"]


def pairs(mesh):
    for src in mesh.nodes():
        for dst in mesh.nodes():
            yield src, dst


def links(mesh, src, dst):
    """``(u, v)`` links of the X-Y route from ``src`` to ``dst``."""
    return [link_ends(mesh, link) for link in xy_routes(mesh)[src][dst]]


def path(mesh, src, dst):
    """Node ids visited from ``src`` to ``dst``, both endpoints included."""
    return [src] + [v for _, v in links(mesh, src, dst)]


def coords(mesh, src, dst):
    return [mesh.coord(n) for n in path(mesh, src, dst)]


def test_self_route_is_trivial():
    for mesh in MESHES:
        for node in mesh.nodes():
            assert xy_routes(mesh)[node][node] == ()


def test_straight_line_route():
    src, dst = MESH.node_id((0, 2)), MESH.node_id((4, 2))
    assert coords(MESH, src, dst) == [(0, 2), (1, 2), (2, 2), (3, 2), (4, 2)]


def test_x_before_y():
    src, dst = MESH.node_id((1, 1)), MESH.node_id((3, 4))
    route = coords(MESH, src, dst)
    # X changes first while Y stays fixed, then Y changes.
    assert route[:3] == [(1, 1), (2, 1), (3, 1)]
    assert route[3:] == [(3, 2), (3, 3), (3, 4)]
    for mesh in MESHES:
        for src, dst in pairs(mesh):
            steps = coords(mesh, src, dst)
            moves = [
                "x" if a[1] == b[1] else "y" for a, b in zip(steps, steps[1:])
            ]
            assert moves == sorted(moves)


def test_negative_direction_routing():
    src, dst = MESH.node_id((4, 4)), MESH.node_id((1, 0))
    route = coords(MESH, src, dst)
    assert route[0] == (4, 4)
    assert route[-1] == (1, 0)
    assert len(route) == 1 + 3 + 4
    assert route[:4] == [(4, 4), (3, 4), (2, 4), (1, 4)]


def test_path_length_is_manhattan():
    for mesh in MESHES:
        table = xy_routes(mesh)
        for src, dst in pairs(mesh):
            assert len(table[src][dst]) == mesh.node_distance(src, dst)


def test_path_steps_are_adjacent():
    for mesh in MESHES:
        for src, dst in pairs(mesh):
            for a, b in links(mesh, src, dst):
                assert mesh.node_distance(a, b) == 1


def test_links_match_path():
    """Links chain from ``src`` to ``dst``: each starts where the last ended."""
    for mesh in MESHES:
        for src, dst in pairs(mesh):
            nodes = path(mesh, src, dst)
            starts = [u for u, _ in links(mesh, src, dst)]
            assert starts == nodes[:-1]
            assert nodes[-1] == dst


def test_deterministic():
    for mesh in MESHES:
        rebuilt = _xy_table.__wrapped__(mesh.width, mesh.height)
        assert rebuilt == xy_routes(mesh)


def test_machines_share_one_table():
    for mesh in MESHES:
        twin = Mesh2D(mesh.width, mesh.height)
        assert xy_routes(twin) is xy_routes(mesh)
    a, b = Manycore(DEFAULT_CONFIG), Manycore(DEFAULT_CONFIG)
    assert a.network.routes is b.network.routes
    assert a.network.routes is xy_routes(a.mesh)


def test_faulted_table_matches_degraded_routes():
    for mesh in MESHES[:2]:
        net = WormholeNetwork(mesh)
        topo = DegradedTopology(mesh, FaultPlan.parse(FAULTS))
        net.apply_faults(topo)
        assert net.routes is not xy_routes(mesh)
        for src, dst in pairs(mesh):
            route = topo.route(src, dst)
            assert net.routes[src][dst] == tuple(
                link_id(mesh, u, v) for u, v in route
            )
            assert [link_ends(mesh, i) for i in net.routes[src][dst]] == list(route)


def test_xy_asymmetry():
    """X-Y routing is not symmetric: A->B and B->A may use different links."""
    a, b = MESH.node_id((0, 0)), MESH.node_id((2, 2))
    fwd = set(links(MESH, a, b))
    rev = {(v, u) for (u, v) in links(MESH, b, a)}
    assert fwd != rev  # the turns happen at different corners


# -- link ids ------------------------------------------------------------
def test_link_ids_unique_and_in_range():
    for mesh in MESHES:
        ids = [link_id(mesh, u, v) for u, v in mesh.links()]
        assert len(set(ids)) == len(ids) == len(mesh.links())
        assert all(0 <= i < 4 * mesh.num_nodes for i in ids)
        for src, dst in pairs(mesh):
            assert set(xy_routes(mesh)[src][dst]) <= set(ids)


def test_link_id_round_trips():
    for mesh in MESHES:
        for u, v in mesh.links():
            assert link_ends(mesh, link_id(mesh, u, v)) == (u, v)
        valid = 0
        for i in range(4 * mesh.num_nodes):
            try:
                u, v = link_ends(mesh, i)
            except ValueError:  # a port on the mesh edge
                continue
            valid += 1
            assert i // 4 == u
            assert link_id(mesh, u, v) == i
        assert valid == len(mesh.links())


def test_link_direction_comes_from_coordinates():
    """On a 1-wide mesh a node-id stride of 1 is a Y move: the +y port."""
    column = Mesh2D(1, 5)
    assert link_id(column, 2, 3) == 4 * 2 + 2
    assert link_id(column, 3, 2) == 4 * 3 + 3
    for port in (0, 1):  # no X neighbours at all
        with pytest.raises(ValueError):
            link_ends(column, 4 * 2 + port)


def test_non_links_rejected():
    with pytest.raises(ValueError):
        link_id(MESH, 0, 2)  # two hops apart
    with pytest.raises(ValueError):
        link_id(MESH, 5, 6)  # end of one row to the start of the next
    for bad in (-1, 4 * MESH.num_nodes):
        with pytest.raises(ValueError):
            link_ends(MESH, bad)


@pytest.mark.parametrize("model", [WormholeNetwork, AnalyticNetwork])
def test_pipeline_cycles_equal_one_flit_uncontended_latency(model):
    for mesh in MESHES:
        plans = [None] if mesh.width == 1 else [None, FAULTS]
        for plan in plans:
            net = model(mesh, router_delay=3)
            if plan is not None:
                net.apply_faults(DegradedTopology(mesh, FaultPlan.parse(plan)))
            for src, dst in pairs(mesh):
                route = net.routes[src][dst]
                expected = len(route) * 4 + sum(
                    net.router_extra.get(link_ends(mesh, i)[0], 0) for i in route
                )
                assert net.route_cycles[src][dst] == expected
                assert net.uncontended_latency(src, dst, 1) == expected
