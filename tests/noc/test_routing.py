"""X-Y route table: path shape, hop counts, dimension order, sharing."""

from repro.faults import DegradedTopology, FaultPlan
from repro.noc.network import WormholeNetwork
from repro.noc.routing import _xy_table, xy_routes
from repro.noc.topology import Mesh2D
from repro.sim.config import DEFAULT_CONFIG
from repro.sim.machine import Manycore

MESH = Mesh2D(6, 6)
MESHES = (Mesh2D(6, 6), Mesh2D(8, 8), Mesh2D(1, 5))


def pairs(mesh):
    for src in mesh.nodes():
        for dst in mesh.nodes():
            yield src, dst


def path(mesh, src, dst):
    """Node ids visited from ``src`` to ``dst``, both endpoints included."""
    return [src] + [v for _, v in xy_routes(mesh)[src][dst]]


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
            for a, b in xy_routes(mesh)[src][dst]:
                assert mesh.node_distance(a, b) == 1


def test_links_match_path():
    """Links chain from ``src`` to ``dst``: each starts where the last ended."""
    for mesh in MESHES:
        for src, dst in pairs(mesh):
            nodes = path(mesh, src, dst)
            starts = [u for u, _ in xy_routes(mesh)[src][dst]]
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
    plan = FaultPlan.parse(["link:0,0->1,0:down", "router:2,2:hotspot=+4cyc"])
    net = WormholeNetwork(MESH)
    topo = DegradedTopology(MESH, plan)
    net.apply_faults(topo)
    assert net.routes is not xy_routes(MESH)
    for src, dst in pairs(MESH):
        assert net.routes[src][dst] == topo.route(src, dst)


def test_xy_asymmetry():
    """X-Y routing is not symmetric: A->B and B->A may use different links."""
    a, b = MESH.node_id((0, 0)), MESH.node_id((2, 2))
    table = xy_routes(MESH)
    fwd = set(table[a][b])
    rev = {(v, u) for (u, v) in table[b][a]}
    assert fwd != rev  # the turns happen at different corners
