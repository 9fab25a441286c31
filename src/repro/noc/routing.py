"""Deterministic X-Y dimension-order routing, tabulated per mesh shape.

The paper's routers "employ X-Y routing with wormhole switching" (Section 2).
X-Y routing first moves a packet along the X dimension until the destination
column is reached, then along Y.  It is deadlock-free on a mesh and is the
norm in commercial parts (Tilera, Xeon Phi), which is why the paper treats
static routing as the baseline.

Links are named by integer ids: the link leaving node ``u`` through output
port ``p`` (``+x``, ``-x``, ``+y``, ``-y``, in that order) has id
``4*u + p``, so every directed mesh link has a distinct id in ``[0, 4N)``
and per-link state fits in flat lists.  :func:`link_id` and
:func:`link_ends` convert between ids and ``(u, v)`` node pairs.

Static routes never change, so they are built once: :func:`xy_routes`
returns the table ``routes[src][dst]`` -> tuple of link ids, shared by every
mesh of one shape.  A faulted machine swaps in a table of the same shape
filled from :meth:`repro.faults.DegradedTopology.route`.
:func:`pipeline_cycles` tabulates each route's uncontended router pipeline.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Mapping, Optional, Tuple

from .topology import Mesh2D

Link = Tuple[int, int]
Route = Tuple[int, ...]
RouteTable = Tuple[Tuple[Route, ...], ...]
CycleTable = Tuple[Tuple[int, ...], ...]

# (dx, dy) of the output ports, in link-id order.
_PORTS = ((1, 0), (-1, 0), (0, 1), (0, -1))


@lru_cache(maxsize=None)
def _link_ends(width: int, height: int) -> Tuple[Optional[Link], ...]:
    """``(u, v)`` of every id in ``[0, 4N)``; None where the port leaves
    the mesh.  Directions come from coordinates: on a 1-wide mesh a
    node-id stride of 1 is a Y move."""
    ends = []
    for u in range(width * height):
        x, y = u % width, u // width
        for dx, dy in _PORTS:
            vx, vy = x + dx, y + dy
            inside = 0 <= vx < width and 0 <= vy < height
            ends.append((u, vy * width + vx) if inside else None)
    return tuple(ends)


@lru_cache(maxsize=None)
def _link_ids(width: int, height: int) -> Dict[Link, int]:
    return {
        link: index
        for index, link in enumerate(_link_ends(width, height))
        if link is not None
    }


def link_endpoints(mesh: Mesh2D) -> Tuple[Optional[Link], ...]:
    """``ends[id]`` -> ``(u, v)`` for every link id of ``mesh`` (None for
    the ids of ports on the mesh edge)."""
    return _link_ends(mesh.width, mesh.height)


def link_id(mesh: Mesh2D, u: int, v: int) -> int:
    """Id of the directed link ``u -> v``; they must be mesh neighbours."""
    try:
        return _link_ids(mesh.width, mesh.height)[(u, v)]
    except KeyError:
        raise ValueError(f"no mesh link from node {u} to node {v}") from None


def link_ends(mesh: Mesh2D, link: int) -> Link:
    """``(u, v)`` of link id ``link``."""
    ends = link_endpoints(mesh)
    if 0 <= link < len(ends) and ends[link] is not None:
        return ends[link]
    raise ValueError(f"{link} is not a link id of a {mesh.width}x{mesh.height} mesh")


def xy_route(mesh: Mesh2D, src: int, dst: int) -> Tuple[Link, ...]:
    """``(u, v)`` links from ``src`` to ``dst``: along X first, then Y."""
    width = mesh.width
    x, y = src % width, src // width
    dx, dy = dst % width, dst // width
    # Node-id strides: +-1 moves along X, +-width along Y.
    steps = [1 if dx > x else -1] * abs(dx - x)
    steps += [width if dy > y else -width] * abs(dy - y)
    links = []
    node = src
    for step in steps:
        links.append((node, node + step))
        node += step
    return tuple(links)


@lru_cache(maxsize=None)
def _xy_table(width: int, height: int) -> RouteTable:
    mesh = Mesh2D(width, height)
    ids = _link_ids(width, height)
    nodes = range(width * height)
    return tuple(
        tuple(
            tuple(ids[link] for link in xy_route(mesh, src, dst))
            for dst in nodes
        )
        for src in nodes
    )


def xy_routes(mesh: Mesh2D) -> RouteTable:
    """The X-Y route table of ``mesh``: ``routes[src][dst]`` -> link ids.

    A packet to itself crosses no link.  Built once per ``(width,
    height)``; every mesh of that shape shares the same table object.
    """
    return _xy_table(mesh.width, mesh.height)


def pipeline_cycles(
    routes: RouteTable, router_delay: int, router_extra: Mapping[int, int]
) -> CycleTable:
    """``cycles[src][dst]``: the router pipeline of each route on an empty
    network -- ``router_delay + 1`` per hop, plus the hotspot cycles of
    every router a hop leaves (a link id's upstream node is ``id // 4``)."""
    hop = router_delay + 1
    return tuple(
        tuple(
            len(route) * hop + sum(router_extra.get(link // 4, 0) for link in route)
            for route in row
        )
        for row in routes
    )
