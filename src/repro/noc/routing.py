"""Deterministic X-Y dimension-order routing, tabulated per mesh shape.

The paper's routers "employ X-Y routing with wormhole switching" (Section 2).
X-Y routing first moves a packet along the X dimension until the destination
column is reached, then along Y.  It is deadlock-free on a mesh and is the
norm in commercial parts (Tilera, Xeon Phi), which is why the paper treats
static routing as the baseline.

Static routes never change, so they are built once: :func:`xy_routes`
returns the table ``routes[src][dst]`` -> tuple of directed ``(u, v)``
links, shared by every mesh of one shape.  A faulted machine swaps in a
table of the same shape filled from
:meth:`repro.faults.DegradedTopology.route`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

from .topology import Mesh2D

Link = Tuple[int, int]
Route = Tuple[Link, ...]
RouteTable = Tuple[Tuple[Route, ...], ...]


def _xy_route(width: int, src: int, dst: int) -> Route:
    """Links from ``src`` to ``dst``: along X first, then along Y."""
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
    nodes = range(width * height)
    return tuple(
        tuple(_xy_route(width, src, dst) for dst in nodes) for src in nodes
    )


def xy_routes(mesh: Mesh2D) -> RouteTable:
    """The X-Y route table of ``mesh``: ``routes[src][dst]`` -> links.

    A packet to itself crosses no link.  Built once per ``(width,
    height)``; every mesh of that shape shares the same table object.
    """
    return _xy_table(mesh.width, mesh.height)
