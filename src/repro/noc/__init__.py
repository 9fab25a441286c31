"""On-chip network: mesh topology, X-Y routing, wormhole + analytic models."""

from .analytic import AnalyticNetwork
from .network import BaseNetwork, NetworkStats, WormholeNetwork
from .packet import (
    CONTROL_FLITS,
    FLIT_BYTES,
    MessageKind,
    Packet,
    flits_for_payload,
)
from .routing import link_ends, link_id, xy_routes
from .topology import (
    Coord,
    MCPlacement,
    MemoryControllerInfo,
    Mesh2D,
    default_mesh,
)

__all__ = [
    "AnalyticNetwork",
    "BaseNetwork",
    "NetworkStats",
    "WormholeNetwork",
    "CONTROL_FLITS",
    "FLIT_BYTES",
    "MessageKind",
    "Packet",
    "flits_for_payload",
    "link_ends",
    "link_id",
    "xy_routes",
    "Coord",
    "MCPlacement",
    "MemoryControllerInfo",
    "Mesh2D",
    "default_mesh",
]
