"""Interconnection network substrate.

A 2-D wormhole-routed synchronous mesh with two independent
subnetworks (requests and replies, as in the paper's architecture), XY
routing, per-directed-link contention, and the logical injection ring
that the ECP maps onto the physical mesh.
"""

from repro.network.topology import Mesh, Subnet
from repro.network.fabric import MeshFabric
from repro.network.ring import LogicalRing
from repro.network.message import Message, MessageKind
from repro.network.transport import (
    DeliveryFate,
    LinkFaultModel,
    ReliableTransport,
)

__all__ = [
    "Mesh",
    "Subnet",
    "MeshFabric",
    "LogicalRing",
    "Message",
    "MessageKind",
    "DeliveryFate",
    "LinkFaultModel",
    "ReliableTransport",
]
