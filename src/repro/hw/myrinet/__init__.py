"""Myrinet fabric: links, switches, packets, CRC, topology.

Models the properties the paper relies on (section 3):

* point-to-point links delivering 1.28 Gb/s (160 MB/s) each direction,
* source routing — the packet carries one route byte per switch hop,
  consumed on the way (we keep consumed bytes accounted for sizing),
* cut-through (wormhole) switching with a sub-microsecond per-hop latency,
* in-order delivery on any fixed route,
* hardware CRC-8 appended on send and checked on arrival, with a very low
  bit error rate; errors are *detected but not recovered* (section 4.2),
* back-pressure flow control (a busy output port holds the worm).

Fabrics beyond the paper's testbed come from the declarative topology
layer (:mod:`repro.hw.myrinet.topology`): fat-tree/Clos and 2-D
mesh/torus generators with per-topology deadlock-free source routing,
proven cycle-free by a channel-dependency-graph check when the mapping
phase boots the fabric.
"""

from repro.hw.myrinet.crc import crc8
from repro.hw.myrinet.packet import MyrinetPacket, PacketHeader
from repro.hw.myrinet.link import Link, LinkParams
from repro.hw.myrinet.switch import PortRangeError, Switch
from repro.hw.myrinet.network import MyrinetNetwork, PortRef, natural_key
from repro.hw.myrinet.topology import (
    DualSwitchSpec,
    FatTreeSpec,
    MeshSpec,
    RoutingDeadlockError,
    SingleSwitchSpec,
    TopologyError,
    TopologySpec,
)

__all__ = [
    "DualSwitchSpec",
    "FatTreeSpec",
    "Link",
    "LinkParams",
    "MeshSpec",
    "MyrinetNetwork",
    "MyrinetPacket",
    "PacketHeader",
    "PortRangeError",
    "PortRef",
    "RoutingDeadlockError",
    "SingleSwitchSpec",
    "Switch",
    "TopologyError",
    "TopologySpec",
    "crc8",
    "natural_key",
]
