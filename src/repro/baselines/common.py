"""Shared scaffolding for the baseline protocols.

Every baseline runs on the same simulated parts as VMMC: a two-node
single-switch Myrinet with LANai NICs on PCI buses.  A
:class:`ProtocolPair` builds that substrate; each protocol subclass wires
its own firmware loop and exposes ``send``/latency/bandwidth drivers with
a common shape so the section-7 bench can sweep them uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim import Environment, Store
from repro.mem.buffers import UserBuffer
from repro.mem.physical import PhysicalMemory
from repro.mem.virtual import AddressSpace
from repro.hw.bus.membus import MemoryBus
from repro.hw.bus.pci import PCIBus
from repro.hw.lanai.nic import LanaiNIC
from repro.hw.myrinet import topology
from repro.hw.myrinet.packet import BaselineHeader, MyrinetPacket


@dataclass
class ProtocolNode:
    """One host running a baseline protocol."""

    name: str
    index: int
    memory: PhysicalMemory
    space: AddressSpace
    bus: PCIBus
    membus: MemoryBus
    nic: LanaiNIC


class ProtocolPair:
    """Two nodes + fabric; subclasses add the protocol firmware."""

    #: Subclasses set a human-readable protocol name.
    protocol = "base"

    def __init__(self, memory_mb: int = 16,
                 env: Environment | None = None):
        self.env = env or Environment()
        # Unmapped, and needs no deadlock proof: on one switch a route
        # is a host's uplink then a host's downlink, which requests
        # nothing further, so the dependency graph has no cycle.
        self.fabric = topology.build(topology.SingleSwitchSpec(nhosts_=2),
                                     self.env)
        self.nodes: list[ProtocolNode] = []
        for i in range(2):
            name = f"node{i}"
            memory = PhysicalMemory(memory_mb * 1024 * 1024,
                                    reserved_frames=32)
            bus = PCIBus(self.env, name=f"{name}.pci")
            node = ProtocolNode(
                name=name, index=i, memory=memory,
                space=AddressSpace(memory, name=f"{name}.app"),
                bus=bus, membus=MemoryBus(self.env),
                nic=LanaiNIC(self.env, self.fabric, name, bus, memory))
            self.nodes.append(node)
        self.routes = {
            (a.index, b.index): self.fabric.compute_route(a.name, b.name)
            for a in self.nodes for b in self.nodes if a is not b
        }
        self._start_firmware()

    # -- protocol hooks ---------------------------------------------------------
    def _start_firmware(self) -> None:
        """Subclasses start per-NIC firmware processes here."""

    def send(self, src_index: int, payload_buffer: UserBuffer,
             nbytes: int):
        """Process: protocol send of ``nbytes`` to the peer node."""
        raise NotImplementedError

    def deliveries(self, dst_index: int) -> Store:
        """Store of delivered (seq, nbytes) records at the destination."""
        raise NotImplementedError

    # -- shared helpers ------------------------------------------------------------
    def make_packet(self, src_index: int, header: BaselineHeader,
                    payload) -> MyrinetPacket:
        dst = 1 - src_index
        return MyrinetPacket(self.routes[(src_index, dst)], header,
                             payload)

    def alloc(self, index: int, nbytes: int) -> UserBuffer:
        return UserBuffer.alloc(self.nodes[index].space, nbytes)

    # -- uniform measurement drivers -------------------------------------------------
    def pingpong_latency_us(self, size: int, iterations: int = 10) -> float:
        """One-way latency via request/response alternation."""
        env = self.env
        result = {}

        def side_a():
            start = env.now
            buf = self.alloc(0, max(size, 4096))
            inbox = self.deliveries(0)
            for i in range(iterations):
                yield self.send(0, buf, size)
                yield inbox.get()
            result["elapsed"] = env.now - start

        def side_b():
            buf = self.alloc(1, max(size, 4096))
            inbox = self.deliveries(1)
            for i in range(iterations):
                yield inbox.get()
                yield self.send(1, buf, size)

        done = env.process(side_a())
        env.process(side_b())
        env.run(until=done)
        return result["elapsed"] / (2 * iterations) / 1000.0

    def pingpong_bandwidth_mbps(self, size: int,
                                iterations: int = 6) -> float:
        lat_us = self.pingpong_latency_us(size, iterations)
        return size / lat_us if lat_us else 0.0

    def oneway_bandwidth_mbps(self, size: int, iterations: int = 8) -> float:
        """Pipelined one-way stream (PM's 'peak pipelined bandwidth')."""
        env = self.env
        result = {}

        def sender():
            buf = self.alloc(0, max(size, 4096))
            for i in range(iterations):
                yield self.send(0, buf, size)

        def receiver():
            inbox = self.deliveries(1)
            yield inbox.get()
            start = env.now
            for _ in range(iterations - 1):
                yield inbox.get()
            result["elapsed"] = env.now - start

        env.process(sender())
        done = env.process(receiver())
        env.run(until=done)
        return size * (iterations - 1) / result["elapsed"] * 1000.0
