"""The three DMA engines on the Myrinet PCI interface (paper section 3).

* :class:`HostDMAEngine` — moves bytes between host main memory (by
  physical address) and LANai SRAM across the PCI bus.  This is the
  bandwidth bottleneck of the whole system (Figure 1): with virtual memory
  forcing ≤4 KB transfer units it sustains ≈100 MB/s.
* :class:`NetSendEngine` — streams a packet from SRAM onto the outgoing
  link at 160 MB/s.
* :class:`NetRecvEngine` — receives packets from the link into SRAM
  staging buffers and queues their descriptors for the LCP.

Each engine serialises its own transfers (capacity-1 resource) but the
three engines run concurrently — the internal bus is clocked at twice the
processor, "letting the two DMA engines operate concurrently".

An engine operation is a **generator**: ``yield from`` it to wait for the
transfer, or hand it to ``env.process(...)`` — once, at the call site —
when the caller carries on while the engine works.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.sim import Environment, Resource, Store
from repro.sim.trace import emit
from repro.obs.metrics import counter, gauge
from repro.mem.physical import PhysicalMemory
from repro.hw.bus.pci import PCIBus
from repro.hw.lanai.sram import SRAM
from repro.hw.myrinet.network import MyrinetNetwork
from repro.hw.myrinet.packet import MyrinetPacket


class HostDMAEngine:
    """Host-memory ↔ SRAM DMA over the PCI bus.

    The LANai cannot touch host memory directly; every access goes through
    this engine (paper section 3).  Transfers move real bytes.
    """

    def __init__(self, env: Environment, bus: PCIBus,
                 host_memory: PhysicalMemory, sram: SRAM,
                 name: str = "lanai"):
        self.env = env
        self.bus = bus
        self.host_memory = host_memory
        self.sram = sram
        self.name = name
        self._engine = Resource(env, capacity=1)
        self._queue_depth = gauge(env, "hostdma.queue_depth", nic=name)
        self._bytes_to_sram = counter(env, "hostdma.bytes", nic=name,
                                      dir="to_sram")
        self._bytes_to_host = counter(env, "hostdma.bytes", nic=name,
                                      dir="to_host")
        self.bytes_to_sram = 0
        self.bytes_to_host = 0

    def to_sram(self, paddr: int, sram_addr: int, nbytes: int):
        """Generator: DMA ``nbytes`` host→SRAM; returns when data is in
        SRAM."""
        self._queue_depth.set(self._engine.queue_length)
        with self._engine.request() as req:
            yield req
            yield from self.bus.dma(nbytes)
            self.sram.view(sram_addr, nbytes)[:] = \
                self.host_memory.view(paddr, nbytes)
            self.bytes_to_sram += nbytes
            self._bytes_to_sram.inc(nbytes)
            emit(self.env, f"{self.name}.hostdma.to_sram",
                 paddr=paddr, nbytes=nbytes)

    def to_host(self, sram_addr: int, paddr: int, nbytes: int):
        """Generator: DMA ``nbytes`` SRAM→host memory."""
        with self._engine.request() as req:
            yield req
            yield from self.bus.dma(nbytes)
            self.host_memory.view(paddr, nbytes)[:] = \
                self.sram.view(sram_addr, nbytes)
            self.host_memory.notify_write(paddr, nbytes)
            self.bytes_to_host += nbytes
            self._bytes_to_host.inc(nbytes)
            emit(self.env, f"{self.name}.hostdma.to_host",
                 paddr=paddr, nbytes=nbytes)

    def write_host(self, data: np.ndarray, paddr: int):
        """Generator: DMA the given bytes (already staged in SRAM by the
        receive engine) to host memory at ``paddr``."""
        payload = np.asarray(data, dtype=np.uint8)
        nbytes = int(payload.size)
        self._queue_depth.set(self._engine.queue_length)
        with self._engine.request() as req:
            yield req
            yield from self.bus.dma(nbytes)
            self.host_memory.view(paddr, nbytes)[:] = payload
            self.host_memory.notify_write(paddr, nbytes)
            self.bytes_to_host += nbytes
            self._bytes_to_host.inc(nbytes)
            emit(self.env, f"{self.name}.hostdma.write_host",
                 paddr=paddr, nbytes=nbytes)

    def write_host_scatter(self, data: np.ndarray,
                           extents: list[tuple[int, int]]):
        """Generator: deliver staged receive data to up to two physical
        extents — the section-4.5 two-piece scatter."""
        payload = np.asarray(data, dtype=np.uint8)
        offset = 0
        for paddr, length in extents:
            if length == 0:
                continue
            yield from self.write_host(payload[offset:offset + length],
                                       paddr)
            offset += length

    def scatter_to_host(self, sram_addr: int,
                        extents: list[tuple[int, int]]):
        """Generator: write SRAM bytes to up to two physical extents.

        This is the receive-side "two piece scatter" of section 4.5 — a
        message landing across a page boundary is written with two DMA
        transactions, addresses taken from the packet header.
        """
        offset = 0
        for paddr, length in extents:
            if length == 0:
                continue
            yield from self.to_host(sram_addr + offset, paddr, length)
            offset += length

    @property
    def queue_length(self) -> int:
        return self._engine.queue_length


class NetSendEngine:
    """SRAM → network DMA: injects sealed packets onto the host's cable."""

    def __init__(self, env: Environment, network: MyrinetNetwork,
                 host_name: str):
        self.env = env
        self.network = network
        self.host_name = host_name
        self._engine = Resource(env, capacity=1)
        self._packets_sent = counter(env, "net.packets", nic=host_name,
                                     dir="tx")
        self.packets_sent = 0

    def send(self, packet: MyrinetPacket):
        """Generator: seal (hardware CRC) and transmit one packet.

        Returns when the packet's tail has left the NIC — the point at
        which the SRAM staging buffer is reusable.  The engine streams
        autonomously of the LANai, so the LCP runs this as its own
        process (``env.process(net_send.send(packet))``).
        """
        with self._engine.request() as req:
            yield req
            packet.seal()
            yield self.network.inject(self.host_name, packet)
            self.packets_sent += 1
            self._packets_sent.inc()
            emit(self.env, "lanai.netsend", nic=self.host_name,
                 nbytes=packet.payload_bytes)


class NetRecvEngine:
    """Network → SRAM DMA: the host sink registered with the fabric.

    Arriving packets have their CRC checked by hardware; good or bad, a
    descriptor is queued for the LCP (bad CRC sets a flag — the LCP
    reports it and drops, matching the no-recovery policy of section 4.2).
    """

    def __init__(self, env: Environment, network: MyrinetNetwork,
                 host_name: str, sram: SRAM,
                 staging_region_name: str = "recv_staging"):
        self.env = env
        self.sram = sram
        self.host_name = host_name
        self.inbox: Store = Store(env)
        self.packets_received = 0
        self.crc_errors = 0
        self._packets_received = counter(env, "net.packets", nic=host_name,
                                         dir="rx")
        self._crc_errors = counter(env, "net.crc_errors", nic=host_name)
        #: Optional hook invoked on every arrival (the LCP's wakeup line).
        self.on_arrival = None
        network.attach_host_sink(host_name, self._on_packet)

    def _on_packet(self, packet: MyrinetPacket):
        ok = packet.crc_ok()
        if not ok:
            self.crc_errors += 1
            self._crc_errors.inc()
        self.packets_received += 1
        self._packets_received.inc()
        emit(self.env, "lanai.netrecv", nic=self.host_name,
             nbytes=packet.payload_bytes, ok=ok)
        packet.meta["crc_ok"] = ok
        self.inbox.put(packet)
        if self.on_arrival is not None:
            self.on_arrival()

    def pending(self) -> int:
        """Packets waiting for the LCP — polled by the main loop."""
        return len(self.inbox)
