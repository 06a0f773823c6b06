"""The three DMA engines on the Myrinet PCI interface (paper section 3).

* :class:`HostDMAEngine` — moves bytes between host main memory (by
  physical address) and LANai SRAM across the PCI bus.  This is the
  bandwidth bottleneck of the whole system (Figure 1): with virtual memory
  forcing ≤4 KB transfer units it sustains ≈100 MB/s.
* :class:`NetSendEngine` — streams a packet from SRAM onto the outgoing
  link at 160 MB/s.
* :class:`NetRecvEngine` — receives packets from the link into SRAM
  staging buffers and queues their descriptors for the LCP.

Each engine serialises its own transfers (a capacity-1
:class:`~repro.sim.server.Server`) but the three engines run concurrently
— the internal bus is clocked at twice the processor, "letting the two
DMA engines operate concurrently".

An engine operation is a **plain call**, not a process: it queues for
its engine and returns the event fired when the transfer ends.  Once
granted, a host-DMA transfer takes a hold of the PCI bus; when the hold
ends, the bus is released, then the engine copies the bytes, tells the
memory (``notify_write``), emits, counts and releases itself, and then
the caller's waiters run — all in the dispatch of that one event, which
is what the operation returns (a queued operation returns a stand-in
fired in place there).  ``yield`` the event to wait for the transfer, or
keep it and carry on while the engine works.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.sim import Environment, Event, Server
from repro.sim.trace import emit
from repro.obs.metrics import UNSET, Gauge
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
        self._engine = Server(env)
        self.bytes_to_sram = 0
        self.bytes_to_host = 0
        self.transfers_to_sram = 0
        self.transfers_to_host = 0
        #: Waiting operations at each call, while a registry is installed.
        self.queue_depth = Gauge(UNSET)
        env.collectors.append(self._collect)

    def _collect(self):
        nic = self.name
        yield "gauge", "hostdma.queue_depth", {"nic": nic}, self.queue_depth
        yield ("counter", "hostdma.bytes", {"nic": nic, "dir": "to_sram"},
               (self.bytes_to_sram, self.transfers_to_sram))
        yield ("counter", "hostdma.bytes", {"nic": nic, "dir": "to_host"},
               (self.bytes_to_host, self.transfers_to_host))

    def to_sram(self, paddr: int, sram_addr: int, nbytes: int) -> Event:
        """DMA ``nbytes`` host→SRAM; the event fires when the data is in
        SRAM."""
        if self.env.metrics is not None:
            self.queue_depth.set(len(self._engine._waiting))
        return self._engine.serve(self._to_sram, paddr, sram_addr, nbytes)

    def _to_sram(self, paddr: int, sram_addr: int, nbytes: int) -> Event:
        env = self.env

        def landed(_hold):
            self.sram.view(sram_addr, nbytes)[:] = \
                self.host_memory.view(paddr, nbytes)
            self.bytes_to_sram += nbytes
            self.transfers_to_sram += 1
            if env.tracer is not None:
                emit(env, f"{self.name}.hostdma.to_sram",
                     paddr=paddr, nbytes=nbytes)

        hold = self.bus.dma(nbytes)
        hold.callbacks.append(landed)
        return hold

    def write_host(self, data: np.ndarray, paddr: int) -> Event:
        """DMA the given bytes (already staged in SRAM by the receive
        engine) to host memory at ``paddr``; the event fires when they
        are there."""
        return self._queue_write(np.asarray(data, dtype=np.uint8), paddr)

    def _queue_write(self, payload: np.ndarray, paddr: int) -> Event:
        """:meth:`write_host` of bytes already a ``uint8`` array."""
        if self.env.metrics is not None:
            self.queue_depth.set(len(self._engine._waiting))
        return self._engine.serve(self._write_host, payload, paddr)

    def _write_host(self, payload: np.ndarray, paddr: int) -> Event:
        env = self.env
        nbytes = int(payload.size)

        def landed(_hold):
            self.host_memory.view(paddr, nbytes)[:] = payload
            self.host_memory.notify_write(paddr, nbytes)
            self.bytes_to_host += nbytes
            self.transfers_to_host += 1
            if env.tracer is not None:
                emit(env, f"{self.name}.hostdma.write_host",
                     paddr=paddr, nbytes=nbytes)

        hold = self.bus.dma(nbytes)
        hold.callbacks.append(landed)
        return hold

    def write_host_scatter(self, data: np.ndarray,
                           extents: list[tuple[int, int]]) -> Event:
        """Deliver staged receive data to up to two physical extents — the
        section-4.5 two-piece scatter.  Each piece is its own engine
        operation, queued as the one before it ends; the event fires when
        the last has landed.  The payload is converted once, here."""
        payload = np.asarray(data, dtype=np.uint8)
        pieces, offset = [], 0
        for paddr, length in extents:
            if length:
                pieces.append((payload[offset:offset + length], paddr))
                offset += length
        if not pieces:
            done = Event(self.env)
            done._settle(None)
            return done
        written = self._queue_write(*pieces[0])
        if len(pieces) == 1:
            return written
        done = Event(self.env)
        self._then_scatter(written, pieces[1:], done)
        return done

    def _then_scatter(self, written: Event, rest: list, done: Event) -> None:
        if rest:
            written.callbacks.append(lambda _written: self._then_scatter(
                self._queue_write(*rest[0]), rest[1:], done))
        else:
            written.callbacks.append(lambda _written: done._fire())

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
        self._engine = Server(env)
        self.packets_sent = 0
        env.collectors.append(self._collect)

    def _collect(self):
        yield ("counter", "net.packets", {"nic": self.host_name, "dir": "tx"},
               self.packets_sent)

    def send(self, packet: MyrinetPacket) -> Event:
        """Seal (hardware CRC) and transmit one packet.

        The event fires when the packet's tail has left the NIC — the
        point at which the SRAM staging buffer is reusable.  The engine
        streams autonomously of the LANai: the LCP keeps the event and
        moves on (it is the link's tail timer when the engine was free,
        born triggered: test ``processed``).
        """
        return self._engine.serve(self._send, packet)

    def _send(self, packet: MyrinetPacket) -> Event:
        env = self.env
        packet.seal()

        def tail_left(_tail):
            self.packets_sent += 1
            if env.tracer is not None:
                emit(env, "lanai.netsend", nic=self.host_name,
                     nbytes=packet.payload_bytes)

        tail = self.network.inject(self.host_name, packet)
        tail.callbacks.append(tail_left)
        return tail


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
        #: Arrived packets the LCP pops after :meth:`pending`.
        self.inbox: deque[MyrinetPacket] = deque()
        self._getters: deque[Event] = deque()
        self.packets_received = 0
        self.crc_errors = 0
        env.collectors.append(self._collect)
        #: Optional hook invoked on every arrival (the LCP's wakeup line).
        self.on_arrival = None
        network.attach_host_sink(host_name, self._on_packet)

    def _collect(self):
        nic = self.host_name
        yield ("counter", "net.packets", {"nic": nic, "dir": "rx"},
               self.packets_received)
        yield "counter", "net.crc_errors", {"nic": nic}, self.crc_errors

    def _on_packet(self, packet: MyrinetPacket):
        ok = packet.crc_ok()
        self.packets_received += 1
        if not ok:
            self.crc_errors += 1
        if self.env.tracer is not None:
            emit(self.env, "lanai.netrecv", nic=self.host_name,
                 nbytes=packet.payload_bytes, ok=ok)
        packet.meta["crc_ok"] = ok
        if self._getters:
            self._getters.popleft().succeed(packet)
        else:
            self.inbox.append(packet)
        if self.on_arrival is not None:
            self.on_arrival()

    def pending(self) -> int:
        """Packets waiting for the LCP — polled by the main loop."""
        return len(self.inbox)

    def get(self) -> Event:
        """Blocking receive, for firmware that waits for a packet (the
        mapping LCP, the baseline protocols): the event's value is the
        next packet, at once if one is waiting."""
        event = Event(self.env)
        if self.inbox:
            event._settle(self.inbox.popleft())
        else:
            self._getters.append(event)
        return event
