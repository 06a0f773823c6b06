"""The SHRIMP network interface: a hardware deliberate-update state machine.

Differences from the Myrinet/LANai interface that section 6 builds its
comparison on, all modelled here:

* **EISA** instead of PCI — slower I/O cycles, DMA limited to ≈23 MB/s.
* Send initiation is a **hardware state machine** "responding to a wide
  range of memory-mapped addresses": no queue scanning, no software
  translation — picking up a request is immediate and processing one takes
  2–3 µs (verify permissions, access the outgoing page table, build a
  packet, start sending).
* The outgoing page table is **per interface** (one, in hardware), not per
  process; protection comes from the OS-maintained proxy *mappings* in the
  sender's own address space, and the two initiation instructions are not
  atomic — the state machine must be **invalidated on context switch**.
* A send spanning N pages needs N two-instruction initiations from the
  host (vs. one posted request on Myrinet).
* The interconnect is the multicomputer backplane: faster links than the
  sender's EISA bus, so EISA is always the bottleneck.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim import Environment, Event, Server
from repro.sim.trace import emit
from repro.obs.metrics import count
from repro.mem.physical import PhysicalMemory
from repro.hw.bus.eisa import EISABus
from repro.hw.myrinet.link import LinkParams
from repro.hw.myrinet.network import MyrinetNetwork
from repro.hw.myrinet.packet import DepositHeader, MyrinetPacket
from repro.vmmc.pagetables import IncomingPageTable, OutgoingPageTable
from repro.hw.shrimp.snoop import AutomaticUpdateUnit


@dataclass(frozen=True)
class ShrimpParams:
    """Timing of the SHRIMP board (calibrated to section 6's statements)."""

    #: Hardware state machine: verify permissions + outgoing-table access +
    #: packet build + send start ("about 2-3 microseconds in SHRIMP").
    state_machine_ns: int = 2_000
    #: Receive-side hardware: header parse + incoming check + DMA start.
    recv_setup_ns: int = 700
    #: Interconnect: the Paragon-style backplane, 175 MB/s, short hops.
    link: LinkParams = field(
        default_factory=lambda: LinkParams(ns_per_kb=5714, latency_ns=150))
    #: Host instructions to initiate one (≤ page) deliberate update.
    initiation_writes: int = 2


class ShrimpStateMachine:
    """The send-side hardware pipeline: one request at a time."""

    def __init__(self, env: Environment, nic: "ShrimpNIC",
                 params: ShrimpParams):
        self.env = env
        self.nic = nic
        self.params = params
        self._engine = Server(env)
        self.requests_processed = 0
        self.invalidations = 0

    def invalidate(self) -> None:
        """Context switch: partial two-instruction initiations must not mix
        between users (section 6)."""
        self.invalidations += 1

    def deliberate_update(self, src_paddr: int, extents, node_index: int,
                          nbytes: int, last: bool,
                          notify: bool = False) -> Event:
        """One ≤page transfer; the event fires when the data has left
        host memory (the EISA DMA finished) — the sender-visible point."""
        return self._engine.serve(self._update, src_paddr, extents,
                                  node_index, nbytes, last, notify)

    def _update(self, src_paddr: int, extents, node_index: int,
                nbytes: int, last: bool, notify: bool) -> Event:
        nic = self.nic
        done = Event(self.env)

        def fetch(_setup):
            # Fetch the data from host memory over EISA.
            nic.bus.dma(nbytes).callbacks.append(fetched)

        def fetched(_dma):
            payload = nic.host_memory.read(src_paddr, nbytes)
            packet = MyrinetPacket(
                nic.routes[node_index],
                DepositHeader("shrimp_du", extents, notify, last,
                              nic.node_index, nbytes),
                payload)
            packet.seal()
            self.requests_processed += 1
            emit(self.env, "shrimp.sm.send", nbytes=nbytes)
            # The backplane injection proceeds in hardware; don't hold
            # the state machine for the wire time.
            nic.inject(packet)
            done._fire()

        self.env.timeout(self.params.state_machine_ns).callbacks.append(fetch)
        return done


class ShrimpNIC:
    """One SHRIMP board: EISA interface + state machine + receive engine."""

    def __init__(self, env: Environment, network: MyrinetNetwork,
                 host_name: str, node_index: int, bus: EISABus,
                 host_memory: PhysicalMemory,
                 params: ShrimpParams | None = None):
        self.env = env
        self.network = network
        self.host_name = host_name
        self.node_index = node_index
        self.bus = bus
        self.host_memory = host_memory
        self.params = params or ShrimpParams()
        #: One outgoing page table per *interface* (hardware), keyed by the
        #: sender's proxy page — OS mappings provide per-process protection.
        self.outgoing = OutgoingPageTable(pid=-1)
        self.incoming = IncomingPageTable(host_memory.nframes)
        self.routes: dict[int, list[int]] = {}
        self.state_machine = ShrimpStateMachine(env, self, self.params)
        #: The memory-bus snooping card (automatic update, footnote 3).
        self.au = AutomaticUpdateUnit(env, self)
        self.packets_delivered = 0
        self.protection_violations = 0
        self.crc_drops = 0
        self._outbound = Server(env)
        network.attach_host_sink(host_name, self._receive)

    def install_routes(self, routes: dict[int, list[int]]) -> None:
        self.routes = dict(routes)

    def inject(self, packet: MyrinetPacket) -> Event:
        """Put ``packet`` on this board's one cable, which the deliberate-
        and automatic-update paths take in turn; the event fires when its
        tail has left."""
        return self._outbound.serve(self.network.inject, self.host_name,
                                    packet)

    # -- receive side (hardware) ------------------------------------------------
    def _receive(self, packet: MyrinetPacket) -> None:
        # The receive engine runs beside whatever arrives next.
        self.env.timeout(self.params.recv_setup_ns).callbacks.append(
            lambda _setup: self._deposit(packet))

    def _deposit(self, packet: MyrinetPacket) -> None:
        if not packet.crc_ok():
            self.crc_drops += 1
            count(self.env, "shrimp.crc_drops", nic=self.host_name)
            emit(self.env, "shrimp.recv.crc_drop")
            return
        extents = packet.header.extents
        if self.incoming.first_unwritable(extents) is not None:
            self.protection_violations += 1
            return
        # DMA into pinned receive buffers over this node's EISA bus, one
        # extent after another.
        self._deposit_extents(packet, [e for e in extents if e[1]], 0)

    def _deposit_extents(self, packet: MyrinetPacket, extents: list,
                         offset: int) -> None:
        if not extents:
            self.packets_delivered += 1
            emit(self.env, "shrimp.recv.delivered",
                 nbytes=packet.payload_bytes)
            return
        (paddr, length), rest = extents[0], extents[1:]

        def landed(_dma):
            self.host_memory.view(paddr, length)[:] = \
                packet.payload[offset:offset + length]
            self.host_memory.notify_write(paddr, length)
            self._deposit_extents(packet, rest, offset + length)

        self.bus.dma(length).callbacks.append(landed)
