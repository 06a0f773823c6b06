"""SHRIMP automatic update: the memory-bus snooping transfer mode.

Footnote 3 of the paper: "SHRIMP supports besides deliberate update
another mode of transfer, called automatic update which snoops writes
directly from the memory bus and sends [them] to a destination node."
The section-6 comparison deliberately excludes it (Myrinet cannot snoop),
which makes it the natural *extension* feature of this reproduction.

Model: an :class:`AutomaticUpdateUnit` holds a snoop table mapping local
physical pages to (destination node, destination page).  Writes to mapped
pages are captured **off the memory bus** — the data never crosses the
EISA bus on the send side and the sending CPU executes *zero* extra
instructions.  Captured writes are coalesced in a small outgoing queue
(the real hardware had a proxy-write FIFO) and injected as packets by a
hardware pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim import Environment, Store
from repro.sim.trace import emit
from repro.mem.virtual import PAGE_SIZE
from repro.hw.myrinet.packet import DepositHeader, MyrinetPacket


@dataclass(frozen=True)
class SnoopParams:
    """Timing of the snooping hardware."""

    #: Capturing one write burst off the memory bus (pipeline stage).
    capture_ns: int = 150
    #: Building + injecting one update packet.
    inject_ns: int = 900
    #: Coalescing window: captured writes to adjacent addresses within
    #: this time are merged into one packet.
    coalesce_window_ns: int = 500
    #: FIFO depth (captured-but-not-injected writes); overflow stalls the
    #: writing CPU, exactly like the real proxy-write FIFO.
    fifo_depth: int = 32


@dataclass
class _CapturedWrite:
    dest_node: int
    dest_paddr: int
    data: np.ndarray
    captured_at: int


class AutomaticUpdateUnit:
    """The snooping side-car on a SHRIMP node's memory bus."""

    def __init__(self, env: Environment, nic, params: SnoopParams | None = None):
        self.env = env
        self.nic = nic
        self.params = params or SnoopParams()
        #: local physical page → (dest node index, dest physical page).
        self._table: dict[int, tuple[int, int]] = {}
        self._fifo: Store = Store(env, capacity=self.params.fifo_depth)
        self.writes_captured = 0
        self.packets_injected = 0
        self.coalesced = 0
        env.process(self._pipeline(), name=f"{nic.host_name}.au")

    # -- mapping management (set up by the OS on au-import) -------------------
    def map_page(self, local_page: int, dest_node: int,
                 dest_page: int) -> None:
        self._table[local_page] = (dest_node, dest_page)

    def unmap_page(self, local_page: int) -> None:
        self._table.pop(local_page, None)

    @property
    def mapped_pages(self) -> int:
        return len(self._table)

    # -- the snoop itself -----------------------------------------------------------
    def snoop(self, paddr: int, data: np.ndarray):
        """Generator: a write of ``data`` at ``paddr`` appeared on the
        memory bus.  If the page is mapped, capture it (may stall on
        FIFO-full, back-pressuring the writing CPU)."""
        offset = 0
        size = int(np.asarray(data).size)
        while offset < size:
            page = (paddr + offset) // PAGE_SIZE
            mapping = self._table.get(page)
            chunk = min(size - offset,
                        PAGE_SIZE - (paddr + offset) % PAGE_SIZE)
            if mapping is not None:
                dest_node, dest_page = mapping
                dest_paddr = dest_page * PAGE_SIZE \
                    + (paddr + offset) % PAGE_SIZE
                yield self.env.timeout(self.params.capture_ns)
                yield self._fifo.put(_CapturedWrite(
                    dest_node=dest_node, dest_paddr=dest_paddr,
                    data=np.asarray(data[offset:offset + chunk],
                                    dtype=np.uint8).copy(),
                    captured_at=self.env.now))
                self.writes_captured += 1
            offset += chunk

    def _pipeline(self):
        """Drain the FIFO: coalesce adjacent captures, inject packets."""
        while True:
            first = yield self._fifo.get()
            batch = [first]
            # Coalesce: absorb immediately-following contiguous captures.
            while len(self._fifo):
                nxt = self._fifo.items[0]
                last = batch[-1]
                contiguous = (
                    nxt.dest_node == last.dest_node
                    and nxt.dest_paddr == last.dest_paddr + last.data.size
                    and nxt.captured_at - first.captured_at
                    <= self.params.coalesce_window_ns)
                if not contiguous:
                    break
                batch.append((yield self._fifo.get()))
                self.coalesced += 1
            payload = np.concatenate([w.data for w in batch])
            yield self.env.timeout(self.params.inject_ns)
            packet = MyrinetPacket(
                list(self.nic.routes[first.dest_node]),
                DepositHeader("shrimp_au",
                              ((first.dest_paddr, int(payload.size)),),
                              notify=False, last=True,
                              src_node=self.nic.node_index,
                              msg_length=int(payload.size)),
                payload)
            packet.seal()
            self.packets_injected += 1
            emit(self.env, "shrimp.au.inject", nbytes=int(payload.size),
                 coalesced=len(batch))
            yield from self.nic.inject(packet)
