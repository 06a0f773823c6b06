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
hardware pipeline.  Both sides are plain calls and callbacks on the
event core, like every other device in :mod:`repro.hw`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.sim import Environment, Event
from repro.sim.server import at_now
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
    """The snooping side-car on a SHRIMP node's memory bus.

    Two pieces of hardware, both driven by callbacks: the capture side
    (:meth:`snoop`) fills the FIFO, and the injection pipeline drains it
    — idle until a capture arrives, then coalesce, build, inject, and
    look at the FIFO again once the packet's tail has left.
    """

    def __init__(self, env: Environment, nic, params: SnoopParams | None = None):
        self.env = env
        self.nic = nic
        self.params = params or SnoopParams()
        #: local physical page → (dest node index, dest physical page).
        self._table: dict[int, tuple[int, int]] = {}
        self._fifo: deque[_CapturedWrite] = deque()
        #: Captures stalled on a full FIFO, each with its continuation.
        self._stalled: deque[tuple[_CapturedWrite, Callable[[], None]]] = \
            deque()
        self._pipeline_idle = True
        self.writes_captured = 0
        self.packets_injected = 0
        self.coalesced = 0

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
    def snoop(self, paddr: int, data: np.ndarray) -> Event:
        """A write of ``data`` at ``paddr`` appeared on the memory bus.
        Each piece on a mapped page is captured in turn; the event fires
        when the last is in the FIFO (a full FIFO stalls it,
        back-pressuring the writing CPU)."""
        done = Event(self.env)
        self._snoop_from(paddr, data, 0, done)
        return done

    def _snoop_from(self, paddr: int, data: np.ndarray, offset: int,
                    done: Event) -> None:
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
                start, end = offset, offset + chunk

                def captured(_capture):
                    self._put(_CapturedWrite(
                        dest_node=dest_node, dest_paddr=dest_paddr,
                        data=np.asarray(data[start:end],
                                        dtype=np.uint8).copy(),
                        captured_at=self.env.now),
                        lambda: self._captured(paddr, data, end, done))

                self.env.timeout(self.params.capture_ns).callbacks.append(
                    captured)
                return
            offset += chunk
        done._fire()

    def _captured(self, paddr: int, data: np.ndarray, offset: int,
                  done: Event) -> None:
        self.writes_captured += 1
        self._snoop_from(paddr, data, offset, done)

    # -- the FIFO -------------------------------------------------------------------
    def _put(self, item: _CapturedWrite, then: Callable[[], None]) -> None:
        """Queue a capture and continue with ``then`` — now if the FIFO
        has room, else from an event when the pipeline makes room."""
        if self._stalled or len(self._fifo) >= self.params.fifo_depth:
            self._stalled.append((item, then))
            return
        self._fifo.append(item)
        if self._pipeline_idle:
            # The idle pipeline takes it, and starts from an event.
            self._pipeline_idle = False
            first = self._fifo.popleft()
            at_now(self.env, lambda: self._coalesce(first))
        then()

    def _take(self) -> _CapturedWrite:
        """Pop the FIFO head; a stalled capture takes the room, and its
        writer resumes from an event."""
        item = self._fifo.popleft()
        if self._stalled:
            admitted, then = self._stalled.popleft()
            self._fifo.append(admitted)
            at_now(self.env, then)
        return item

    # -- the injection pipeline ---------------------------------------------------
    def _next_batch(self) -> None:
        if self._fifo:
            self._coalesce(self._take())
        else:
            self._pipeline_idle = True

    def _coalesce(self, first: _CapturedWrite) -> None:
        """Absorb immediately-following contiguous captures, then build
        and inject one packet."""
        batch = [first]
        while self._fifo:
            nxt = self._fifo[0]
            last = batch[-1]
            contiguous = (
                nxt.dest_node == last.dest_node
                and nxt.dest_paddr == last.dest_paddr + last.data.size
                and nxt.captured_at - first.captured_at
                <= self.params.coalesce_window_ns)
            if not contiguous:
                break
            batch.append(self._take())
            self.coalesced += 1
        self.env.timeout(self.params.inject_ns).callbacks.append(
            lambda _build: self._inject(first, batch))

    def _inject(self, first: _CapturedWrite,
                batch: list[_CapturedWrite]) -> None:
        payload = np.concatenate([w.data for w in batch])
        packet = MyrinetPacket(
            self.nic.routes[first.dest_node],
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
        self.nic.inject(packet).callbacks.append(
            lambda _tail: self._next_batch())
