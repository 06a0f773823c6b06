"""Per-process send queues in LANai SRAM (sections 4.4–4.5).

"Each process has a separate send queue allocated in LANai SRAM" — this is
the protection mechanism that lets multiple senders share one interface
without gang scheduling (the advantage over FM/PM argued in section 7).

There are two request formats, transparent to user programs:

* **short** (≤128 bytes): the data itself is copied into the queue entry
  with programmed I/O — no host DMA at all;
* **long** (≤8 MB): the entry carries only the *virtual* address of the
  send buffer; the LANai translates and fetches the data itself.

The queue is a ring; each slot has a matching completion word in pinned
user memory that the LANai DMAs a status into, so user code can spin on a
cache location instead of reading device registers (section 4.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.hw.lanai.sram import SRAM, SRAMRegion

if TYPE_CHECKING:
    from repro.sim import Event

#: Short/long protocol threshold (section 4.5: "currently up to 128 bytes",
#: chosen so that synchronous-send overhead stays low without burning SRAM).
SHORT_SEND_LIMIT = 128

#: Slots per process queue.
QUEUE_SLOTS = 32

#: SRAM bytes per slot: 16 control + room for inline short data.
SLOT_BYTES = 16 + SHORT_SEND_LIMIT

#: Completion word states.
COMPLETION_FREE = 0
COMPLETION_PENDING = 1
COMPLETION_DONE = 2
COMPLETION_ERROR = 3


@dataclass
class SendRequest:
    """One posted send-queue entry."""

    slot: int
    length: int
    proxy_address: int
    is_short: bool
    #: Long sends: virtual address of the send buffer.
    src_vaddr: int = 0
    #: Short sends: the inline payload (already PIO-copied to SRAM).
    inline_data: Optional[np.ndarray] = None
    #: Request a notification at the receiver for this message.
    notify: bool = False
    posted_at: int = 0
    #: Fires with the completion status once the LCP's writeback of it
    #: lands.  It travels with the request, not the slot: the slot is
    #: freed at pickup and may be posted again before a long send ends.
    completion: Optional["Event"] = None

    @property
    def control_words(self) -> int:
        """32-bit PIO writes needed to post the control part of the entry
        (length+flags, proxy address, src vaddr, valid/doorbell)."""
        return 4

    @property
    def data_words(self) -> int:
        """PIO writes needed for inline short data."""
        return 0 if not self.is_short else (self.length + 3) // 4


class SendQueue:
    """The ring of send slots for one process, resident in SRAM."""

    def __init__(self, pid: int, sram: Optional[SRAM] = None,
                 nslots: int = QUEUE_SLOTS):
        self.pid = pid
        self.nslots = nslots
        self._slots: list[Optional[SendRequest]] = [None] * nslots
        self._reserved: dict[int, Optional[SendRequest]] = {}
        self._head = 0  # next slot the LCP will scan
        self._tail = 0  # next slot the host will fill
        self.posted = 0
        self.picked_up = 0
        self.region: Optional[SRAMRegion] = None
        if sram is not None:
            self.region = sram.alloc(f"sendq.pid{pid}", nslots * SLOT_BYTES)

    # -- host side ------------------------------------------------------------
    def slot_available(self) -> bool:
        return (self._slots[self._tail] is None
                and self._tail not in self._reserved)

    def next_slot(self) -> int:
        return self._tail

    def holder(self, slot: int) -> Optional[SendRequest]:
        """The request holding ``slot``: posted and not yet picked up,
        or reserved and still being posted."""
        return self._slots[slot] or self._reserved.get(slot)

    def reserve(self, request: Optional[SendRequest] = None) -> int:
        """Atomically claim the tail slot (the library does this before
        the multi-word PIO fill, so concurrent senders in one process
        never collide on a slot) for ``request``, if given.  The LCP sees
        the slot as empty until :meth:`post` marks it valid, preserving
        FIFO pickup."""
        slot = self._tail
        if self._slots[slot] is not None or slot in self._reserved:
            raise RuntimeError(
                f"send queue of pid {self.pid} overflow (slot {slot})")
        self._reserved[slot] = request
        self._tail = (slot + 1) % self.nslots
        return slot

    def post(self, request: SendRequest) -> None:
        """Host side: validate a previously reserved slot."""
        if request.slot not in self._reserved:
            raise ValueError(
                f"posting to unreserved slot {request.slot}")
        del self._reserved[request.slot]
        self._slots[request.slot] = request
        self.posted += 1

    # -- LANai side ---------------------------------------------------------------
    def peek(self) -> Optional[SendRequest]:
        """LCP: look at the head slot without consuming it."""
        return self._slots[self._head]

    def pickup(self) -> SendRequest:
        """LCP: consume the head slot (frees it for the host)."""
        request = self._slots[self._head]
        if request is None:
            raise RuntimeError("pickup from empty queue")
        self._slots[self._head] = None
        self._head = (self._head + 1) % self.nslots
        self.picked_up += 1
        return request

    @property
    def depth(self) -> int:
        return sum(1 for s in self._slots if s is not None)
