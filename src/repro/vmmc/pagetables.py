"""Incoming and outgoing page tables kept in LANai SRAM (section 4.4).

* The **incoming page table** (one per interface) has one entry per host
  physical memory frame saying whether an incoming message may write that
  frame and whether delivery should raise a notification.  Both receivers
  (the LCP and SHRIMP's hardware) consult it before every receive-side DMA
  — this is what guarantees that "transferred data does not overwrite any
  memory locations outside the destination receive buffer".

* The **outgoing page table** (one per process using the interface) maps
  proxy pages of imported receive buffers to a packed 32-bit value
  encoding the destination node index and the destination physical page.
  Because the table is private to the sending process, "there is no way a
  process can use outgoing page table entries set up for others" — the
  protection argument of section 4.4.  Both senders resolve a proxy
  address to its two-extent scatter through it.

Both tables charge their SRAM footprint against the NIC's 256 KB, which is
the resource-cost side of the section-6 design-tradeoff discussion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.hw.lanai.sram import SRAM
from repro.mem.virtual import PAGE_SIZE
from repro.vmmc.errors import ProxyFault

#: Outgoing-table entry packing: high 8 bits node index, low 24 bits
#: physical page number (24 bits of 4 KB pages = 64 GB reach, ample for
#: 1997 hosts).
_NODE_SHIFT = 24
_PAGE_MASK = (1 << _NODE_SHIFT) - 1
_ENTRY_BYTES = 4

#: Paper: "The current limit is 8 MBytes" of imported receive buffers per
#: process — 2048 proxy pages of 4 KB.
DEFAULT_OUTGOING_PAGES = 2048


@dataclass(frozen=True)
class IncomingEntry:
    """Receive permission for one physical frame."""

    writable: bool = False
    notify: bool = False
    owner_pid: int = -1
    buffer_id: int = -1


#: The entry of every frame no export opened, shared: entries are frozen.
_CLOSED = IncomingEntry()


class IncomingPageTable:
    """One per network interface: frame number → receive permission."""

    def __init__(self, nframes: int, sram: Optional[SRAM] = None):
        self.nframes = nframes
        self._entries: dict[int, IncomingEntry] = {}
        if sram is not None:
            # One 32-bit entry per physical frame, resident in SRAM.
            sram.alloc("incoming_page_table", nframes * _ENTRY_BYTES)

    def allow(self, frame: int, owner_pid: int, buffer_id: int,
              notify: bool = False) -> None:
        self._check(frame)
        self._entries[frame] = IncomingEntry(
            writable=True, notify=notify,
            owner_pid=owner_pid, buffer_id=buffer_id)

    def revoke(self, frame: int) -> None:
        self._check(frame)
        self._entries.pop(frame, None)

    def lookup(self, frame: int) -> IncomingEntry:
        self._check(frame)
        return self._entries.get(frame, _CLOSED)

    def writable(self, frame: int) -> bool:
        return self.lookup(frame).writable

    def first_unwritable(self, extents: tuple[tuple[int, int], ...]
                         ) -> Optional[int]:
        """The first frame the ``(paddr, length)`` extents touch that no
        export opened to the network, or None if every one may be
        written — checked before any receive DMA starts."""
        return self.admit(extents)[0]

    def admit(self, extents: tuple[tuple[int, int], ...]
              ) -> tuple[Optional[int], bool]:
        """One walk over the frames the ``(paddr, length)`` extents
        touch: the first one no export opened (None if every one may be
        written), and whether the first frame of any extent asks for a
        notification.  A frame outside the table raises ``ValueError``
        when the walk reaches it."""
        entries, nframes = self._entries, self.nframes
        notify = False
        for paddr, length in extents:
            if length == 0:
                continue
            first = paddr // PAGE_SIZE
            for frame in range(first, (paddr + length - 1) // PAGE_SIZE + 1):
                if not 0 <= frame < nframes:
                    self._check(frame)
                entry = entries.get(frame, _CLOSED)
                if not entry.writable:
                    return frame, notify
                if frame == first and entry.notify:
                    notify = True
        return None, notify

    def _check(self, frame: int) -> None:
        if not 0 <= frame < self.nframes:
            raise ValueError(f"frame {frame} out of range 0..{self.nframes-1}")


class OutgoingPageTable:
    """One per (process, interface): proxy page → (node, physical page).

    The table size bounds the total imported receive-buffer space — the
    8 MB per-process limit of section 4.4.
    """

    def __init__(self, pid: int, npages: int = DEFAULT_OUTGOING_PAGES,
                 sram: Optional[SRAM] = None):
        self.pid = pid
        self.npages = npages
        self._entries: dict[int, int] = {}
        self._region = None
        if sram is not None:
            self._region = sram.alloc(f"outgoing_pt.pid{pid}",
                                      npages * _ENTRY_BYTES)

    @staticmethod
    def pack(node_index: int, phys_page: int) -> int:
        if not 0 <= node_index < 256:
            raise ValueError(f"node index {node_index} does not fit 8 bits")
        if not 0 <= phys_page <= _PAGE_MASK:
            raise ValueError(f"physical page {phys_page} does not fit 24 bits")
        return (node_index << _NODE_SHIFT) | phys_page

    @staticmethod
    def unpack(entry: int) -> tuple[int, int]:
        return entry >> _NODE_SHIFT, entry & _PAGE_MASK

    def set_entry(self, proxy_page: int, node_index: int,
                  phys_page: int) -> None:
        self._check(proxy_page)
        self._entries[proxy_page] = self.pack(node_index, phys_page)

    def clear_entry(self, proxy_page: int) -> None:
        self._check(proxy_page)
        self._entries.pop(proxy_page, None)

    def lookup(self, proxy_page: int) -> Optional[tuple[int, int]]:
        """(node index, physical page) or None if the proxy page is unmapped."""
        self._check(proxy_page)
        entry = self._entries.get(proxy_page)
        return None if entry is None else self.unpack(entry)

    def resolve(self, proxy_address: int, nbytes: int
                ) -> Optional[tuple[int, tuple[tuple[int, int], ...]]]:
        """Proxy address → (destination node, ≤ 2 physical extents): the
        send side of the page-boundary scatter (section 4.5).

        None on a proxy fault (unmapped page, a span leaving the import
        or crossing to another node, a page past the end of the table):
        nothing leaves the node with an invalid destination.  Called
        once per packet, so the split, the lookups and the unpacking are
        inline.
        """
        if proxy_address < 0:
            raise ProxyFault(f"negative proxy address {proxy_address:#x}")
        proxy_page, offset = divmod(proxy_address, PAGE_SIZE)
        len1 = PAGE_SIZE - offset
        if nbytes < len1:
            len1 = nbytes
        last = proxy_page if len1 == nbytes else proxy_page + 1
        if last >= self.npages:
            return None
        entries = self._entries
        first = entries.get(proxy_page)
        if first is None:
            return None
        node = first >> _NODE_SHIFT
        extents = (((first & _PAGE_MASK) * PAGE_SIZE + offset, len1),)
        if last == proxy_page:
            return node, extents
        second = entries.get(last)
        if second is None or second >> _NODE_SHIFT != node:
            return None
        return node, extents + (((second & _PAGE_MASK) * PAGE_SIZE,
                                 nbytes - len1),)

    @property
    def import_capacity_bytes(self) -> int:
        """Total importable receive-buffer space (the 8 MB limit)."""
        return self.npages * PAGE_SIZE

    def _check(self, proxy_page: int) -> None:
        if not 0 <= proxy_page < self.npages:
            raise ValueError(
                f"proxy page {proxy_page} out of range 0..{self.npages - 1}")
