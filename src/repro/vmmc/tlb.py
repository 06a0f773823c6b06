"""Two-way set-associative software TLB in LANai SRAM (section 4.5).

On long sends the LANai translates the *source* virtual address of every
page it fetches.  The translations live in a per-process software TLB in
SRAM: two-way set associative, large enough to map 8 MB of address space
with 4 KB pages (2048 entries).  On a miss the LANai interrupts the host;
the VMMC driver pins the pages and inserts translations for up to 32 pages
per interrupt.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.hw.lanai.sram import SRAM

#: 8 MB reach / 4 KB pages = 2048 entries (paper: "can keep translations
#: for up to 8 MBytes of address space assuming 4 KByte pages").
DEFAULT_ENTRIES = 2048
WAYS = 2
#: Translations inserted per miss interrupt (section 4.5).
REFILL_BATCH = 32
#: SRAM bytes per entry: tag word + frame word.
_ENTRY_BYTES = 8


@dataclass
class _Way:
    vpage: int = -1
    frame: int = -1
    lru: int = 0


class SoftwareTLB:
    """Per-process V→P cache maintained by the LCP + driver."""

    def __init__(self, pid: int, nentries: int = DEFAULT_ENTRIES,
                 sram: Optional[SRAM] = None):
        if nentries % WAYS != 0:
            raise ValueError("entry count must be a multiple of the ways")
        self.pid = pid
        self.nentries = nentries
        self.nsets = nentries // WAYS
        #: set index -> its ways, created when the set is first touched.
        self._sets: dict[int, list[_Way]] = {}
        self._clock = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        if sram is not None:
            sram.alloc(f"tlb.pid{pid}", nentries * _ENTRY_BYTES)

    def _set_of(self, vpage: int) -> list[_Way]:
        index = vpage % self.nsets
        ways = self._sets.get(index)
        if ways is None:
            ways = self._sets[index] = [_Way() for _ in range(WAYS)]
        return ways

    def lookup(self, vpage: int) -> Optional[int]:
        """Frame number for ``vpage``, or None on miss."""
        self._clock += 1
        ways = self._sets.get(vpage % self.nsets)
        for way in ways if ways is not None else self._set_of(vpage):
            if way.vpage == vpage:
                way.lru = self._clock
                self.hits += 1
                return way.frame
        self.misses += 1
        return None

    def insert(self, vpage: int, frame: int) -> None:
        """Install a translation, evicting the LRU way if the set is full."""
        ways = self._set_of(vpage)
        self._clock += 1
        # Overwrite an existing mapping of the same page if present.
        for way in ways:
            if way.vpage == vpage:
                way.frame = frame
                way.lru = self._clock
                return
        victim = min(ways, key=lambda w: w.lru)
        if victim.vpage != -1:
            self.evictions += 1
        victim.vpage = vpage
        victim.frame = frame
        victim.lru = self._clock

    def invalidate(self, vpage: int) -> bool:
        for way in self._set_of(vpage):
            if way.vpage == vpage:
                way.vpage = -1
                way.frame = -1
                return True
        return False

    def flush(self) -> None:
        for ways in self._sets.values():
            for way in ways:
                way.vpage = -1
                way.frame = -1

    @property
    def occupancy(self) -> int:
        return sum(1 for ways in self._sets.values()
                   for w in ways if w.vpage != -1)

    @property
    def reach_bytes(self) -> int:
        from repro.mem.virtual import PAGE_SIZE

        return self.nentries * PAGE_SIZE
