"""LANai on-board SRAM: 256 KB of byte-accurate storage with named regions.

SRAM is the scarce resource the section-6 tradeoff discussion is about:
the VMMC LCP must fit its code and data, one send queue, one outgoing
page table and one software TLB (up to 8 MB of reach) **per process**,
the incoming page table, routing tables and packet staging buffers into
256 KB.  The allocator names every region for that accounting
(:meth:`SRAM.usage_report`).  Like host memory, the bytes are a
:func:`~repro.mem.physical.zeroed_bytes` store, committed per touched page.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mem.physical import zeroed_bytes

#: M2F-PCI32 carries 256 KB of SRAM (paper section 3).
SRAM_SIZE = 256 * 1024


class SRAMExhausted(MemoryError):
    """The 256 KB of on-board SRAM is over-committed."""


@dataclass
class SRAMRegion:
    """A named allocation inside the SRAM."""

    name: str
    base: int
    size: int

    @property
    def end(self) -> int:
        return self.base + self.size


class SRAM:
    """Byte-accurate SRAM with a named-region allocator."""

    def __init__(self, size: int = SRAM_SIZE):
        self.size = size
        self.data = zeroed_bytes(size)
        #: The same bytes as a memoryview, for ``bytes`` payloads.
        self.raw = memoryview(self.data)
        self.regions: dict[str, SRAMRegion] = {}
        self._cursor = 0

    # -- allocation ---------------------------------------------------------
    def alloc(self, name: str, size: int) -> SRAMRegion:
        """Allocate a named region; raises :class:`SRAMExhausted` if full."""
        if name in self.regions:
            raise ValueError(f"SRAM region {name!r} already exists")
        if size <= 0:
            raise ValueError("region size must be positive")
        if self._cursor + size > self.size:
            raise SRAMExhausted(
                f"SRAM overflow allocating {name!r}: need {size} bytes, "
                f"{self.size - self._cursor} free of {self.size}")
        region = SRAMRegion(name, self._cursor, size)
        self._cursor += size
        self.regions[name] = region
        return region

    def free(self, name: str) -> None:
        """Release a region's accounting (space is not compacted — the real
        LCP never frees SRAM at runtime either; this exists for process
        teardown bookkeeping)."""
        self.regions.pop(name)

    @property
    def used(self) -> int:
        return sum(r.size for r in self.regions.values())

    @property
    def free_bytes(self) -> int:
        return self.size - self._cursor

    def usage_report(self) -> dict[str, int]:
        """Bytes per region name — the NIC-resource accounting of section 6."""
        return {r.name: r.size for r in
                sorted(self.regions.values(), key=lambda r: r.base)}

    # -- data access ------------------------------------------------------------
    def read(self, addr: int, nbytes: int) -> np.ndarray:
        if addr < 0 or addr + nbytes > self.size:
            self._check(addr, nbytes)
        return self.data[addr:addr + nbytes].copy()

    def write(self, addr: int, payload: np.ndarray | bytes) -> None:
        if isinstance(payload, (bytes, bytearray)):
            target = self.raw
        else:
            target, payload = self.data, np.asarray(payload, dtype=np.uint8)
        self._check(addr, len(payload))
        target[addr:addr + len(payload)] = payload

    def view(self, addr: int, nbytes: int) -> np.ndarray:
        """Mutable no-copy view (used by DMA engines)."""
        if addr < 0 or addr + nbytes > self.size:
            self._check(addr, nbytes)
        return self.data[addr:addr + nbytes]

    def _check(self, addr: int, nbytes: int) -> None:
        """Raise on an access outside the SRAM (the hot accessors test
        the range inline and call this only when it fails)."""
        if addr < 0 or addr + nbytes > self.size:
            raise ValueError(
                f"SRAM access [{addr}, {addr + nbytes}) out of range")
