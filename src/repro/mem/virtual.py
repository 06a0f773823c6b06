"""Per-process virtual address spaces with 4 KB pages.

An :class:`AddressSpace` owns a page table mapping virtual page numbers to
physical frames, allocates virtual regions, translates addresses, performs
virtual reads/writes against the backing :class:`~repro.mem.physical.PhysicalMemory`,
and implements ``mlock``-style pinning (what the VMMC driver does when it
installs software-TLB translations or exports receive buffers).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.mem.physical import Frame, PhysicalMemory

#: Page size used throughout (Linux 2.0 on i386, paper section 4.5).
PAGE_SIZE = 4096


class PageFault(Exception):
    """Access to an unmapped virtual address."""


class ProtectionError(Exception):
    """Access that violates a mapping's permissions."""


def vpage_of(vaddr: int) -> int:
    """Virtual page number containing ``vaddr``."""
    return vaddr // PAGE_SIZE


def page_offset(vaddr: int) -> int:
    """Offset of ``vaddr`` within its page."""
    return vaddr % PAGE_SIZE


def page_round_down(vaddr: int) -> int:
    return vaddr - (vaddr % PAGE_SIZE)


def page_round_up(vaddr: int) -> int:
    return page_round_down(vaddr + PAGE_SIZE - 1)


def pages_spanned(vaddr: int, nbytes: int) -> int:
    """How many distinct pages the byte range [vaddr, vaddr+nbytes) touches."""
    if nbytes <= 0:
        return 0
    return vpage_of(vaddr + nbytes - 1) - vpage_of(vaddr) + 1


class AddressSpace:
    """A process's virtual memory: page table + region allocator."""

    #: Default base for user mappings (grows upward).
    USER_BASE = 0x0800_0000

    def __init__(self, memory: PhysicalMemory, name: str = "proc",
                 base: int = USER_BASE):
        if memory.page_size != PAGE_SIZE:
            raise ValueError("address space requires 4 KB pages")
        self.memory = memory
        self.name = name
        self._next_vaddr = base
        self._table: dict[int, Frame] = {}

    # -- mapping ---------------------------------------------------------------
    def mmap(self, nbytes: int, contiguous_physical: bool = False) -> int:
        """Allocate a zero-filled region; returns its (page-aligned) vaddr.

        ``contiguous_physical=True`` models driver-preallocated memory
        mapped into user space (the rejected section-5.1 alternative).
        """
        if nbytes <= 0:
            raise ValueError("mmap size must be positive")
        npages = (nbytes + PAGE_SIZE - 1) // PAGE_SIZE
        vaddr = self._next_vaddr
        self._next_vaddr += npages * PAGE_SIZE
        frames = (self.memory.alloc_contiguous(npages, owner=self.name)
                  if contiguous_physical
                  else self.memory.alloc_frames(npages, owner=self.name))
        first_vpage = vpage_of(vaddr)
        for i, frame in enumerate(frames):
            self._table[first_vpage + i] = frame
        return vaddr

    def munmap(self, vaddr: int, nbytes: int) -> None:
        """Unmap and free a previously mapped region.

        All or nothing: if any page of the range is unmapped or pinned
        the call raises before anything is unmapped or freed.
        """
        first = vpage_of(vaddr)
        vpages = range(first, first + pages_spanned(vaddr, nbytes))
        for vpage in vpages:
            frame = self._table.get(vpage)
            if frame is None:
                raise PageFault(f"munmap of unmapped page {vpage:#x}")
            if frame.pinned:
                raise ValueError(f"cannot free pinned frame {frame.number}")
        for vpage in vpages:
            self.memory.free_frame(self._table.pop(vpage))

    def mapped(self, vaddr: int) -> bool:
        return vpage_of(vaddr) in self._table

    @property
    def mapped_pages(self) -> int:
        return len(self._table)

    # -- translation -------------------------------------------------------------
    def translate(self, vaddr: int) -> int:
        """Virtual → physical translation of a single address."""
        vpage, offset = divmod(vaddr, PAGE_SIZE)
        frame = self._table.get(vpage)
        if frame is None:
            raise PageFault(
                f"{self.name}: unmapped virtual address {vaddr:#x}")
        return frame.number * PAGE_SIZE + offset

    def frame_of(self, vaddr: int) -> Frame:
        frame = self._table.get(vpage_of(vaddr))
        if frame is None:
            raise PageFault(
                f"{self.name}: unmapped virtual address {vaddr:#x}")
        return frame

    def physical_extents(self, vaddr: int, nbytes: int
                         ) -> list[tuple[int, int]]:
        """Break [vaddr, vaddr+nbytes) into physically contiguous pieces.

        Returns ``(paddr, length)`` pairs, one per *physical* run; since the
        allocator scatters frames, runs rarely exceed one page — which is
        exactly the property that limits DMA transfer units (section 5.2).
        """
        extents: list[tuple[int, int]] = []
        remaining = nbytes
        cursor = vaddr
        while remaining > 0:
            paddr = self.translate(cursor)
            chunk = min(remaining, PAGE_SIZE - page_offset(cursor))
            if extents and extents[-1][0] + extents[-1][1] == paddr:
                extents[-1] = (extents[-1][0], extents[-1][1] + chunk)
            else:
                extents.append((paddr, chunk))
            cursor += chunk
            remaining -= chunk
        return extents

    # -- pinning -------------------------------------------------------------------
    def pin_range(self, vaddr: int, nbytes: int) -> list[int]:
        """Pin every page the range touches; returns the frame numbers."""
        first = vpage_of(vaddr)
        frames = []
        for vpage in range(first, first + pages_spanned(vaddr, nbytes)):
            frame = self._table.get(vpage)
            if frame is None:
                raise PageFault(f"pin of unmapped page {vpage:#x}")
            self.memory.pin(frame.number)
            frames.append(frame.number)
        return frames

    def unpin_range(self, vaddr: int, nbytes: int) -> None:
        first = vpage_of(vaddr)
        for vpage in range(first, first + pages_spanned(vaddr, nbytes)):
            self.memory.unpin(self._table[vpage].number)

    def is_pinned(self, vaddr: int, nbytes: int) -> bool:
        first = vpage_of(vaddr)
        return all(
            self._table[vpage].pinned
            for vpage in range(first, first + pages_spanned(vaddr, nbytes))
            if vpage in self._table)

    # -- virtual data access -----------------------------------------------------------
    def read(self, vaddr: int, nbytes: int) -> np.ndarray:
        """Copy bytes out of virtual memory (may cross page boundaries)."""
        if 0 < nbytes <= PAGE_SIZE - vaddr % PAGE_SIZE:
            # Inside one page: one lookup, no extents list.
            paddr = self.translate(vaddr)
            return self.memory.data[paddr:paddr + nbytes].copy()
        out = np.empty(nbytes, dtype=np.uint8)
        done = 0
        for paddr, length in self.physical_extents(vaddr, nbytes):
            out[done:done + length] = self.memory.view(paddr, length)
            done += length
        return out

    def write(self, vaddr: int, payload: np.ndarray | bytes) -> None:
        if not isinstance(payload, (bytes, bytearray)):
            payload = np.asarray(payload, dtype=np.uint8)
        nbytes = len(payload)
        if 0 < nbytes <= PAGE_SIZE - vaddr % PAGE_SIZE:
            self.memory.write(self.translate(vaddr), payload)
            return
        done = 0
        for paddr, length in self.physical_extents(vaddr, nbytes):
            self.memory.write(paddr, payload[done:done + length])
            done += length
