"""User-visible buffer handles.

A :class:`UserBuffer` is what application code passes to the communication
libraries: a (address space, vaddr, length) triple with convenience
accessors.  It is intentionally a thin handle — VMMC's zero-copy property
means the library never copies the buffer contents on the receive side, and
tests verify that by writing through one buffer handle and reading the same
bytes through another that maps the exported region.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.mem.virtual import AddressSpace, PAGE_SIZE, page_offset


class UserBuffer:
    """A contiguous virtual-memory region owned by one address space."""

    def __init__(self, space: AddressSpace, vaddr: int, nbytes: int):
        if nbytes <= 0:
            raise ValueError("buffer length must be positive")
        self.space = space
        self.vaddr = vaddr
        self.nbytes = nbytes
        #: Pending arms, ``(physical extents, event)`` in arm order;
        #: None until the first :meth:`arm`.
        self._arms: list | None = None

    @classmethod
    def alloc(cls, space: AddressSpace, nbytes: int) -> "UserBuffer":
        """Allocate a fresh page-aligned buffer in ``space``."""
        return cls(space, space.mmap(nbytes), nbytes)

    def slice(self, offset: int, nbytes: int) -> "UserBuffer":
        """A sub-buffer (no allocation)."""
        if offset < 0 or offset + nbytes > self.nbytes:
            raise ValueError("slice outside buffer")
        return UserBuffer(self.space, self.vaddr + offset, nbytes)

    # -- data access ---------------------------------------------------------
    def read(self, offset: int = 0, nbytes: int | None = None) -> np.ndarray:
        nbytes = self.nbytes - offset if nbytes is None else nbytes
        if offset < 0 or offset + nbytes > self.nbytes:
            raise ValueError("read outside buffer")
        return self.space.read(self.vaddr + offset, nbytes)

    def write(self, payload: np.ndarray | bytes, offset: int = 0) -> None:
        length = len(payload)
        if offset < 0 or offset + length > self.nbytes:
            raise ValueError("write outside buffer")
        self.space.write(self.vaddr + offset, payload)

    def read_u32(self, offset: int = 0) -> int:
        """The 32-bit word at ``offset`` (little-endian, like the wire
        headers)."""
        vaddr = self.vaddr + offset
        if 0 <= offset <= self.nbytes - 4 and \
                vaddr % PAGE_SIZE <= PAGE_SIZE - 4:     # inside one page
            space = self.space
            return struct.unpack_from("<I", space.memory.raw,
                                      space.translate(vaddr))[0]
        return int.from_bytes(self.read(offset, 4).tobytes(), "little")

    def write_u32(self, value: int, offset: int = 0) -> None:
        """Store ``value`` modulo 2**32 as a little-endian word."""
        self.write((value & 0xFFFFFFFF).to_bytes(4, "little"), offset)

    def fill(self, value: int) -> None:
        self.write(np.full(self.nbytes, value, dtype=np.uint8))

    def tobytes(self) -> bytes:
        return self.read().tobytes()

    # -- write watching --------------------------------------------------------
    def arm(self, event, offset: int = 0, nbytes: int | None = None) -> None:
        """Succeed ``event`` with the ``(paddr, nbytes)`` of the next
        device write into ``nbytes`` at ``offset`` (default: the rest of
        the buffer): one look of a CPU spinning there.  The buffer's one
        standing watcher, registered at its first arm, fires the arms a
        write touches, in arm order (a :meth:`slice` has its own)."""
        span = self.nbytes - offset if nbytes is None else nbytes
        if offset < 0 or offset + span > self.nbytes:
            raise ValueError("watch outside buffer")
        space = self.space
        if self._arms is None:
            self._arms = []
            space.memory.watch_writes(
                space.physical_extents(self.vaddr, self.nbytes), self._written)
        self._arms.append(
            (space.physical_extents(self.vaddr + offset, span), event))

    def _written(self, paddr: int, nbytes: int) -> None:
        end, pending = paddr + nbytes, []
        for arm in self._arms:
            for start, length in arm[0]:
                if start < end and paddr < start + length:
                    arm[1].succeed((paddr, nbytes))
                    break
            else:
                pending.append(arm)
        self._arms = pending

    # -- geometry --------------------------------------------------------------
    @property
    def page_aligned(self) -> bool:
        return page_offset(self.vaddr) == 0

    @property
    def npages(self) -> int:
        from repro.mem.virtual import pages_spanned

        return pages_spanned(self.vaddr, self.nbytes)

    def __len__(self) -> int:
        return self.nbytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"UserBuffer({self.space.name}, vaddr={self.vaddr:#x}, "
                f"nbytes={self.nbytes})")
