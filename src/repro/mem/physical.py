"""Byte-accurate physical memory with a fragmenting frame allocator.

The testbed machines had 64 MB of EDO DRAM (paper section 5.1).  We model
physical memory as a numpy ``uint8`` array indexed by physical address, plus
a frame allocator.  The allocator hands out frames in a *scattered* order on
purpose: a stride-permuted sequence, so that two frames allocated
back-to-back are almost never physically adjacent.  That reproduces the
fragmentation of a long-running system and makes the paper's central
hardware limitation structural — DMA transfer units cannot exceed one page
because "consecutive pages in virtual memory are usually not consecutive in
the physical address space" (section 5.2).

Only the byte array is sized by the memory modelled.  The free list is the
scatter walk itself, computed on the fly, and a :class:`Frame` object
exists only once its frame has been allocated or pinned — so a node costs
what it touches, not what it models.
"""

from __future__ import annotations

import mmap
from collections import deque
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Optional

import numpy as np


class OutOfMemoryError(MemoryError):
    """No free physical frames remain."""


@dataclass
class Frame:
    """One physical page frame."""

    number: int
    pin_count: int = 0
    owner: Optional[str] = None

    @property
    def pinned(self) -> bool:
        return self.pin_count > 0


def _scatter_stride(nframes: int, stride: int = 41) -> int:
    """The smallest stride >= ``stride`` co-prime with ``nframes``."""
    while _gcd(stride, nframes) != 1:
        stride += 1
    return stride


def _scatter_order(nframes: int, stride: int = 41) -> list[int]:
    """A permutation of frame numbers that scatters consecutive picks.

    Uses a stride co-prime with ``nframes`` so that the sequence visits
    every frame exactly once while neighbouring picks land ``stride`` frames
    apart — mimicking the free-list of a fragmented system.

    :class:`PhysicalMemory` walks this sequence one pick at a time and
    never builds the list; it is kept as the oracle the allocator's
    tests compare against.
    """
    if nframes <= 0:
        return []
    stride = _scatter_stride(nframes, stride)
    return [(i * stride) % nframes for i in range(nframes)]


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def zeroed_bytes(size: int) -> np.ndarray:
    """``size`` zero bytes, committed a page at a time on first touch.

    A private anonymous mapping, not np.zeros: that madvises
    MADV_HUGEPAGE on a big array (2 MB per scattered touch, or not, by
    the luck of the alignment), and below glibc's adaptive mmap
    threshold (a 256 KB SRAM, once a big block was freed) it callocs
    from the heap and commits every byte (EXPERIMENTS.md "E-hostperf").
    """
    if size <= 0:
        raise ValueError(f"a byte store needs a positive size, not {size}")
    return np.frombuffer(mmap.mmap(-1, size, access=mmap.ACCESS_COPY),
                         dtype=np.uint8)


class PhysicalMemory:
    """Physical memory: data array + frame allocation + pinning + the
    write watchers through which spinning CPUs see device writes.

    The free list is never materialized.  It is, in order: the part of
    the scatter walk the cursor has not reached (pick *i* is
    ``i * stride % nframes``; reserved frames and frames
    :meth:`alloc_contiguous` took ahead of the cursor are stepped over),
    then the frames freed so far, oldest first.
    """

    def __init__(self, size_bytes: int, page_size: int = 4096,
                 reserved_frames: int = 0):
        if size_bytes % page_size != 0:
            raise ValueError("memory size must be a whole number of pages")
        self.size = size_bytes
        self.page_size = page_size
        self.nframes = size_bytes // page_size
        self.data = zeroed_bytes(size_bytes)
        #: The same bytes as a memoryview, for ``bytes`` payloads.
        self.raw = memoryview(self.data)
        # reserved_frames models kernel-owned low memory never given to users.
        self._reserved = min(max(reserved_frames, 0), self.nframes)
        self._stride = _scatter_stride(self.nframes) if self.nframes else 1
        self._cursor = 0
        #: Free frames the cursor has yet to reach, and the ones it must
        #: step over because alloc_contiguous got there first.
        self._walk_free = self.nframes - self._reserved
        self._taken_ahead: set[int] = set()
        self._freed: deque[int] = deque()
        self._allocated: set[int] = set()
        #: Frames ever allocated or pinned; the rest have no object.
        self._frames: dict[int, Frame] = {}
        #: frame number -> [(registration seq, paddr, nbytes, callback)],
        #: in registration order (:meth:`watch_writes`)
        self._watches: dict[int, list[tuple]] = {}
        self._watch_seq = 0

    def _frame(self, number: int) -> Frame:
        frame = self._frames.get(number)
        if frame is None:
            if not 0 <= number < self.nframes:
                raise IndexError(f"no frame {number} in a memory of "
                                 f"{self.nframes} frames")
            frame = self._frames[number] = Frame(number)
        return frame

    def _hand_out(self, number: int, owner: Optional[str]) -> Frame:
        self._allocated.add(number)
        frame = self._frame(number)
        frame.owner = owner
        return frame

    # -- allocation ---------------------------------------------------------
    @property
    def free_frames(self) -> int:
        return self._walk_free + len(self._freed)

    def alloc_frame(self, owner: Optional[str] = None) -> Frame:
        """Allocate one frame (scattered order)."""
        if self._walk_free:
            while True:
                number = self._cursor * self._stride % self.nframes
                self._cursor += 1
                if number in self._taken_ahead:
                    self._taken_ahead.remove(number)
                elif number >= self._reserved:
                    break
            self._walk_free -= 1
        elif self._freed:
            number = self._freed.popleft()
        else:
            raise OutOfMemoryError(
                f"out of physical memory ({self.nframes} frames)")
        return self._hand_out(number, owner)

    def alloc_frames(self, count: int, owner: Optional[str] = None
                     ) -> list[Frame]:
        if count > self.free_frames:
            raise OutOfMemoryError(
                f"requested {count} frames, only {self.free_frames} free")
        return [self.alloc_frame(owner) for _ in range(count)]

    def alloc_contiguous(self, count: int, owner: Optional[str] = None
                         ) -> list[Frame]:
        """Allocate physically *contiguous* frames (driver-reserved memory).

        This is what a driver-preallocated buffer pool would use — the
        alternative design the paper rejects in section 5.1 because it
        cannot support sends from static user data structures.

        Takes the lowest-numbered free run that is long enough.
        """
        run = 0
        # A frame is free iff it is neither reserved nor allocated.
        for number in range(self._reserved, self.nframes):
            run = 0 if number in self._allocated else run + 1
            if run and run >= count:
                chosen = range(number - run + 1, number - run + 1 + count)
                break
        else:
            raise OutOfMemoryError(
                f"no contiguous run of {count} frames available")
        for number in chosen:
            try:
                self._freed.remove(number)
            except ValueError:      # still ahead of the cursor on the walk
                self._taken_ahead.add(number)
                self._walk_free -= 1
        return [self._hand_out(number, owner) for number in chosen]

    def free_frame(self, frame: Frame) -> None:
        if frame.number not in self._allocated:
            raise ValueError(f"frame {frame.number} is not allocated")
        if frame.pinned:
            raise ValueError(f"cannot free pinned frame {frame.number}")
        self._allocated.discard(frame.number)
        frame.owner = None
        self._freed.append(frame.number)

    # -- pinning --------------------------------------------------------------
    def pin(self, frame_number: int) -> None:
        """Pin a frame (lock it in memory); pins nest."""
        self._frame(frame_number).pin_count += 1

    def unpin(self, frame_number: int) -> None:
        frame = self._frames.get(frame_number)
        if frame is None or frame.pin_count == 0:
            raise ValueError(f"frame {frame_number} is not pinned")
        frame.pin_count -= 1

    @property
    def pinned_frames(self) -> int:
        return sum(1 for f in self._frames.values() if f.pinned)

    # -- data access (by physical address) -----------------------------------
    def read(self, paddr: int, nbytes: int) -> np.ndarray:
        """Return a *copy* of ``nbytes`` at physical address ``paddr``."""
        if paddr < 0 or paddr + nbytes > self.size:
            self._check_range(paddr, nbytes)
        return self.data[paddr:paddr + nbytes].copy()

    def write(self, paddr: int, payload: np.ndarray | bytes) -> None:
        if isinstance(payload, (bytes, bytearray)):
            target = self.raw
        else:
            target, payload = self.data, np.asarray(payload, dtype=np.uint8)
        end = paddr + len(payload)
        if paddr < 0 or end > self.size:
            self._check_range(paddr, len(payload))
        target[paddr:end] = payload

    def view(self, paddr: int, nbytes: int) -> np.ndarray:
        """A mutable *view* (no copy) — used by DMA engines."""
        if paddr < 0 or paddr + nbytes > self.size:
            self._check_range(paddr, nbytes)
        return self.data[paddr:paddr + nbytes]

    def _check_range(self, paddr: int, nbytes: int) -> None:
        """Raise on an access outside the memory (the hot accessors test
        the range inline and call this only when it fails)."""
        if paddr < 0 or paddr + nbytes > self.size:
            raise ValueError(
                f"physical access [{paddr}, {paddr + nbytes}) outside "
                f"memory of {self.size} bytes")

    # -- write watchers (device-write visibility for spinning CPUs) -----------
    def watch_writes(self, extents: Iterable[tuple[int, int]],
                     callback: Callable[[int, int], None]) -> None:
        """Register a standing watcher: ``callback(paddr, nbytes)`` runs
        with the whole written range on every device write that touches
        any of ``extents``, once per write however many of them it spans.
        It models a CPU spinning there, whose cache line the deposit
        invalidates; it is never removed."""
        seq = self._watch_seq
        self._watch_seq += 1
        page_size = self.page_size
        for paddr, nbytes in extents:
            record = (seq, paddr, nbytes, callback)
            for frame in range(paddr // page_size,
                               (paddr + max(nbytes, 1) - 1) // page_size + 1):
                self._watches.setdefault(frame, []).append(record)

    def notify_write(self, paddr: int, nbytes: int) -> None:
        """Called by DMA engines after mutating [paddr, paddr+nbytes):
        runs each watcher the write touches once, in registration order
        (all found first: one a callback registers waits for the next)."""
        watches = self._watches
        if not watches:
            return
        end = paddr + nbytes
        hits = []
        page_size = self.page_size
        for frame in range(paddr // page_size,
                           (paddr + max(nbytes, 1) - 1) // page_size + 1):
            bucket = watches.get(frame)
            if bucket is not None:
                for record in bucket:
                    if record[1] < end and paddr < record[1] + record[2]:
                        hits.append(record)
        # Buckets are in registration order; merge, one call per watcher.
        hits.sort(key=itemgetter(0))
        last = -1
        for seq, _start, _length, callback in hits:
            if seq != last:
                last = seq
                callback(paddr, nbytes)

    # -- introspection ----------------------------------------------------------
    def frames_are_contiguous(self, frames: Iterable[Frame]) -> bool:
        numbers = [f.number for f in frames]
        return all(b == a + 1 for a, b in zip(numbers, numbers[1:]))
