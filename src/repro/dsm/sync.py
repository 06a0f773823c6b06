"""The application facade over a wired DSM world.

:class:`DsmSegment` is what applications program against: a flat byte
address space over the shared pages with ``alloc`` / ``read`` /
``write`` (page-spanning), word operations, ``barrier`` and
``lock``/``unlock``.

Barriers and locks are requests to rank 0 on the coherence mesh itself
(``wire.OP_BARRIER`` / ``OP_LOCK`` / ``OP_UNLOCK``, served by
:class:`~repro.dsm.node.DsmNode` beside ``OP_ALLOC``), so they inherit
the reliable channels' exactly-once delivery: a daemon cold restart can
stall but never wedge a barrier.  Locks are one FIFO queue per lock id —
all the MRSW protocol needs from them: mutual exclusion with SC memory
between the grant and the release.
"""

from __future__ import annotations

from repro.dsm.node import DsmError, DsmNode, wire_dsm


class DsmSegment:
    """One rank's handle on the shared segment."""

    def __init__(self, node: DsmNode):
        self.node = node
        self.rank = node.rank
        self.page_bytes = node.page_bytes
        self.nbytes = node.npages * node.page_bytes

    # -- memory -------------------------------------------------------------
    def alloc(self, nbytes: int):
        """Generator: reserve ``nbytes`` (rounded up to whole pages);
        returns the base address."""
        if nbytes <= 0:
            raise DsmError(f"alloc of {nbytes} bytes")
        npages = -(-nbytes // self.page_bytes)
        first = yield from self.node.alloc(npages)
        return first * self.page_bytes

    def _span(self, addr: int, nbytes: int):
        if addr < 0 or addr + nbytes > self.nbytes:
            raise DsmError(
                f"access [{addr}, {addr + nbytes}) beyond segment "
                f"size {self.nbytes}")
        while nbytes:
            page, offset = divmod(addr, self.page_bytes)
            chunk = min(nbytes, self.page_bytes - offset)
            yield page, offset, chunk
            addr += chunk
            nbytes -= chunk

    def read(self, addr: int, nbytes: int):
        """Generator: load ``nbytes`` starting at ``addr`` (may span
        pages; each page access is individually SC)."""
        parts = []
        for page, offset, chunk in self._span(addr, nbytes):
            parts.append(
                (yield from self.node.read_bytes(page, offset, chunk)))
        return b"".join(parts)

    def write(self, addr: int, data: bytes):
        """Generator: store ``data`` starting at ``addr``."""
        data = bytes(data)
        done = 0
        for page, offset, chunk in self._span(addr, len(data)):
            yield from self.node.write_bytes(
                page, offset, data[done:done + chunk])
            done += chunk

    def read_u32(self, addr: int):
        """Generator: SC 4-byte load at ``addr`` (page-aligned access)."""
        page, offset = divmod(addr, self.page_bytes)
        return (yield from self.node.read_u32(page, offset))

    def write_u32(self, addr: int, value: int):
        """Generator: SC 4-byte store at ``addr``."""
        page, offset = divmod(addr, self.page_bytes)
        yield from self.node.write_u32(page, offset, value)

    # -- synchronisation ----------------------------------------------------
    def barrier(self):
        """Generator: block until every rank has reached the barrier."""
        yield from self.node.barrier()

    def lock(self, lock_id: int):
        """Generator: acquire the named global lock."""
        yield from self.node.lock(lock_id)

    def unlock(self, lock_id: int):
        """Generator: release the named global lock; :class:`DsmError`
        if this rank does not hold it."""
        yield from self.node.unlock(lock_id)


def wire_dsm_world(cluster, npages: int = 64, page_bytes: int = 256,
                   nslots: int = 4):
    """Process: wire the DSM mesh (:func:`~repro.dsm.node.wire_dsm`);
    the process's value is the list of :class:`DsmSegment` s (one per
    rank)."""
    def build():
        nodes = yield wire_dsm(cluster, npages=npages,
                               page_bytes=page_bytes, nslots=nslots)
        return [DsmSegment(node) for node in nodes]

    return cluster.env.process(build(), name="dsm.wire_world")


def build_dsm_world(cluster, npages: int = 64, page_bytes: int = 256,
                    nslots: int = 4):
    """Blocking variant of :func:`wire_dsm_world`."""
    return cluster.env.run(until=wire_dsm_world(
        cluster, npages=npages, page_bytes=page_bytes, nslots=nslots))
