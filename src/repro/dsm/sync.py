"""Synchronisation primitives and the application facade.

Barriers and locks ride on :mod:`repro.mp` in **resilient** mode (its
own channel namespace, ``dsm.mp``), so a daemon cold restart can stall
but never wedge a barrier.  Locks are a centralised manager at rank 0 —
acquire/release request messages, grant replies, one FIFO queue per
lock — which is all the MRSW protocol needs from them: mutual exclusion
with SC memory between the grant and the release.

:class:`DsmSegment` is what applications program against: a flat byte
address space over the shared pages with ``alloc`` / ``read`` /
``write`` (page-spanning), word operations, ``barrier`` and
``lock``/``unlock``.
"""

from __future__ import annotations

import numpy as np

from repro.sim import Resource
from repro.sim.trace import emit
from repro.obs.metrics import count
from repro.mp.collectives import barrier as mp_barrier
from repro.mp.comm import wire_world
from repro.dsm.node import DsmError, DsmNode, wire_dsm

#: mp tags for lock traffic — above the collectives' tag space.
TAG_LOCK_REQ = 1 << 21
TAG_LOCK_GRANT = (1 << 21) + 1

_ACQUIRE = 1
_RELEASE = 0


def _u32(value: int) -> bytes:
    return np.uint32(value).tobytes()


class LockService:
    """Centralised locks, managed at rank 0.

    Remote ranks send ``[lock_id, op]`` requests over mp and wait for
    the grant message; rank 0 short-circuits to the local queue (mp has
    no self-channels).  Per-client server loops keep a blocked acquire
    from ever stalling another client's release.
    """

    def __init__(self, comms):
        self.comms = comms
        self.env = comms[0].env
        self._locks: dict[int, Resource] = {}
        self._grants: dict[tuple[int, int], object] = {}
        self._started = False

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        server = self.comms[0]
        for client in range(1, server.size):
            self.env.process(self._serve(server, client),
                             name=f"dsm.locks.client{client}")

    def _serve(self, server, client: int):
        while True:
            raw = yield server.recv(client, tag=TAG_LOCK_REQ)
            words = np.frombuffer(raw, dtype=np.uint32)
            lock_id, op = int(words[0]), int(words[1])
            if op == _ACQUIRE:
                yield from self._acquire_local(client, lock_id)
                yield server.send(client, b"g", tag=TAG_LOCK_GRANT)
            else:
                self._release_local(client, lock_id)

    def _acquire_local(self, holder: int, lock_id: int):
        lock = self._locks.get(lock_id)
        if lock is None:
            lock = self._locks[lock_id] = Resource(self.env, capacity=1)
        grant = lock.request()
        yield grant
        self._grants[(holder, lock_id)] = grant

    def _release_local(self, holder: int, lock_id: int) -> None:
        grant = self._grants.pop((holder, lock_id), None)
        if grant is None:
            raise DsmError(
                f"rank {holder} released lock {lock_id} without "
                f"holding it")
        self._locks[lock_id].release(grant)

    # -- client side --------------------------------------------------------
    def acquire(self, rank: int, lock_id: int):
        """Generator: block until ``rank`` holds ``lock_id``."""
        if rank == 0:
            yield from self._acquire_local(0, lock_id)
        else:
            comm = self.comms[rank]
            yield comm.send(0, _u32(lock_id) + _u32(_ACQUIRE),
                            tag=TAG_LOCK_REQ)
            yield comm.recv(0, tag=TAG_LOCK_GRANT)
        count(self.env, "dsm.lock_acquires", node=rank)
        emit(self.env, "dsm.lock.acquire", node=rank, lock=lock_id)

    def release(self, rank: int, lock_id: int):
        """Generator: release ``lock_id`` (must be held by ``rank``)."""
        if rank == 0:
            self._release_local(0, lock_id)
            if False:
                yield  # pragma: no cover - keeps this a generator
        else:
            yield self.comms[rank].send(
                0, _u32(lock_id) + _u32(_RELEASE), tag=TAG_LOCK_REQ)
        emit(self.env, "dsm.lock.release", node=rank, lock=lock_id)


class DsmSegment:
    """One rank's handle on the shared segment."""

    def __init__(self, node: DsmNode, comm, locks: LockService):
        self.node = node
        self.comm = comm
        self.locks = locks
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
        """Generator: dissemination barrier across all ranks."""
        yield from mp_barrier(self.comm)
        count(self.node.env, "dsm.barriers", node=self.rank)
        emit(self.node.env, "dsm.barrier", node=self.rank)

    def lock(self, lock_id: int):
        """Generator: acquire the named global lock."""
        yield from self.locks.acquire(self.rank, lock_id)

    def unlock(self, lock_id: int):
        """Generator: release the named global lock."""
        yield from self.locks.release(self.rank, lock_id)


def wire_dsm_world(cluster, npages: int = 64, page_bytes: int = 256,
                   nslots: int = 4):
    """Process: wire the DSM mesh **and** the sync substrate; the
    process's value is the list of :class:`DsmSegment` s (one per
    rank)."""
    env = cluster.env

    def build():
        nodes = yield wire_dsm(cluster, npages=npages,
                               page_bytes=page_bytes, nslots=nslots)
        comms = yield wire_world(cluster, nslots=4, slot_bytes=128,
                                 resilient=True, prefix="dsm.mp")
        locks = LockService(comms)
        locks.start()
        return [DsmSegment(node, comm, locks)
                for node, comm in zip(nodes, comms)]

    return env.process(build(), name="dsm.wire_world")


def build_dsm_world(cluster, npages: int = 64, page_bytes: int = 256,
                    nslots: int = 4):
    """Blocking variant of :func:`wire_dsm_world`."""
    return cluster.env.run(until=wire_dsm_world(
        cluster, npages=npages, page_bytes=page_bytes, nslots=nslots))
