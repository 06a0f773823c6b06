"""The DSM node: page store, fault handling, and the coherence engine.

Each rank holds one :class:`DsmNode` with:

* a local **page store** (``npages × page_bytes`` of ordinary memory) —
  the rank's cached/authoritative copies of shared pages;
* per-page **access rights** (``INV``/``READ``/``WRITE``) — the software
  page-protection bits a real DSM would keep in the MMU;
* the :class:`~repro.dsm.directory.PageDirectory` for the pages homed at
  this rank, plus per-page locks that serialise their transitions;
* one reliable VMMC channel to every peer (the paper's remote-write
  primitive, hardened by :mod:`repro.vmmc.reliable` so the protocol
  survives daemon cold restarts — invalidations and page pushes replay
  through the reimport path instead of vanishing in a crash window);
* at rank 0 only, the segment-wide services every other rank reaches
  with one request/reply over that mesh: the bump allocator, the
  barrier's arrival counter and the lock table.

Protocol shape: loads and stores hit the local store when access rights
allow (a *local hit*, no messages); otherwise the rank faults to the
page's home, whose directory plans the MRSW write-invalidate transition
— suppliers push page data **directly to the faulter** (three-party
transfer, the grant reply and the data race benignly), invalidations
fan out concurrently and are acknowledged before the grant commits.
Sequential consistency follows from per-page serialisation at the home
plus invalidate-before-grant.

Lifecycle integration: every channel import registers an
``on_invalidate`` callback; when a peer daemon cold-restarts, the
callback conservatively downgrades all non-owned pages to ``INV``
(owned pages are the authoritative copy and live in local memory — they
are never dropped).  The copies were still valid — the next access just
re-faults — so this trades a few refetches for never trusting a page
across a crash window.
"""

from __future__ import annotations

from repro.sim import Environment, Process, Resource, Timeout
from repro.sim.trace import emit
from repro.vmmc.api import ImportedBuffer, VMMCEndpoint
from repro.vmmc.reliable import HEADER_BYTES, open_mesh
from repro.dsm import wire
from repro.dsm.checker import DsmOp
from repro.dsm.directory import (
    DOWNGRADE, FLUSH, INVALIDATE, PUSH, PageDirectory,
)

INV = "inv"
READ = "read"
WRITE = "write"

#: Local page-table check + cache access cost per op, ns.
LOCAL_ACCESS_NS = 40
#: XDR framing slack on top of the page payload in a channel slot.
FRAME_OVERHEAD = 64

_ACTION_OPS = {
    INVALIDATE: wire.OP_INVALIDATE,
    FLUSH: wire.OP_FLUSH,
    DOWNGRADE: wire.OP_DOWNGRADE,
    PUSH: wire.OP_PUSH,
}
_OP_ACTIONS = {op: action for action, op in _ACTION_OPS.items()}


class DsmError(RuntimeError):
    """DSM misuse or protocol failure surfaced to the application."""


class DsmNode:
    """One rank's shared-memory engine."""

    def __init__(self, rank: int, nranks: int, ep: VMMCEndpoint,
                 npages: int, page_bytes: int):
        self.rank = rank
        self.nranks = nranks
        self.ep = ep
        self.env: Environment = ep.env
        self.npages = npages
        self.page_bytes = page_bytes
        self.store = ep.alloc_buffer(npages * page_bytes)
        self.access = [READ if page % nranks == rank else INV
                       for page in range(npages)]
        #: True while this rank is the directory owner of the page (the
        #: authoritative copy — never dropped by lifecycle downgrades).
        self.owned = [page % nranks == rank for page in range(npages)]
        self.directory = PageDirectory(rank, nranks, npages)
        self._tx: dict[int, object] = {}
        self._rx: dict[int, object] = {}
        self._pending: dict[int, object] = {}
        self._req_counter = 0
        self._xfer_counter = 0
        #: Completed page pushes not yet consumed by a fault (the data
        #: may outrun the grant reply — different channels).
        self._pages_received: set[tuple[int, int]] = set()
        self._page_waiters: dict[tuple[int, int], object] = {}
        #: Home-side per-page transition locks.
        self._page_locks: dict[int, Resource] = {}
        #: Requester-side serialisation of local faults per page.
        self._fault_locks: dict[int, Resource] = {}
        #: page → event: grant received, data not yet installed.  Member
        #: actions for the page park on this (the only window where the
        #: directory's view and local state legitimately disagree).
        self._installing: dict[int, object] = {}
        self._alloc_next = 0
        #: Rank 0's barrier epoch: arrivals so far and the event their
        #: replies park on until the last rank arrives.
        self._barrier_arrived = 0
        self._barrier_release = self.env.event()
        #: Rank 0's lock table: one FIFO resource per lock id, and the
        #: grant each holder must present to release.
        self._sync_locks: dict[int, Resource] = {}
        self._sync_grants: dict[tuple[int, int], object] = {}
        self.history: list[DsmOp] = []
        self.fetch_ns: list[int] = []
        self.read_faults = 0
        self.write_faults = 0
        self.local_hits = 0
        self.pages_fetched = 0
        self.invalidations = 0          #: copies dropped here by protocol
        self.invalidations_sent = 0     #: member messages fanned out (home)
        self.downgrades = 0             #: copies dropped by lifecycle
        self.barriers = 0
        self.lock_acquires = 0
        #: Fault kind -> its fetch times, while a registry is installed.
        self.fetch_samples_ns: dict[str, list[int]] = {"r": [], "w": []}
        self.env.collectors.append(self._collect)

    def _collect(self):
        rank = self.rank
        node = {"node": rank}
        for key, value in self.counters().items():
            yield "counter", f"dsm.{key}", node, value
        for kind, samples in self.fetch_samples_ns.items():
            yield ("histogram", "dsm.fault.fetch_ns",
                   {"node": rank, "kind": kind}, samples)
        reads = sum(op.kind == "r" for op in self.history)
        yield "counter", "dsm.ops", {"node": rank, "kind": "read"}, reads
        yield ("counter", "dsm.ops", {"node": rank, "kind": "write"},
               len(self.history) - reads)
        yield "counter", "dsm.barriers", node, self.barriers
        yield "counter", "dsm.lock_acquires", node, self.lock_acquires

    # -- topology ----------------------------------------------------------
    def home(self, page: int) -> int:
        return page % self.nranks

    def _check_page(self, page: int, offset: int, nbytes: int) -> None:
        if not 0 <= page < self.npages:
            raise DsmError(f"page {page} out of range")
        if offset < 0 or offset + nbytes > self.page_bytes:
            raise DsmError(
                f"access [{offset}, {offset + nbytes}) beyond page size "
                f"{self.page_bytes}")

    def _lock(self, table: dict, key: int) -> Resource:
        lock = table.get(key)
        if lock is None:
            lock = table[key] = Resource(self.env)
        return lock

    # -- messaging ---------------------------------------------------------
    def start(self) -> None:
        """Start one pump process per incoming channel."""
        for peer, receiver in sorted(self._rx.items()):
            self.env.process(self._pump(peer, receiver),
                             name=f"dsm.pump.{peer}->{self.rank}")

    def _pump(self, peer: int, receiver):
        recv, pending, decode = receiver.recv, self._pending, wire.decode
        while True:
            op, req_id, src, ints, blob = decode((yield recv()))
            if op == wire.OP_REPLY:
                waiter = pending.pop(req_id, None)
                if waiter is not None and not waiter._scheduled:
                    waiter.succeed(ints)        # untriggered: wake it
            elif op == wire.OP_PAGE:
                self._page_arrived(src, ints[0], ints[1], blob)
            else:
                Process(self.env, self._dispatch(op, req_id, src, ints),
                        name=f"dsm.{wire.op_name(op)}.{self.rank}")

    def _page_arrived(self, src: int, page: int, xfer: int,
                      blob: bytes) -> None:
        self.store.write(blob, offset=page * self.page_bytes)
        self.pages_fetched += 1
        if self.env.tracer is not None:
            emit(self.env, "dsm.fetch", node=self.rank, page=page,
                 xfer=xfer, supplier=src)
        key = (page, xfer)
        self._pages_received.add(key)
        waiter = self._page_waiters.pop(key, None)
        if waiter is not None and not waiter._scheduled:
            waiter.succeed()

    def _dispatch(self, op: int, req_id: int, src: int, ints):
        if op == wire.OP_READ_FAULT:
            result = yield from self._serve_read_fault(src, ints[0])
        elif op == wire.OP_WRITE_FAULT:
            result = yield from self._serve_write_fault(src, ints[0])
        elif op == wire.OP_ALLOC:
            result = self._serve_alloc(src, ints[0])
        elif op == wire.OP_BARRIER:
            result = yield from self._serve_barrier()
        elif op == wire.OP_LOCK:
            result = yield from self._serve_lock(src, ints[0])
        elif op == wire.OP_UNLOCK:
            result = self._serve_unlock(src, ints[0])
        elif op in (wire.OP_INVALIDATE, wire.OP_FLUSH,
                    wire.OP_DOWNGRADE, wire.OP_PUSH):
            action = _OP_ACTIONS[op]
            to_rank = ints[1] if len(ints) > 1 else 0
            xfer = ints[2] if len(ints) > 2 else 0
            result = yield from self._member_local(
                action, ints[0], to_rank, xfer)
        else:
            result = [wire.STATUS_ERANGE]
        yield self._tx[src].send(
            wire.encode(wire.OP_REPLY, req_id, self.rank, result))

    def _call(self, dst: int, op: int, ints, blob: bytes = b""):
        """Generator: request/reply to a peer; returns the reply ints."""
        self._req_counter += 1
        req_id = self._req_counter
        waiter = self.env.event()
        self._pending[req_id] = waiter
        yield self._tx[dst].send(
            wire.encode(op, req_id, self.rank, ints, blob))
        result = yield waiter
        return result

    def _push_page(self, page: int, to_rank: int, xfer: int):
        blob = self.store.read(
            page * self.page_bytes, self.page_bytes).tobytes()
        if to_rank == self.rank:
            self._page_arrived(self.rank, page, xfer, blob)
            return
        yield self._tx[to_rank].send(
            wire.encode(wire.OP_PAGE, 0, self.rank, [page, xfer], blob))

    # -- home-side fault service -------------------------------------------
    def _next_xfer(self) -> int:
        self._xfer_counter += 1
        return self._xfer_counter

    def _serve_read_fault(self, src: int, page: int):
        lock = self._lock(self._page_locks, page)
        grant = lock.request()
        yield grant
        try:
            supplier, action = self.directory.begin_read(page, src)
            xfer = self._next_xfer()
            if supplier == self.rank:
                yield from self._member_local(action, page, src, xfer)
            else:
                yield from self._call(
                    supplier, _ACTION_OPS[action], [page, src, xfer])
            self.directory.commit_read(page, src)
        finally:
            lock.release(grant)
        if self.env.tracer is not None:
            emit(self.env, "dsm.grant", node=self.rank, kind="read",
                 page=page, to=src, xfer=xfer)
        return [wire.STATUS_OK, xfer]

    def _serve_write_fault(self, src: int, page: int):
        lock = self._lock(self._page_locks, page)
        grant = lock.request()
        yield grant
        try:
            plan, needs_data = self.directory.begin_write(page, src)
            xfer = self._next_xfer() if needs_data else 0
            self.invalidations_sent += len(plan)
            children = [
                self.env.process(
                    self._member(member, action, page, src, xfer),
                    name=f"dsm.{action}.{member}")
                for member, action in plan
            ]
            for child in children:
                yield child
            self.directory.commit_write(page, src)
        finally:
            lock.release(grant)
        if self.env.tracer is not None:
            emit(self.env, "dsm.grant", node=self.rank, kind="write",
                 page=page, to=src, xfer=xfer)
        return [wire.STATUS_OK, xfer]

    def _serve_alloc(self, src: int, want: int) -> list:
        if self._alloc_next + want > self.npages:
            return [wire.STATUS_ERANGE, 0]
        first = self._alloc_next
        self._alloc_next += want
        if self.env.tracer is not None:
            emit(self.env, "dsm.alloc", node=self.rank, to=src,
                 first_page=first, npages=want)
        return [wire.STATUS_OK, first]

    def _serve_barrier(self):
        self._barrier_arrived += 1
        if self._barrier_arrived < self.nranks:
            yield self._barrier_release
        else:
            release = self._barrier_release
            self._barrier_arrived = 0
            self._barrier_release = self.env.event()
            release.succeed()
        return [wire.STATUS_OK]

    def _serve_lock(self, src: int, lock_id: int):
        grant = self._lock(self._sync_locks, lock_id).request()
        yield grant
        self._sync_grants[(src, lock_id)] = grant
        return [wire.STATUS_OK]

    def _serve_unlock(self, src: int, lock_id: int) -> list:
        grant = self._sync_grants.pop((src, lock_id), None)
        if grant is None:
            return [wire.STATUS_NOT_HELD]
        self._sync_locks[lock_id].release(grant)
        return [wire.STATUS_OK]

    def _member(self, member: int, action: str, page: int, to_rank: int,
                xfer: int):
        if member == self.rank:
            yield from self._member_local(action, page, to_rank, xfer)
        else:
            ints = ([page] if action == INVALIDATE
                    else [page, to_rank, xfer])
            yield from self._call(member, _ACTION_OPS[action], ints)

    def _member_local(self, action: str, page: int, to_rank: int,
                      xfer: int):
        """Generator: perform one member action on the local copy.
        Parks while a just-granted fault on the page is still installing
        its data — the one window where local state lags the directory."""
        pending = self._installing.get(page)
        while pending is not None:
            yield pending
            pending = self._installing.get(page)
        # Revoke the right before the page is read for the push, with no
        # yield in between: the push parks on its reliable send, and a
        # local write that still hit during it would commit after the
        # snapshot and vanish with the copy.
        had_copy = self.access[page] != INV
        if action in (FLUSH, INVALIDATE):
            self.access[page] = INV
        elif action == DOWNGRADE and self.access[page] == WRITE:
            self.access[page] = READ
        if action in (FLUSH, DOWNGRADE, PUSH):
            yield from self._push_page(page, to_rank, xfer)
        if action in (FLUSH, INVALIDATE):
            if had_copy:
                self.invalidations += 1
                if self.env.tracer is not None:
                    emit(self.env, "dsm.invalidate", node=self.rank,
                         page=page)
            self.owned[page] = False
        return [wire.STATUS_OK]

    # -- requester-side faults ---------------------------------------------
    def _fault(self, kind: str, page: int):
        """Generator: resolve one access fault; returns when the page is
        readable (``kind == "r"``) or writable (``kind == "w"``)."""
        lock = self._lock(self._fault_locks, page)
        grant = lock.request()
        yield grant
        try:
            want = READ if kind == "r" else WRITE
            if self.access[page] == want or self.access[page] == WRITE:
                return  # a concurrent local fault already resolved it
            started = self.env._now
            if kind == "r":
                self.read_faults += 1
            else:
                self.write_faults += 1
            if self.env.tracer is not None:
                emit(self.env, "dsm.fault", node=self.rank, kind=kind,
                     page=page)
            fault_op = (wire.OP_READ_FAULT if kind == "r"
                        else wire.OP_WRITE_FAULT)
            home = page % self.nranks
            if home == self.rank:
                if kind == "r":
                    result = yield from self._serve_read_fault(
                        self.rank, page)
                else:
                    result = yield from self._serve_write_fault(
                        self.rank, page)
            else:
                result = yield from self._call(home, fault_op, [page])
            status, xfer = result[0], result[1]
            if status != wire.STATUS_OK:
                raise DsmError(
                    f"rank {self.rank}: fault on page {page} denied "
                    f"(status {status})")
            # From here to install completion no yields may intervene
            # before _installing is set — member actions for later
            # transitions must find the flag.
            if xfer:
                key = (page, xfer)
                if key not in self._pages_received:
                    install = self.env.event()
                    self._installing[page] = install
                    yield self._page_waiter(key)
                    del self._installing[page]
                    install.succeed()
                self._pages_received.discard(key)
            if kind == "w":
                self.access[page] = WRITE
                self.owned[page] = True
            elif self.access[page] == INV:
                self.access[page] = READ
            fetch_ns = self.env._now - started
            self.fetch_ns.append(fetch_ns)
            if self.env.metrics is not None:
                self.fetch_samples_ns[kind].append(fetch_ns)
        finally:
            lock.release(grant)

    def _page_waiter(self, key):
        waiter = self._page_waiters.get(key)
        if waiter is None:
            waiter = self._page_waiters[key] = self.env.event()
        return waiter

    # -- application operations --------------------------------------------
    def read_u32(self, page: int, offset: int):
        """Generator: sequentially-consistent 4-byte load."""
        self._check_page(page, offset, 4)
        env = self.env
        started = env._now
        faulted = False
        while True:
            yield Timeout(env, LOCAL_ACCESS_NS)
            if self.access[page] != INV:
                value = self.store.read_u32(page * self.page_bytes + offset)
                committed = env._now
                break
            faulted = True
            yield from self._fault("r", page)
        if not faulted:
            self.local_hits += 1
        self.history.append(DsmOp(
            node=self.rank, index=len(self.history), kind="r", page=page,
            offset=offset, value=value, start_ns=started,
            commit_ns=committed, end_ns=env._now))
        return value

    def write_u32(self, page: int, offset: int, value: int):
        """Generator: sequentially-consistent 4-byte store."""
        self._check_page(page, offset, 4)
        env = self.env
        started = env._now
        faulted = False
        while True:
            yield Timeout(env, LOCAL_ACCESS_NS)
            if self.access[page] == WRITE:
                self.store.write_u32(value, page * self.page_bytes + offset)
                committed = env._now
                break
            faulted = True
            yield from self._fault("w", page)
        if not faulted:
            self.local_hits += 1
        self.history.append(DsmOp(
            node=self.rank, index=len(self.history), kind="w", page=page,
            offset=offset, value=value, start_ns=started,
            commit_ns=committed, end_ns=env._now))

    def read_bytes(self, page: int, offset: int, nbytes: int):
        """Generator: byte-range load within one page (not recorded in
        the SC history — the checker tracks the u32 ops)."""
        self._check_page(page, offset, nbytes)
        while True:
            yield Timeout(self.env, LOCAL_ACCESS_NS)
            if self.access[page] != INV:
                return self.store.read(
                    page * self.page_bytes + offset, nbytes).tobytes()
            yield from self._fault("r", page)

    def write_bytes(self, page: int, offset: int, data: bytes):
        """Generator: byte-range store within one page."""
        data = bytes(data)
        self._check_page(page, offset, len(data))
        while True:
            yield Timeout(self.env, LOCAL_ACCESS_NS)
            if self.access[page] == WRITE:
                self.store.write(data,
                                 offset=page * self.page_bytes + offset)
                return
            yield from self._fault("w", page)

    def alloc(self, npages: int):
        """Generator: reserve ``npages`` contiguous pages from the
        segment-wide bump allocator (homed at rank 0); returns the first
        page number."""
        if self.rank == 0:
            result = self._serve_alloc(self.rank, npages)
        else:
            result = yield from self._call(0, wire.OP_ALLOC, [npages])
        if result[0] != wire.STATUS_OK:
            raise DsmError(
                f"rank {self.rank}: alloc of {npages} pages denied")
        return result[1]

    # -- synchronisation (served at rank 0) ---------------------------------
    def barrier(self):
        """Generator: block until every rank has arrived."""
        if self.rank == 0:
            yield from self._serve_barrier()
        else:
            yield from self._call(0, wire.OP_BARRIER, [])
        self.barriers += 1
        if self.env.tracer is not None:
            emit(self.env, "dsm.barrier", node=self.rank)

    def lock(self, lock_id: int):
        """Generator: block until this rank holds ``lock_id``."""
        if self.rank == 0:
            yield from self._serve_lock(self.rank, lock_id)
        else:
            yield from self._call(0, wire.OP_LOCK, [lock_id])
        self.lock_acquires += 1
        if self.env.tracer is not None:
            emit(self.env, "dsm.lock.acquire", node=self.rank, lock=lock_id)

    def unlock(self, lock_id: int):
        """Generator: release ``lock_id`` (must be held by this rank)."""
        if self.rank == 0:
            result = self._serve_unlock(self.rank, lock_id)
        else:
            result = yield from self._call(0, wire.OP_UNLOCK, [lock_id])
        if result[0] != wire.STATUS_OK:
            raise DsmError(
                f"rank {self.rank} released lock {lock_id} without "
                f"holding it")
        if self.env.tracer is not None:
            emit(self.env, "dsm.lock.release", node=self.rank, lock=lock_id)

    # -- lifecycle ----------------------------------------------------------
    def watch_import(self, imported: ImportedBuffer) -> None:
        imported.on_invalidate(self._imports_invalidated)

    def _imports_invalidated(self, info: dict) -> None:
        """A peer daemon invalidated one of our channel imports (cold
        restart).  Conservatively downgrade every non-owned page: the
        copies are still byte-valid, but re-faulting them is cheap and
        this node then re-enters the directory's view through the normal
        (crash-hardened) fault path."""
        dropped = 0
        for page in range(self.npages):
            if not self.owned[page] and self.access[page] != INV:
                self.access[page] = INV
                dropped += 1
        if dropped:
            self.downgrades += dropped
            if self.env.tracer is not None:
                emit(self.env, "dsm.downgrade", node=self.rank,
                     pages=dropped, peer=info.get("remote_node", ""),
                     reason=info.get("reason", ""))

    def channel_stats(self) -> tuple[list, list]:
        """The :class:`~repro.vmmc.reliable.ReliableStats` of this rank's
        channel ends: ``(senders, receivers)``."""
        return ([tx.stats for tx in self._tx.values()],
                [rx.stats for rx in self._rx.values()])

    def counters(self) -> dict:
        return {
            "read_faults": self.read_faults,
            "write_faults": self.write_faults,
            "local_hits": self.local_hits,
            "pages_fetched": self.pages_fetched,
            "invalidations": self.invalidations,
            "invalidations_sent": self.invalidations_sent,
            "downgrades": self.downgrades,
        }


def wire_dsm(cluster, npages: int = 64, page_bytes: int = 256,
             nslots: int = 4):
    """Process: build one :class:`DsmNode` per cluster node and a full
    mesh of reliable channels; the process's value is the node list."""
    env = cluster.env
    nranks = len(cluster.nodes)
    if nranks < 2:
        raise DsmError("DSM needs at least two nodes")
    slot_bytes = HEADER_BYTES + FRAME_OVERHEAD + page_bytes

    def build():
        nodes = []
        for rank, cnode in enumerate(cluster.nodes):
            _, ep = cnode.attach_process(f"dsm.rank{rank}")
            nodes.append(DsmNode(rank, nranks, ep, npages, page_bytes))
        channels = yield from open_mesh(
            [node.ep for node in nodes], "dsm",
            nslots=nslots, slot_bytes=slot_bytes)
        for (src, dst), (sender, receiver) in channels.items():
            nodes[src]._tx[dst] = sender
            nodes[dst]._rx[src] = receiver
            nodes[src].watch_import(sender._ring)
            nodes[dst].watch_import(receiver._ack_at_sender)
        for node in nodes:
            node.start()
        return nodes

    return env.process(build(), name="dsm.wire")
