"""The VMMC basic library — the user-level API (section 2, section 4.1).

"A user program must link with it in order to communicate using VMMC
calls."  The library talks to the local daemon for export/import setup and
posts send requests *directly* to the LANai (programmed I/O into the
process's own send queue) — the operating system is not involved in data
transfer.

The library chooses the short or long request format transparently
(section 4.5) and implements synchronous sends by spinning on the per-slot
completion word that the LANai DMAs into pinned user memory.

Import/export lifecycle (extension beyond the paper)
----------------------------------------------------
Export-import relations are no longer fire-and-forget.  Both
:class:`ExportHandle` and :class:`ImportedBuffer` carry a
:class:`LifecycleState`::

    ACTIVE ──(peer/local daemon cold restart)──> STALE ──┬─> REESTABLISHED
       │                                                 │   (reimport())
       └───────────────(unimport/unexport)───────────────┴─> REVOKED

Sends to a non-usable import fail *fast* with a typed
:class:`~repro.vmmc.errors.ImportStale` — before any I/O, so data can
never be written through a dangling proxy mapping.  Endpoints can register
``imported.on_invalidate(callback)`` to react to invalidations, and
``imported.reimport()`` re-establishes the relation (fresh proxy region,
fresh outgoing page-table entries, the exporter's current epoch).

Typical user code (a simulation generator)::

    def app(env, ep_sender, ep_receiver, recv_buf):
        yield ep_receiver.export(recv_buf, "inbox")
        imported = yield ep_sender.import_buffer("node1", "inbox")
        src = ep_sender.alloc_buffer(4096)
        src.fill(0x42)
        handle = yield ep_sender.send(src, imported.at(0), 4096)   # sync
        # data is now in recv_buf on node1, no receive call needed
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from repro.sim import Environment, Event, Timeout
from repro.sim.server import at_now, then
from repro.sim.trace import emit
from repro.mem.buffers import UserBuffer
from repro.mem.virtual import PAGE_SIZE
from repro.hostos.process import UserProcess
from repro.vmmc.daemon import ExportRecord, ImportGrant, VMMCDaemon
from repro.vmmc.driver import VMMCDriver
from repro.vmmc.errors import (
    CompletionError,
    ImportStale,
    InvalidSendError,
    SendError,
    VMMCError,
)
from repro.vmmc.lcp import ProcessContext, VmmcLCP
from repro.vmmc.proxy import ProxyRegion
from repro.vmmc.sendqueue import (
    COMPLETION_DONE,
    SHORT_SEND_LIMIT,
    SendRequest,
)

#: Library-side CPU cost of a SendMsg call before any I/O: argument checks,
#: format decision, slot bookkeeping (P166; calibrated so small synchronous
#: sends cost ≈3 µs as in Figure 4).
LIB_SEND_OVERHEAD_NS = 1_700
#: Library-side CPU cost of the status-check fast path.
LIB_CHECK_OVERHEAD_NS = 250
#: Maximum message size: the outgoing page table limits imported space to
#: 8 MB, which also bounds a single transfer (section 4.4).
MAX_MESSAGE_BYTES = 8 * 1024 * 1024


class LifecycleState(enum.Enum):
    """Lifecycle of an export-import relation (see module docstring)."""

    ACTIVE = "active"
    STALE = "stale"
    REVOKED = "revoked"
    REESTABLISHED = "reestablished"

    @property
    def usable(self) -> bool:
        return self in (LifecycleState.ACTIVE, LifecycleState.REESTABLISHED)


#: The usable states, compared by identity on the send path.
_ACTIVE = LifecycleState.ACTIVE
_REESTABLISHED = LifecycleState.REESTABLISHED


@dataclass
class ExportHandle:
    """A successfully exported receive buffer (lifecycle-aware)."""

    name: str
    buffer: UserBuffer
    record: ExportRecord
    state: LifecycleState = LifecycleState.ACTIVE
    #: Times this export was re-registered after a daemon cold boot.
    reestablishments: int = 0

    @property
    def usable(self) -> bool:
        return self.state.usable

    def reestablish(self, record: ExportRecord) -> None:
        """Daemon cold boot re-registered this export under a fresh buffer
        id.  Notification arming does **not** survive (the old buffer id's
        registration is dropped) — re-export with a handler to re-arm."""
        self.record = record
        self.state = LifecycleState.REESTABLISHED
        self.reestablishments += 1

    def mark_lost(self) -> None:
        """Daemon cold boot lost this export's registration.  Under lazy
        re-registration (the default) it stays STALE until the first
        import RPC that names it re-installs it (→ REESTABLISHED)."""
        self.state = LifecycleState.STALE

    def revoke(self) -> None:
        self.state = LifecycleState.REVOKED


class ImportedBuffer:
    """A successfully imported remote receive buffer.

    Typed destinations for sends are derived from it:
    ``imported.at(offset)`` (a :class:`ProxyAddress`).
    """

    def __init__(self, endpoint: "VMMCEndpoint", remote_node: str,
                 name: str, grant: ImportGrant):
        self._ep = endpoint
        self.remote_node = remote_node
        self.name = name
        self.region: ProxyRegion = grant.region
        #: Exporter-side buffer identity and daemon epoch at grant time.
        self.buffer_id = grant.buffer_id
        self.epoch = grant.epoch
        self.state = LifecycleState.ACTIVE
        #: Why the import went stale (diagnostics; "" while usable).
        self.stale_reason = ""
        #: Completed reimport() count.
        self.reestablishments = 0
        self._invalidate_callbacks: list[Callable[[dict], object]] = []

    # -- lifecycle ---------------------------------------------------------
    @property
    def usable(self) -> bool:
        return self.state.usable

    def on_invalidate(self, callback: Callable[[dict], object]
                      ) -> Callable[[dict], object]:
        """Register a callback fired when this import is invalidated.

        The callback receives ``{"remote_node", "name", "epoch",
        "reason"}``; it runs synchronously at invalidation time (keep it
        cheap — typically it flags the import for re-establishment)."""
        self._invalidate_callbacks.append(callback)
        return callback

    def _mark_stale(self, reason: str, epoch: Optional[int]) -> None:
        self.state = LifecycleState.STALE
        self.stale_reason = reason
        info = {"remote_node": self.remote_node, "name": self.name,
                "epoch": epoch, "reason": reason}
        for callback in self._invalidate_callbacks:
            callback(info)

    def _revoke(self) -> None:
        self.state = LifecycleState.REVOKED
        self.stale_reason = "unimported"

    def _rebind(self, grant: ImportGrant) -> None:
        self.region = grant.region
        self.buffer_id = grant.buffer_id
        self.epoch = grant.epoch
        self.state = LifecycleState.REESTABLISHED
        self.stale_reason = ""
        self.reestablishments += 1

    def reimport(self, timeout_ns: Optional[int] = None):
        """Process: re-establish a stale import (fresh proxy region and
        outgoing entries at the exporter's current epoch).  Convenience
        for :meth:`VMMCEndpoint.reimport`."""
        return self._ep.reimport(self, timeout_ns=timeout_ns)

    # -- addressing --------------------------------------------------------
    @property
    def nbytes(self) -> int:
        return self.region.nbytes

    def at(self, offset: int = 0) -> "ProxyAddress":
        """Typed send destination ``offset`` bytes into the buffer.

        The returned :class:`ProxyAddress` re-resolves through the
        current proxy region on every send, so it stays valid across a
        ``reimport()`` (unlike a raw integer address)."""
        if not 0 <= offset < self.region.nbytes:
            raise VMMCError(
                f"offset {offset} outside imported buffer of "
                f"{self.region.nbytes} bytes")
        return ProxyAddress(self, offset)

    def address(self, offset: int = 0) -> int:
        """Raw proxy address of ``offset`` right now; raises
        :class:`ImportStale` unless the import is usable.  Not a send
        destination — use :meth:`at`."""
        if not self.usable:
            raise self._stale()
        return self.region.address(offset)

    def _stale(self) -> ImportStale:
        return ImportStale(
            f"import {self.remote_node}:{self.name} is "
            f"{self.state.value} ({self.stale_reason})",
            remote_node=self.remote_node, name=self.name,
            state=self.state.value, epoch=self.epoch)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ImportedBuffer({self.remote_node}:{self.name}, "
                f"{self.region.nbytes}B @proxy "
                f"{self.region.base_address:#x}, {self.state.value})")


@dataclass(frozen=True)
class ProxyAddress:
    """A typed send destination: an :class:`ImportedBuffer` plus a byte
    offset."""

    imported: ImportedBuffer
    offset: int = 0

    def __add__(self, extra: int) -> "ProxyAddress":
        return ProxyAddress(self.imported, self.offset + extra)

    def resolve(self) -> int:
        """Current raw proxy address (staleness-checked)."""
        return self.imported.address(self.offset)


@dataclass
class SendHandle:
    """Tracks one posted send."""

    slot: int
    length: int
    is_short: bool
    synchronous: bool
    posted_at: int
    completed_event: Optional[Event] = None


Destination = Union[ProxyAddress, ImportedBuffer]


class VMMCEndpoint:
    """Per-process handle on VMMC: the linked 'basic library'."""

    def __init__(self, env: Environment, node_name: str,
                 process: UserProcess, ctx: ProcessContext,
                 lcp: VmmcLCP, driver: VMMCDriver, daemon: VMMCDaemon,
                 membus):
        self.env = env
        self.node_name = node_name
        self.process = process
        self.ctx = ctx
        self.lcp = lcp
        self.driver = driver
        self.daemon = daemon
        self.membus = membus
        self.sends_posted = 0
        self.stale_sends_blocked = 0
        self.reimports = 0
        self._exports: dict[str, ExportHandle] = {}
        self._imports: list[ImportedBuffer] = []
        self.short_sends_posted = 0
        self.unimports = 0
        self.imports_invalidated = 0
        #: Each synchronous send's duration, while a registry is installed.
        self.send_sync_ns: list[int] = []
        env.collectors.append(self._collect)
        daemon.register_endpoint(self)

    def _collect(self):
        node = {"node": self.node_name}
        yield "counter", "vmmc.unimports", node, self.unimports
        yield "counter", "vmmc.reimports", node, self.reimports
        yield ("counter", "vmmc.imports_invalidated", node,
               self.imports_invalidated)
        yield ("counter", "vmmc.sends_stale_blocked", node,
               self.stale_sends_blocked)
        short = self.short_sends_posted
        yield ("counter", "vmmc.sends_posted",
               {"node": self.node_name, "short": True}, short)
        yield ("counter", "vmmc.sends_posted",
               {"node": self.node_name, "short": False},
               self.sends_posted - short)
        yield "histogram", "vmmc.send.sync_ns", node, self.send_sync_ns

    # -- buffer management ---------------------------------------------------
    def alloc_buffer(self, nbytes: int) -> UserBuffer:
        """Allocate a page-aligned buffer in the process's address space."""
        return UserBuffer.alloc(self.process.space, nbytes)

    # -- export / import --------------------------------------------------------
    def export(self, buffer: UserBuffer, name: str,
               allowed_importers: Optional[list[str]] = None,
               notify_handler: Optional[Callable[[dict], object]] = None):
        """Process: export ``buffer`` as a receive buffer named ``name``.

        ``allowed_importers`` restricts who may import (section 2);
        ``notify_handler`` arms per-message notifications on this buffer
        and registers the user-level handler invoked after delivery.
        """
        def run():
            record = yield self.daemon.export(
                self.process, buffer, name,
                allowed_importers=allowed_importers,
                notify=notify_handler is not None)
            if notify_handler is not None:
                self.driver.register_notify_handler(
                    self.process.pid, record.buffer_id, notify_handler)
            handle = ExportHandle(name=name, buffer=buffer, record=record)
            self._exports[name] = handle
            return handle

        return self.env.process(run(), name=f"vmmc.export.{name}")

    def unexport(self, handle: ExportHandle):
        """Process: withdraw an export and revoke reception rights."""
        def run():
            yield self.daemon.unexport(self.process, handle.name)
            handle.revoke()
            self._exports.pop(handle.name, None)

        return self.env.process(run(), name=f"vmmc.unexport.{handle.name}")

    def export_handles(self) -> list[ExportHandle]:
        """Live export handles (used by the daemon's cold-boot recovery)."""
        return list(self._exports.values())

    def import_buffer(self, remote_node: str, name: str,
                      timeout_ns: Optional[int] = None):
        """Process: import a remote export; value is an
        :class:`ImportedBuffer` usable as a send destination.

        ``timeout_ns`` bounds the wait for the exporting daemon
        (:class:`~repro.vmmc.errors.ImportTimeout` on expiry)."""
        def run():
            grant = yield self.daemon.import_buffer(
                self.process, remote_node, name, timeout_ns=timeout_ns)
            imported = ImportedBuffer(self, remote_node, name, grant)
            self._imports.append(imported)
            return imported

        return self.env.process(run(), name=f"vmmc.import.{name}")

    def unimport(self, imported: ImportedBuffer):
        """Process: release an import (mirror of :meth:`unexport`): clear
        its outgoing page-table entries, return its proxy pages, and mark
        the handle ``REVOKED`` — subsequent sends raise
        :class:`~repro.vmmc.errors.ImportStale`, and a fresh
        :meth:`import_buffer` of the same export yields a fresh region."""
        def run():
            if imported.state is LifecycleState.REVOKED:
                raise VMMCError(
                    f"{imported.remote_node}:{imported.name} is already "
                    "unimported")
            yield self.daemon.unimport(self.process, imported.region)
            imported._revoke()
            if imported in self._imports:
                self._imports.remove(imported)
            self.unimports += 1
            if self.env.tracer is not None:
                emit(self.env, "vmmc.import.revoked", node=self.node_name,
                     remote=imported.remote_node, name=imported.name)

        return self.env.process(run(), name=f"vmmc.unimport.{imported.name}")

    def reimport(self, imported: ImportedBuffer,
                 timeout_ns: Optional[int] = None):
        """Process: re-establish a (typically stale) import.

        Acquires a fresh grant from the exporting daemon (new proxy
        region, current epoch), releases the old quarantined region, and
        flips the handle to ``REESTABLISHED`` — existing
        :class:`ProxyAddress` destinations derived from it become valid
        again.  Raises ``ImportDenied``/``ImportTimeout`` when the
        exporter cannot serve (yet); the import stays stale and the call
        may be retried."""
        def run():
            if imported.state is LifecycleState.REVOKED:
                raise ImportStale(
                    f"{imported.remote_node}:{imported.name} was revoked; "
                    "import it afresh with import_buffer()",
                    remote_node=imported.remote_node, name=imported.name,
                    state=imported.state.value, epoch=imported.epoch)
            if imported.usable:
                # Voluntary re-establishment: tear down the live entries
                # first so the old region never aliases the new grant.
                yield self.driver.clear_outgoing_entries(
                    self.process.pid, imported.region.first_page,
                    imported.region.npages)
            old_region = imported.region
            grant = yield self.daemon.import_buffer(
                self.process, imported.remote_node, imported.name,
                timeout_ns=timeout_ns)
            self.ctx.proxy.release(old_region)
            imported._rebind(grant)
            self.reimports += 1
            if self.env.tracer is not None:
                emit(self.env, "vmmc.import.reimport", node=self.node_name,
                     remote=imported.remote_node, name=imported.name,
                     epoch=grant.epoch)
            return imported

        return self.env.process(run(), name=f"vmmc.reimport.{imported.name}")

    # -- invalidation fan-in (called by the local daemon) -------------------
    def invalidate_imports(self, remote_node: Optional[str] = None,
                           epoch: Optional[int] = None,
                           reason: str = "invalidated") -> int:
        """Mark matching live imports ``STALE``: fire their
        ``on_invalidate`` callbacks and tear down their outgoing
        page-table entries.  ``remote_node=None`` matches every import
        (local daemon cold restart); an ``epoch`` guard skips imports
        already granted at-or-after the invalidating epoch (re-delivered
        invalidations are idempotent).  Returns the number invalidated."""
        invalidated = 0
        for imported in list(self._imports):
            if not imported.usable:
                continue
            if remote_node is not None and \
                    imported.remote_node != remote_node:
                continue
            if epoch is not None and remote_node is not None \
                    and imported.epoch >= epoch:
                continue
            imported._mark_stale(reason, epoch)
            # Outgoing entries die with the relation; the proxy region is
            # quarantined (not reused) until reimport()/unimport().
            self.driver.clear_outgoing_entries(
                self.process.pid, imported.region.first_page,
                imported.region.npages)
            invalidated += 1
            self.imports_invalidated += 1
            if self.env.tracer is not None:
                emit(self.env, "vmmc.import.stale", node=self.node_name,
                     remote=imported.remote_node, name=imported.name,
                     reason=reason)
        return invalidated

    # -- SendMsg ------------------------------------------------------------------
    def _resolve_destination(self, dest: Destination, dest_offset: int,
                             length: int) -> int:
        """Destination of a ``length``-byte send → raw proxy address,
        staleness- and bounds-checked."""
        if isinstance(dest, ProxyAddress):
            origin, offset = dest.imported, dest.offset + dest_offset
        elif isinstance(dest, ImportedBuffer):
            origin, offset = dest, dest_offset
        else:
            raise InvalidSendError(
                f"send destination must be an ImportedBuffer or "
                f"imported.at(offset), not {type(dest).__name__}")
        # The whole span must lie in the import: the proxy pages past it
        # may map another import from the same node, where the LCP would
        # deposit without a fault.
        region = origin.region
        if offset < 0 or offset + length > region.nbytes:
            raise InvalidSendError(
                f"send of {length} bytes at offset {offset} is outside the "
                f"{region.nbytes}-byte import "
                f"{origin.remote_node}:{origin.name}")
        # A non-usable import raises ImportStale — the fail-fast that
        # keeps data out of dangling proxy mappings.
        state = origin.state
        if state is not _ACTIVE and state is not _REESTABLISHED:
            raise origin._stale()
        return region.first_page * PAGE_SIZE + offset

    def send(self, src: UserBuffer, dest: Destination,
             nbytes: int | None = None,
             src_offset: int = 0, dest_offset: int = 0,
             synchronous: bool = True, notify: bool = False) -> Event:
        """Event: ``SendMsg(srcAddr, destAddr, nbytes)`` (section 2).

        Value is a :class:`SendHandle`.  ``synchronous=True`` fires only
        when the send buffer is safely reusable (short: at post; long:
        when the last chunk is in LANai memory and the completion word has
        been observed).  ``synchronous=False`` fires right after posting;
        use :meth:`wait_send` / :meth:`check_send`.  The arguments are
        checked and the destination resolved at the call, and the
        library prologue starts there.

        Fails with (all :class:`~repro.vmmc.errors.SendError` subclasses):
        :class:`~repro.vmmc.errors.InvalidSendError` on malformed
        arguments (a source or destination span that overruns its buffer
        included), :class:`~repro.vmmc.errors.ImportStale` when ``dest``
        is an invalidated/revoked import (fail-fast, before any I/O),
        :class:`~repro.vmmc.errors.CompletionError` when the LANai
        reports an error completion.
        """
        env = self.env
        length = src.nbytes - src_offset if nbytes is None else nbytes
        done = Event(env)
        try:
            if length <= 0:
                raise InvalidSendError(f"invalid send length {length}")
            if length > MAX_MESSAGE_BYTES:
                raise InvalidSendError(
                    f"send of {length} bytes exceeds the 8 MB limit")
            if src_offset + length > src.nbytes:
                raise InvalidSendError(
                    "send runs past the end of the source buffer")
            proxy_address = self._resolve_destination(dest, dest_offset,
                                                      length)
        except VMMCError as exc:
            at_now(env, lambda exc=exc: self._refuse(done, exc))
            return done
        t0 = env._now
        queue, membus = self.ctx.queue, self.membus
        is_short = length <= SHORT_SEND_LIMIT
        # Programmed I/O: four control words, then the inline data words.
        words = 4 + (length + 3) // 4 if is_short else 4
        request = handle = None

        def post(_prologue=None):
            nonlocal request
            if not queue.slot_available():
                return self._when_slot_free(post)
            request = SendRequest(
                slot=0, length=length, proxy_address=proxy_address,
                is_short=is_short, notify=notify, posted_at=env._now,
                completion=Event(env))
            if is_short:
                request.inline_data = src.read(src_offset, length)
            else:
                request.src_vaddr = src.vaddr + src_offset
            request.slot = queue.reserve(request)
            self.lcp.nic.bus.mmio_write(words).callbacks.append(posted)

        def posted(_hold):
            nonlocal handle
            queue.post(request)
            self.lcp.doorbell()
            self.sends_posted += 1
            if is_short:
                self.short_sends_posted += 1
            if env.tracer is not None:
                emit(env, "vmmc.send.posted", node=self.node_name,
                     pid=self.process.pid, slot=request.slot, length=length,
                     short=is_short)
            handle = SendHandle(slot=request.slot, length=length,
                                is_short=is_short, synchronous=synchronous,
                                posted_at=env._now,
                                completed_event=request.completion)
            if synchronous and not is_short:
                # Spin on the completion cache location (section 4.5):
                # the LCP writes it back only after the doorbell.
                request.completion.callbacks.append(spin)
            else:
                finish()

        def spin(_completed):
            membus.cacheline_fill().callbacks.append(observed)

        def observed(_fill):
            status = request.completion._value
            if status != COMPLETION_DONE:
                done.fail(CompletionError(
                    f"send failed with completion status {status}",
                    status=status))
            else:
                finish()

        def finish():
            if synchronous and env.metrics is not None:
                self.send_sync_ns.append(env._now - t0)
            done._end(handle)

        # Library prologue: argument checks + protocol selection.
        Timeout(env, LIB_SEND_OVERHEAD_NS).callbacks.append(post)
        return done

    def _when_slot_free(self, go: Callable[[], None]) -> None:
        """Flow control: call ``go()`` once the send queue has a free
        slot (spin on the completion word of the oldest outstanding
        request)."""
        queue = self.ctx.queue
        if queue.slot_available():
            return go()
        holder = queue.holder(queue.next_slot())
        tail = None if holder is None else holder.completion
        if tail is None or tail.triggered:
            tail = self.env.timeout(500)
        then(tail, lambda _tail: self.membus.cacheline_fill().callbacks
             .append(lambda _fill: self._when_slot_free(go)))

    def _refuse(self, done: Event, exc: VMMCError) -> None:
        """Fail a send the library rejected at the call, one event later
        (where the prologue would have begun)."""
        if isinstance(exc, ImportStale):
            self.stale_sends_blocked += 1
            if self.env.tracer is not None:
                emit(self.env, "vmmc.send.stale_blocked",
                     node=self.node_name, pid=self.process.pid)
        done.fail(exc)

    def wait_send(self, handle: SendHandle) -> Event:
        """Event: fires when an asynchronous send's buffer is reusable."""
        done = Event(self.env)

        def observed(status):
            then(self.membus.cacheline_fill(), lambda _fill: done._end(None)
                 if status in (COMPLETION_DONE, None) else done.fail(
                     CompletionError(f"send failed with completion status "
                                     f"{status}", status=status)))

        def look():
            event = handle.completed_event
            if event is not None and not event.triggered:
                then(event, lambda event: observed(event._value))
            else:
                observed(self.ctx.last_status.get(handle.slot,
                                                 COMPLETION_DONE))

        at_now(self.env, look)
        return done

    def check_send(self, handle: SendHandle) -> Event:
        """Event: non-blocking completion probe; value is a bool.

        Reads the completion word from (cached) host memory — no device
        access, just the library fast path.
        """
        done, event = Event(self.env), handle.completed_event
        self.env.timeout(LIB_CHECK_OVERHEAD_NS).callbacks.append(
            lambda _cost: done._end(handle.is_short or (
                event is not None and event.triggered)))
        return done

    # -- receive-side helpers -------------------------------------------------------
    def watch(self, buffer: UserBuffer, offset: int = 0,
              nbytes: int | None = None) -> Event:
        """Event that fires when a device write lands in the given range of
        an exported buffer — the primitive behind spin-waiting receivers.

        VMMC has no receive *operation*; a receiver that passes control
        simply spins on the memory it exported.  The returned event models
        the moment the spinner's cache line is invalidated by the DMA;
        its value is the write's ``(paddr, nbytes)`` (:meth:`UserBuffer.arm`).
        """
        event = Event(self.env)
        buffer.arm(event, offset, nbytes)
        return event

    def spin(self, buffer: UserBuffer, offset: int, nbytes: int,
             ready: Callable[[], bool],
             finish: Callable[[Event], None] | None = None) -> Event:
        """Event: spin on ``nbytes`` at ``offset`` of an exported buffer
        until ``ready()`` holds (section 3).  From one event at ``now``,
        where a spinning process's start event ran, each look arms a
        :meth:`watch` — before the test, so no write is missed — fills
        the cache line and tests ``ready()``, then waits on the arm or
        ends: with None, or ``finish(done)`` runs and ends it."""
        return _Spin(self, buffer, offset, nbytes, ready, finish).done


class _Spin:
    """One :meth:`VMMCEndpoint.spin`: its bound methods are the chain's
    callbacks, so a spin keeps one object alive, not a closure each."""

    __slots__ = ("ep", "buffer", "offset", "nbytes", "ready", "finish",
                 "done", "armed")

    def __init__(self, ep: VMMCEndpoint, buffer: UserBuffer, offset: int,
                 nbytes: int, ready: Callable[[], bool],
                 finish: Callable[[Event], None] | None):
        self.ep, self.buffer = ep, buffer
        self.offset, self.nbytes = offset, nbytes
        self.ready, self.finish, self.done = ready, finish, Event(ep.env)
        at_now(ep.env, self.look)

    def look(self, _armed=None) -> None:
        self.armed = self.ep.watch(self.buffer, self.offset, self.nbytes)
        self.ep.membus.cacheline_fill().callbacks.append(self.filled)

    def filled(self, _fill) -> None:
        if not self.ready():
            then(self.armed, self.look)
        elif self.finish is None:
            self.done._end(None)
        else:
            self.finish(self.done)
