"""The per-node VMMC daemon (sections 4.1, 4.4) + cold-restart recovery.

"User programs submit export and import requests to a local VMMC daemon.
Daemons communicate with each other over Ethernet to match export and
import requests and establish export-import relation by setting up data
structures in the LANai control program."

The daemon is trusted system software: it is the only path by which page
tables on the NIC get populated, which is what makes user-level sends safe.
Export: lock the buffer's pages, mark their frames writable (± notify) in
the incoming page table.  Import: ask the exporting node's daemon for the
buffer's physical pages (enforcing the exporter's importer restrictions on
the exporting side), then install outgoing-page-table entries for the
importing process and hand back a proxy region.

Cold-restart recovery (extension beyond the paper)
--------------------------------------------------
The paper assumes daemons stay up; a *warm* restart (:meth:`restart`)
resumes with the export table intact on the NIC, so established pairs keep
working.  ``restart(cold=True)`` models the harder failure — the daemon
loses its export table and the NIC's incoming/outgoing page-table state —
and drives the recovery protocol:

1. **epoch bump** — every daemon carries a monotonically increasing
   *epoch*, stamped on all its Ethernet RPCs.  A cold boot increments it.
2. **local teardown** — incoming entries of every lost export are revoked
   (pages unlocked) and every local import's outgoing entries are cleared;
   local :class:`~repro.vmmc.api.ImportedBuffer` s go ``STALE``.
3. **re-registration** — the user libraries attached to this daemon
   re-register their surviving :class:`~repro.vmmc.api.ExportHandle` s
   (new buffer ids; notification arming does *not* survive, mirroring
   lost signal registrations after a NIC reset).
4. **invalidate broadcast** — a datagram carrying the new epoch goes to
   every peer daemon; peers mark proxy regions importing from this node
   stale, clear their outgoing entries, and fire ``on_invalidate``
   callbacks.  Because the epoch also rides on ordinary RPCs, a peer that
   *missed* the broadcast still detects the cold boot on the next message
   and runs the same invalidation (cf. APENet-style link-error recovery).
5. **re-import** — stale imports are re-established lazily by
   ``imported.reimport()`` (the reliable layer does this transparently).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.sim import AnyOf, Environment, Store
from repro.sim.trace import emit
from repro.obs.metrics import count
from repro.mem.buffers import UserBuffer
from repro.mem.virtual import PAGE_SIZE
from repro.hostos.ethernet import EthernetNetwork
from repro.hostos.kernel import Kernel
from repro.hostos.process import UserProcess
from repro.vmmc.driver import VMMCDriver
from repro.vmmc.errors import ExportError, ImportDenied, ImportTimeout
from repro.vmmc.proxy import ProxyRegion

#: Local IPC (unix-socket round trip) between library and daemon.
LOCAL_IPC_NS = 60_000

_buffer_ids = itertools.count(1)


@dataclass
class ExportRecord:
    """One exported receive buffer on the exporting node."""

    buffer_id: int
    name: str
    owner_pid: int
    vaddr: int
    nbytes: int
    frames: list[int]
    allowed_importers: Optional[frozenset[str]]
    notify: bool

    @property
    def phys_pages(self) -> list[int]:
        return list(self.frames)


@dataclass
class ImportGrant:
    """What an import RPC yields: the proxy region plus the exporter-side
    identity (node index, buffer id) and the exporter daemon's *epoch* at
    grant time — the staleness reference for the invalidation protocol."""

    region: ProxyRegion
    nbytes: int
    node_index: int
    buffer_id: int
    epoch: int


class VMMCDaemon:
    """One daemon per node, addressed ``daemon.<node>`` on the Ethernet."""

    def __init__(self, env: Environment, node_name: str, kernel: Kernel,
                 driver: VMMCDriver, ether: EthernetNetwork):
        self.env = env
        self.node_name = node_name
        self.kernel = kernel
        self.driver = driver
        self.ether = ether
        self.address = f"daemon.{node_name}"
        ether.register(self.address)
        self.exports: dict[str, ExportRecord] = {}
        self._pending_replies: dict[int, Any] = {}
        self._reply_seq = itertools.count(1)
        self.exports_served = 0
        self.imports_served = 0
        self.imports_denied = 0
        self.unimports_served = 0
        self._started = False
        self._crashed = False
        #: Number of overlapping crash-faults currently holding the
        #: daemon down (0 == alive).  Overlapping crash faults nest.
        self._crash_depth = 0
        #: A deferred restart asked for ``cold=True`` — cold dominates
        #: warm, so the eventual restart (depth → 0) is cold.
        self._pending_cold = False
        self.crashes = 0
        self.requests_dropped_crashed = 0
        #: Monotone cold-boot counter, stamped on every daemon RPC.
        self.epoch = 0
        self.cold_restarts = 0
        #: Last epoch observed per peer node name.
        self._peer_epochs: dict[str, int] = {}
        #: User libraries attached on this node (for invalidation fan-out
        #: and cold-boot export re-registration).
        self.endpoints: list = []
        self.invalidations_rx = 0
        self.imports_invalidated = 0
        self.exports_reestablished = 0
        #: name → (endpoint, handle) of exports lost in a cold restart,
        #: awaiting their first import request: lost exports are
        #: re-registered lazily, by the first import RPC that names them,
        #: so a cold boot costs O(1) regardless of how many exports the
        #: node carries (a large DSM frame table restarts cheap), and
        #: exports nobody re-imports are never re-installed.
        self._lazy_pending: dict[str, tuple] = {}
        self.lazy_reexports = 0

    def start(self) -> None:
        if self._started:
            raise RuntimeError(f"{self.address} already started")
        self._started = True
        self.env.process(self._serve(), name=f"{self.address}.serve")

    def register_endpoint(self, endpoint) -> None:
        """Attach a user library instance (called by VMMCEndpoint)."""
        self.endpoints.append(endpoint)

    # -- fault hooks ----------------------------------------------------------
    @property
    def crashed(self) -> bool:
        return self._crashed

    @property
    def crash_depth(self) -> int:
        """How many overlapping crash-faults currently hold the daemon."""
        return self._crash_depth

    def crash(self) -> None:
        """Kill the daemon process: requests arriving while it is down are
        lost (Ethernet datagrams to a dead peer get no reply).  Established
        export/import state survives — it lives on the NIC, and data
        transfer does not involve the daemon (section 4.1).

        Crashes **nest**: each call stacks one crash-fault, and the daemon
        only comes back up when :meth:`restart` has been called once per
        crash (overlapping crash faults compose instead of clobbering
        each other's state)."""
        self._crash_depth += 1
        self._crashed = True
        self.crashes += 1
        count(self.env, "daemon.crashes", node=self.node_name)
        emit(self.env, f"{self.address}.crash", depth=self._crash_depth)

    def restart(self, cold: bool = False) -> None:
        """Bring the daemon back up.

        *Warm* (default): the export table is rebuilt from the surviving
        NIC state, so previously-matched pairs keep working and *new*
        requests are serviced again.

        *Cold* (``cold=True``): the export table and the NIC's
        incoming/outgoing page-table state are lost.  The daemon bumps its
        epoch and drives the recovery protocol (module docstring): local
        teardown, export re-registration from the attached libraries, and
        an invalidate broadcast that turns peer imports stale.

        With nested crashes (overlapping faults) each ``restart``
        releases one crash-fault; the daemon actually restarts only when
        the last one is released, and **cold dominates warm** — if *any*
        overlapping fault asked for a cold restart, the eventual restart
        is cold.  A ``restart`` with no outstanding crash proceeds
        immediately (an administrative reboot of a live daemon).
        """
        if self._crash_depth > 1:
            # Inner restart of a nested crash: stay down, remember cold.
            self._crash_depth -= 1
            self._pending_cold = self._pending_cold or cold
            count(self.env, "daemon.restarts_deferred", node=self.node_name)
            emit(self.env, f"{self.address}.restart_deferred",
                 depth=self._crash_depth,
                 cold_pending=self._pending_cold or cold)
            return
        self._crash_depth = 0
        cold = cold or self._pending_cold
        self._pending_cold = False
        self._crashed = False
        count(self.env, "daemon.restarts", node=self.node_name)
        emit(self.env, f"{self.address}.restart")
        if not cold:
            return
        self.epoch += 1
        self.cold_restarts += 1
        lost = self.exports
        self.exports = {}
        count(self.env, "daemon.cold_restarts", node=self.node_name)
        emit(self.env, f"{self.address}.cold_restart", epoch=self.epoch,
             exports_lost=len(lost))
        self.env.process(self._cold_boot(lost),
                         name=f"{self.address}.cold_boot")

    def _cold_boot(self, lost: dict[str, ExportRecord]):
        """Process: teardown + deferred re-registration + invalidate
        broadcast."""
        # 1. Tear down the lost exports' incoming entries and unlock their
        #    pages; drop notification registrations (new buffer ids will
        #    not match, and arming does not survive a cold boot).
        for record in lost.values():
            yield self.driver.revoke_incoming_entries(record.frames)
            process = self.driver.process(record.owner_pid)
            if process is not None:
                yield self.kernel.unlock_pages(
                    process.space, record.vaddr, record.nbytes)
            if record.notify:
                self.driver.drop_notify_handler(record.owner_pid,
                                                record.buffer_id)
        # 2. Outgoing page-table state is gone too: every local import is
        #    now stale (entries cleared, lifecycle STALE, callbacks fire).
        for endpoint in self.endpoints:
            n = endpoint.invalidate_imports(reason="local_cold_restart")
            self.imports_invalidated += n
        # 3. *Note* the lost exports of the attached libraries; each is
        #    re-installed by the first import RPC that names it
        #    (`_serve_import`), so cold boot is O(1) in the export count.
        for endpoint in self.endpoints:
            for handle in endpoint.export_handles():
                if handle.name in lost:
                    handle.mark_lost()
                    self._lazy_pending[handle.name] = (endpoint, handle)
        if self._lazy_pending:
            emit(self.env, f"{self.address}.reexport_deferred",
                 pending=len(self._lazy_pending))
        # 4. Broadcast the invalidation (new epoch) to every peer daemon.
        for peer in self.ether.endpoints():
            if peer == self.address or not peer.startswith("daemon."):
                continue
            yield self.ether.send(
                self.address, peer,
                {"op": "invalidate", "src_node": self.node_name,
                 "epoch": self.epoch},
                nbytes=64)
        emit(self.env, f"{self.address}.invalidate_tx", epoch=self.epoch)

    # -- local requests (called by the user library) ----------------------------
    def _install_export(self, process: UserProcess, buffer: UserBuffer,
                        name: str,
                        allowed_importers=None, notify: bool = False):
        """Process: lock pages + install incoming entries + record."""
        def run():
            frames = yield self.kernel.lock_pages(
                process.space, buffer.vaddr, buffer.nbytes)
            record = ExportRecord(
                buffer_id=next(_buffer_ids),
                name=name,
                owner_pid=process.pid,
                vaddr=buffer.vaddr,
                nbytes=buffer.nbytes,
                frames=frames,
                allowed_importers=(None if allowed_importers is None
                                   else frozenset(allowed_importers)),
                notify=notify,
            )
            yield self.driver.install_incoming_entries(
                frames, process.pid, record.buffer_id, notify)
            self.exports[name] = record
            return record

        return self.env.process(run(), name=f"{self.address}.install_export")

    def export(self, process: UserProcess, buffer: UserBuffer, name: str,
               allowed_importers: Optional[list[str]] = None,
               notify: bool = False):
        """Process: export ``buffer`` under ``name``; value is the record.

        The daemon locks the receive buffer's pages in main memory and
        sets up incoming-page-table entries allowing data reception
        (section 4.4).
        """
        def run():
            yield self.env.timeout(LOCAL_IPC_NS)
            if name in self.exports or name in self._lazy_pending:
                raise ExportError(
                    f"{self.node_name}: export name {name!r} already in use")
            if buffer.space is not process.space:
                raise ExportError("buffer does not belong to the exporter")
            record = yield self._install_export(
                process, buffer, name,
                allowed_importers=allowed_importers, notify=notify)
            self.exports_served += 1
            count(self.env, "daemon.exports", node=self.node_name)
            emit(self.env, "daemon.export", node=self.node_name, name=name,
                 nbytes=buffer.nbytes)
            return record

        return self.env.process(run(), name=f"{self.address}.export")

    def unexport(self, process: UserProcess, name: str):
        """Process: withdraw an export and revoke reception rights."""
        def run():
            yield self.env.timeout(LOCAL_IPC_NS)
            record = self.exports.get(name)
            if record is None and name in self._lazy_pending:
                # Lost in a cold restart, never re-imported since: the
                # pages are already unlocked and the incoming entries
                # already revoked (cold-boot teardown) — just forget it.
                _, handle = self._lazy_pending.pop(name)
                if handle.record.owner_pid == process.pid:
                    return
                raise ExportError(f"no export {name!r} owned by caller")
            if record is None or record.owner_pid != process.pid:
                raise ExportError(f"no export {name!r} owned by caller")
            yield self.driver.revoke_incoming_entries(record.frames)
            yield self.kernel.unlock_pages(
                process.space, record.vaddr, record.nbytes)
            del self.exports[name]

        return self.env.process(run(), name=f"{self.address}.unexport")

    def import_buffer(self, process: UserProcess, remote_node: str,
                      name: str, timeout_ns: Optional[int] = None):
        """Process: import a remote export; value is an
        :class:`ImportGrant` (proxy region + exporter identity/epoch).

        "On an import request, the importing node daemon obtains the
        physical addresses of receive buffer pages from the daemon on the
        exporting node.  Next, the importing node daemon sets up outgoing
        page table entries for the importing process that point to receive
        buffer pages on [the] remote node." (section 4.4)

        ``timeout_ns`` bounds the wait for the exporting daemon's reply;
        on expiry :class:`~repro.vmmc.errors.ImportTimeout` is raised
        (the exporting daemon is dead or unreachable).  Without it, the
        request waits forever — the paper's daemons never crash.
        """
        def run():
            yield self.env.timeout(LOCAL_IPC_NS)
            seq = next(self._reply_seq)
            reply_box: Store = Store(self.env)
            self._pending_replies[seq] = reply_box
            yield self.ether.send(
                self.address, f"daemon.{remote_node}",
                {"op": "import_req", "seq": seq, "name": name,
                 "importer_node": self.node_name,
                 "importer_pid": process.pid,
                 "src_node": self.node_name, "epoch": self.epoch},
                nbytes=128)
            get_reply = reply_box.get()
            if timeout_ns is None:
                reply = yield get_reply
            else:
                fired = yield AnyOf(self.env,
                                    [get_reply, self.env.timeout(timeout_ns)])
                if get_reply not in fired:
                    del self._pending_replies[seq]
                    count(self.env, "daemon.import_timeouts",
                          node=self.node_name)
                    emit(self.env, f"{self.address}.import_timeout",
                         remote=remote_node, name=name)
                    raise ImportTimeout(
                        f"import of {remote_node}:{name} got no reply "
                        f"within {timeout_ns} ns")
                reply = fired[get_reply]
            del self._pending_replies[seq]
            if not reply["ok"]:
                self.imports_denied += 1
                raise ImportDenied(
                    f"import of {remote_node}:{name} denied: "
                    f"{reply['error']}")
            ctx = self.driver.lcp.processes[process.pid]
            region = ctx.proxy.reserve(reply["nbytes"])
            node_index = reply["node_index"]
            yield self.driver.install_outgoing_entries(
                process.pid, region.first_page, node_index,
                reply["phys_pages"])
            self.imports_served += 1
            count(self.env, "daemon.imports", node=self.node_name)
            emit(self.env, "daemon.import", node=self.node_name,
                 remote=remote_node, name=name)
            return ImportGrant(region=region, nbytes=reply["nbytes"],
                               node_index=node_index,
                               buffer_id=reply["buffer_id"],
                               epoch=reply.get("epoch", 0))

        return self.env.process(run(), name=f"{self.address}.import")

    def unimport(self, process: UserProcess, region: ProxyRegion):
        """Process: release an import — clear its outgoing page-table
        entries and return the proxy pages (mirror of :meth:`unexport`)."""
        def run():
            yield self.env.timeout(LOCAL_IPC_NS)
            yield self.driver.clear_outgoing_entries(
                process.pid, region.first_page, region.npages)
            ctx = self.driver.lcp.processes[process.pid]
            ctx.proxy.release(region)
            self.unimports_served += 1
            count(self.env, "daemon.unimports", node=self.node_name)
            emit(self.env, "daemon.unimport", node=self.node_name,
                 first_page=region.first_page, npages=region.npages)

        return self.env.process(run(), name=f"{self.address}.unimport")

    # -- epoch tracking / peer invalidation --------------------------------------
    def _note_peer_epoch(self, src_node: str, epoch: int) -> None:
        """Epoch carried on a daemon RPC: a jump reveals a peer cold boot
        even when the invalidate broadcast was lost."""
        known = self._peer_epochs.get(src_node)
        if known is None:
            self._peer_epochs[src_node] = epoch
        elif epoch > known:
            self._invalidate_peer(src_node, epoch)

    def _invalidate_peer(self, src_node: str, epoch: int) -> None:
        """Mark every local import from ``src_node`` (older than ``epoch``)
        stale: proxy regions keep their pages (quarantined until
        re-import/unimport) but the outgoing entries are torn down and
        ``on_invalidate`` callbacks fire."""
        self._peer_epochs[src_node] = epoch
        invalidated = 0
        for endpoint in self.endpoints:
            invalidated += endpoint.invalidate_imports(
                remote_node=src_node, epoch=epoch,
                reason="peer_cold_restart")
        self.invalidations_rx += 1
        self.imports_invalidated += invalidated
        count(self.env, "daemon.invalidations", node=self.node_name)
        count(self.env, "daemon.imports_invalidated", invalidated,
              node=self.node_name)
        emit(self.env, f"{self.address}.invalidate_rx", src=src_node,
             epoch=epoch, imports=invalidated)

    # -- the Ethernet service loop -------------------------------------------------
    def _serve(self):
        while True:
            datagram = yield self.ether.receive(self.address)
            message = datagram.payload
            if self._crashed:
                # Dead daemon: the datagram is consumed by the NIC but no
                # process reads it — the requester sees silence.
                self.requests_dropped_crashed += 1
                count(self.env, "daemon.requests_dropped",
                      node=self.node_name)
                emit(self.env, f"{self.address}.drop_crashed",
                     op=message.get("op"))
                continue
            src_node = message.get("src_node")
            if src_node is not None and "epoch" in message:
                self._note_peer_epoch(src_node, message["epoch"])
            op = message.get("op")
            if op == "import_req":
                yield self.env.process(
                    self._serve_import(datagram.src, message))
            elif op == "import_reply":
                box = self._pending_replies.get(message["seq"])
                if box is not None:
                    box.put(message)
            elif op == "invalidate":
                self._invalidate_peer(message["src_node"], message["epoch"])
            else:
                emit(self.env, "daemon.unknown_op", op=op)

    def _lazy_reestablish(self, name: str):
        """Process body: first import RPC naming a lazily-deferred lost
        export — re-install it now (fresh buffer id, pages re-locked,
        incoming entries back) and flip the surviving handle to
        REESTABLISHED.  This is the restart-cheap half of the recovery
        protocol: the re-registration cost is paid per *re-imported*
        export, not per cold boot."""
        endpoint, handle = self._lazy_pending.pop(name)
        if not handle.usable and handle.state.value == "revoked":
            return  # unexported while pending; stay gone
        record = yield self._install_export(
            endpoint.process, handle.buffer, name,
            allowed_importers=handle.record.allowed_importers,
            notify=False)
        handle.reestablish(record)
        self.exports_reestablished += 1
        self.lazy_reexports += 1
        count(self.env, "daemon.exports_reestablished",
              node=self.node_name)
        count(self.env, "daemon.lazy_reexports", node=self.node_name)
        emit(self.env, f"{self.address}.reexport", name=name,
             buffer_id=record.buffer_id, lazy=True)

    def _serve_import(self, reply_to: str, message: dict):
        if message["name"] not in self.exports \
                and message["name"] in self._lazy_pending:
            yield from self._lazy_reestablish(message["name"])
        record = self.exports.get(message["name"])
        node_index = self.driver.lcp.node_index
        if record is None:
            reply = {"op": "import_reply", "seq": message["seq"],
                     "ok": False, "error": "no such export"}
        elif (record.allowed_importers is not None
              and message["importer_node"] not in record.allowed_importers):
            reply = {"op": "import_reply", "seq": message["seq"],
                     "ok": False, "error": "importer not permitted"}
        else:
            reply = {"op": "import_reply", "seq": message["seq"], "ok": True,
                     "nbytes": record.nbytes,
                     "phys_pages": record.phys_pages,
                     "node_index": node_index,
                     "buffer_id": record.buffer_id}
        reply["src_node"] = self.node_name
        reply["epoch"] = self.epoch
        yield self.ether.send(self.address, reply_to, reply, nbytes=256)
