"""The VMMC LANai Control Program — the firmware at the heart of the paper.

The LCP is a single-threaded state machine on the 33 MHz LANai (section
4.5).  Its main loop services incoming packets first, then scans the send
queues of *all* attached processes round-robin (this scan is the structural
cost SHRIMP's hardware state machine avoids, section 6).

Send side
---------
* **short** requests (≤128 B): the data is already in the queue entry
  (PIO-copied by the host); the LANai resolves the proxy address through
  the sender's outgoing page table, builds a header with up to two
  physical destination addresses (the receive-side page-boundary scatter),
  copies the data into a network staging buffer, and fires the net-send
  DMA.  No host DMA at all.
* **long** requests (≤8 MB): the entry carries the *virtual* source
  address.  The LANai translates each source page through the per-process
  software TLB (interrupting the host driver on a miss), fetches the data
  page-by-page with the host DMA engine into double staging buffers, and
  pipelines host-DMA of chunk *k+1* with net-DMA of chunk *k*, preparing
  the next header while DMAs are in flight — the three optimisations the
  paper credits for reaching 98 % of the hardware limit (section 5.3).
  When the last chunk is safely in LANai memory a one-word completion
  status is DMA'd back to user space so the sender can spin on a cache
  location.

The **tight sending loop vs. main loop** distinction (section 5.3) is
modelled explicitly: while streaming a long message with no incoming
traffic the LCP stays in the tight loop (small per-chunk overhead); if a
packet arrives it abandons the tight loop, services the packet, and pays
the full main-loop cost — which is why simultaneous bidirectional traffic
tops out at 91 MB/s aggregate rather than 2×98 MB/s.

Receive side
------------
Arriving packets carry physical destination extents in their header.  The
LCP validates every touched frame against the incoming page table (drop +
count on violation — data can never land outside an exported buffer),
fires the host-DMA scatter, and raises a notification interrupt if the
destination pages ask for one.  CRC errors are detected and counted but
not recovered (section 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.sim import Environment, Event, Timeout
from repro.sim.trace import emit
from repro.mem.virtual import PAGE_SIZE
from repro.hw.lanai.nic import LanaiNIC
from repro.hw.myrinet.packet import DepositHeader, MyrinetPacket
from repro.vmmc.pagetables import (
    DEFAULT_OUTGOING_PAGES,
    IncomingPageTable,
    OutgoingPageTable,
)
from repro.vmmc.proxy import ProxySpace
from repro.vmmc.sendqueue import (
    COMPLETION_DONE,
    COMPLETION_ERROR,
    SendQueue,
    SendRequest,
)
from repro.vmmc.tlb import REFILL_BATCH, SoftwareTLB


@dataclass(frozen=True)
class LCPCosts:
    """Firmware step costs in LANai cycles (30 ns each at 33 MHz).

    Calibrated so the assembled system reproduces the paper's section-5
    aggregates: pickup + header preparation + net-DMA start ≈ 2.5 µs on
    the send side, ≈ 2 µs software on the receive side before the host
    DMA, 9.8 µs one-way latency for one word, and ≥ 2× SHRIMP's 2–3 µs
    send initiation.
    """

    #: One main-loop iteration: poll receive status, check doorbells.
    main_loop: int = 10
    #: Scanning one process send queue head (×, per attached process).
    scan_per_queue: int = 6
    #: Reading + decoding a posted entry.
    pickup: int = 18
    #: Outgoing page-table index + bounds check for one proxy page.
    proxy_lookup: int = 12
    #: Computing scatter lengths + writing one packet header.
    header_build: int = 24
    #: Fetching the precomputed route bytes for the destination node.
    route_fetch: int = 4
    #: Copying one 32-bit word of short data queue→staging (LANai copy).
    short_copy_per_word: int = 2
    #: Programming any DMA engine.
    start_dma: int = 10
    #: Non-overlapped bookkeeping per long-message chunk in the tight loop.
    tight_loop_per_chunk: int = 16
    #: Full pass through the main-loop state machine when the tight
    #: sending loop is abandoned for an incoming packet (section 5.3's
    #: bidirectional-traffic cost: dispatch tables, state save/restore).
    main_loop_full: int = 225
    #: Software TLB probe.
    tlb_lookup: int = 8
    #: Raising + synchronising on a host interrupt (LANai side only).
    raise_interrupt: int = 60
    #: Parsing an arrived packet's header + CRC status.
    recv_parse: int = 20
    #: Incoming page-table check per destination extent.
    incoming_check: int = 12
    #: Preparing the one-word completion-status DMA.
    completion_write: int = 25
    #: Per-request epilogue after injection: slot retire, queue pointer
    #: update, statistics (off the latency-critical path).
    send_epilogue: int = 12
    #: Ablation switches for the section-4.5 optimisations.  With
    #: ``pipeline_dma`` off, each chunk's net DMA must finish before the
    #: next chunk may start (no host/net overlap).  With
    #: ``precompute_headers`` off, header preparation happens serially
    #: after the host DMA instead of overlapping it.
    pipeline_dma: bool = True
    precompute_headers: bool = True


@dataclass
class ProcessContext:
    """Per attached process state resident on the NIC."""

    pid: int
    queue: SendQueue
    outgoing: OutgoingPageTable
    tlb: SoftwareTLB
    proxy: ProxySpace
    #: Physical address of the process's pinned completion-word array.
    completion_paddr: int
    #: The completion status last written per slot; ``wait_send`` reads
    #: it for a send whose completion event has fired or was never made.
    last_status: dict[int, int] = field(default_factory=dict)


#: Number of 4 KB double-buffered send staging buffers in SRAM.
_SEND_STAGING = 2

#: The one-word completion status as the LCP DMAs it, row ``status``:
#: a little-endian u32 per status, read-only, made once.
_STATUS_WORDS = np.arange(4, dtype="<u4").view(np.uint8).reshape(4, 4)
_STATUS_WORDS.setflags(write=False)


class VmmcLCP:
    """The VMMC control program running on one NIC."""

    def __init__(self, env: Environment, nic: LanaiNIC, node_index: int,
                 nframes: int, costs: LCPCosts | None = None,
                 name: str = ""):
        self.env = env
        self.nic = nic
        self.node_index = node_index
        self.costs = costs or LCPCosts()
        self.name = name or f"lcp{node_index}"
        self.incoming = IncomingPageTable(nframes, sram=nic.sram)
        self.routes: dict[int, list[int]] = {}
        self.processes: dict[int, ProcessContext] = {}
        self._scan_order: list[int] = []
        self._scan_cursor = 0
        self._doorbell: Optional[Event] = None
        self._running = False
        # LCP code + data + staging buffers, resident in SRAM.
        nic.sram.alloc("lcp_code_data", 48 * 1024)
        self._staging = [
            nic.sram.alloc(f"send_staging.{i}", PAGE_SIZE).base
            for i in range(_SEND_STAGING)
        ]
        nic.sram.alloc("recv_staging", 4 * PAGE_SIZE)
        nic.net_recv.on_arrival = self.doorbell
        # counters
        self.sends_processed = 0
        self.short_sends = 0
        self.long_sends = 0
        self.chunks_sent = 0
        self.packets_delivered = 0
        self.crc_drops = 0
        self.protection_violations = 0
        self.proxy_faults = 0
        self.tlb_miss_interrupts = 0
        self.notifications_raised = 0
        self.tight_loop_breaks = 0
        #: Pickup-to-done time of each send, while a registry is installed.
        self.send_service_ns: list[int] = []
        env.collectors.append(self._collect)

    def _collect(self):
        lcp = {"lcp": self.name}
        yield ("counter", "lcp.sends", {"lcp": self.name, "kind": "short"},
               self.sends_processed - self.long_sends)
        yield ("counter", "lcp.sends", {"lcp": self.name, "kind": "long"},
               self.long_sends)
        yield "histogram", "lcp.send.service_ns", lcp, self.send_service_ns
        yield "counter", "lcp.proxy_faults", lcp, self.proxy_faults
        yield "counter", "lcp.chunks", lcp, self.chunks_sent
        yield ("counter", "lcp.tlb_miss_interrupts", lcp,
               self.tlb_miss_interrupts)
        yield "counter", "lcp.tight_loop_breaks", lcp, self.tight_loop_breaks
        yield "counter", "lcp.crc_drops", lcp, self.crc_drops
        yield ("counter", "lcp.protection_violations", lcp,
               self.protection_violations)
        yield "counter", "lcp.packets_delivered", lcp, self.packets_delivered
        yield "counter", "lcp.notifications", lcp, self.notifications_raised

    # ------------------------------------------------------------------ setup
    def install_routes(self, routes: dict[int, list[int]]) -> None:
        """Static routing table produced by the mapping phase (section 4.3).

        Route bytes also live in SRAM (a few bytes per destination)."""
        self.routes = dict(routes)
        region = "route_table"
        if region not in self.nic.sram.regions:
            self.nic.sram.alloc(region, max(64, 8 * max(1, len(routes))))

    def register_process(self, pid: int, completion_paddr: int,
                         outgoing_pages: int = DEFAULT_OUTGOING_PAGES
                         ) -> ProcessContext:
        """Attach a process: allocate its queue, outgoing table and TLB.

        This is where the section-6 "more network interface resources"
        cost lands: ~29 KB of SRAM per attached process.
        """
        if pid in self.processes:
            raise ValueError(f"pid {pid} already attached to {self.name}")
        ctx = ProcessContext(
            pid=pid,
            queue=SendQueue(pid, sram=self.nic.sram),
            outgoing=OutgoingPageTable(pid, outgoing_pages,
                                       sram=self.nic.sram),
            tlb=SoftwareTLB(pid, sram=self.nic.sram),
            proxy=ProxySpace(outgoing_pages),
            completion_paddr=completion_paddr,
        )
        self.processes[pid] = ctx
        self._scan_order.append(pid)
        return ctx

    def start(self) -> None:
        if self._running:
            raise RuntimeError(f"{self.name} already running")
        self._running = True
        self.env.process(self._main_loop(), name=f"{self.name}.main")

    # ------------------------------------------------------------- wakeups
    def doorbell(self) -> None:
        """Wake an idle main loop: rung by the user library after posting
        a send request, and by the receive engine on every arrival."""
        doorbell = self._doorbell
        if doorbell is not None:
            self._doorbell = None
            doorbell.succeed()

    # ------------------------------------------------------------ main loop
    #
    # Every firmware step below is one charge: a ``Timeout`` of
    # ``cpu.charge(cycles)``, the processor's one call per step (it adds
    # any injected stall).  The receive inbox is read directly.
    def _work_pending(self) -> bool:
        if self.nic.net_recv.inbox:
            return True
        processes = self.processes
        for pid in self._scan_order:
            queue = processes[pid].queue
            if queue._slots[queue._head] is not None:     # peek(), inline
                return True
        return False

    def _main_loop(self):
        env = self.env
        cpu = self.nic.processor
        costs = self.costs
        inbox = self.nic.net_recv.inbox
        while True:
            if not self._work_pending():
                # The doorbell clears itself as it rings.
                self._doorbell = Event(env)
                yield self._doorbell
            # One iteration of the main loop: poll receive side, then scan
            # every attached process's queue head (section 6: "picking up a
            # send request in Myrinet requires scanning send queues of all
            # possible senders").
            yield Timeout(env, cpu.charge(
                costs.main_loop
                + costs.scan_per_queue * max(1, len(self._scan_order))))
            if inbox:
                yield from self._handle_receive(inbox.popleft())
                continue
            picked = self._scan()
            if picked is not None:
                ctx, request = picked
                yield from self._process_send(ctx, request)

    def _scan(self) -> Optional[tuple[ProcessContext, SendRequest]]:
        """Round-robin scan of process queues; returns a picked request."""
        n = len(self._scan_order)
        for i in range(n):
            pid = self._scan_order[(self._scan_cursor + i) % n]
            ctx = self.processes[pid]
            queue = ctx.queue
            if queue._slots[queue._head] is not None:     # peek(), inline
                self._scan_cursor = (self._scan_cursor + i + 1) % n
                return ctx, ctx.queue.pickup()
        return None

    # ------------------------------------------------------------- send path
    def _process_send(self, ctx: ProcessContext, request: SendRequest):
        env = self.env
        t0 = env._now
        yield Timeout(env, self.nic.processor.charge(self.costs.pickup))
        self.sends_processed += 1
        if env.tracer is not None:
            emit(env, f"{self.name}.send.pickup", pid=ctx.pid,
                 slot=request.slot, length=request.length,
                 short=request.is_short)
        if request.is_short:
            yield from self._send_short(ctx, request)
        else:
            yield from self._send_long(ctx, request)
        if env.metrics is not None:
            self.send_service_ns.append(env._now - t0)

    def _make_packet(self, node: int, extents: tuple[tuple[int, int], ...],
                     payload: np.ndarray, notify: bool, last: bool,
                     msg_len: int) -> MyrinetPacket:
        header = DepositHeader("vmmc_data", extents, notify, last,
                               self.node_index, msg_len)
        return MyrinetPacket(self.routes[node], header, payload)

    def _send_short(self, ctx: ProcessContext, request: SendRequest):
        env = self.env
        cpu = self.nic.processor
        costs = self.costs
        resolved = ctx.outgoing.resolve(request.proxy_address,
                                        request.length)
        if resolved is None:
            yield Timeout(env, cpu.charge(costs.proxy_lookup))
            self.proxy_faults += 1
            yield from self._write_completion(ctx, request,
                                              COMPLETION_ERROR)
            return
        node, extents = resolved
        words = (request.length + 3) // 4
        # The lookup and the copy/header/route/DMA start are one charge:
        # the destination is resolved before either, so nothing observes
        # the boundary between them.
        yield Timeout(env, cpu.charge(
            costs.proxy_lookup + costs.short_copy_per_word * words
            + costs.header_build + costs.route_fetch + costs.start_dma))
        packet = self._make_packet(node, extents, request.inline_data,
                                   request.notify, last=True,
                                   msg_len=request.length)
        self.short_sends += 1
        self.chunks_sent += 1
        # The net-send engine streams autonomously; the LCP moves on.
        self.nic.net_send.send(packet)
        # Slot is consumed (data copied out) — report completion, the
        # epilogue charged with the completion write.
        yield from self._write_completion(ctx, request, COMPLETION_DONE,
                                          epilogue=costs.send_epilogue)

    def _plan_chunks(self, src_vaddr: int, length: int
                     ) -> list[tuple[int, int]]:
        """Chunk a long message: first chunk runs to the first source page
        boundary, the rest are whole pages (section 4.5)."""
        chunks = []
        cursor = src_vaddr
        remaining = length
        first = min(remaining, PAGE_SIZE - (src_vaddr % PAGE_SIZE))
        chunks.append((cursor, first))
        cursor += first
        remaining -= first
        while remaining > 0:
            size = min(PAGE_SIZE, remaining)
            chunks.append((cursor, size))
            cursor += size
            remaining -= size
        return chunks

    def _tlb_miss(self, ctx: ProcessContext, vaddr: int):
        """Generator: a software-TLB miss on ``vaddr`` — interrupt the
        host driver for a refill, then probe again.  Returns the frame,
        or None if the refill failed."""
        env = self.env
        cpu = self.nic.processor
        self.tlb_miss_interrupts += 1
        yield Timeout(env, cpu.charge(self.costs.raise_interrupt))
        ok = yield self.nic.raise_interrupt(
            "tlb_miss",
            {"pid": ctx.pid, "vaddr": vaddr, "count": REFILL_BATCH})
        yield Timeout(env, cpu.charge(self.costs.tlb_lookup))
        frame = ctx.tlb.lookup(vaddr // PAGE_SIZE)
        return frame if ok else None

    def _send_long(self, ctx: ProcessContext, request: SendRequest):
        env = self.env
        nic = self.nic
        cpu = nic.processor
        costs = self.costs
        inbox = nic.net_recv.inbox
        chunks = self._plan_chunks(request.src_vaddr, request.length)
        last_index = len(chunks) - 1
        proxy_cursor = request.proxy_address
        # Per-staging-buffer events: the net DMA that last used each buffer.
        # It may be the link's tail timer, a Timeout, which is triggered
        # from birth: "finished" is processed (no callbacks left).
        net_busy: list[Optional[Event]] = [None] * _SEND_STAGING
        prep_cycles = (costs.header_build + costs.route_fetch
                       + costs.start_dma + costs.tight_loop_per_chunk)
        error = False
        self.long_sends += 1

        for index, (vaddr, clen) in enumerate(chunks):
            # V→P through the software TLB; only a miss leaves the loop.
            yield Timeout(env, cpu.charge(costs.tlb_lookup))
            frame = ctx.tlb.lookup(vaddr // PAGE_SIZE)
            if frame is None:
                frame = yield from self._tlb_miss(ctx, vaddr)
                if frame is None:
                    error = True
                    break
            paddr = frame * PAGE_SIZE + vaddr % PAGE_SIZE
            resolved = ctx.outgoing.resolve(proxy_cursor, clen)
            yield Timeout(env, cpu.charge(costs.proxy_lookup))
            if resolved is None:
                self.proxy_faults += 1
                error = True
                break
            node, extents = resolved
            buf = index % _SEND_STAGING
            staging = self._staging[buf]
            # Double buffering: wait until the net DMA that last streamed
            # from this staging buffer has finished.
            busy = net_busy[buf]
            if busy is not None and busy.callbacks is not None:
                yield busy
            # Fire the host DMA for this chunk, then do the header
            # preparation *while it is in flight* — the overlap that buys
            # the last few MB/s (section 5.3).
            host_dma = nic.host_dma.to_sram(paddr, staging, clen)
            if costs.precompute_headers:
                # Charge the preparation as the DMA starts, wait for the
                # DMA, then for whatever preparation time it did not cover.
                # That last wait is scheduled even when it is zero: like
                # the join it replaces, it puts the LCP behind everything
                # already due this nanosecond, so a packet that lands as
                # the DMA ends is seen by the tight-loop check below.
                prep_done = env._now + cpu.charge(prep_cycles)
                yield host_dma
                left = prep_done - env._now
                yield Timeout(env, left if left > 0 else 0)
            else:
                # Ablation: prepare the header only after the data is in
                # SRAM — the prep cost lands on the critical path.
                yield host_dma
                yield Timeout(env, cpu.charge(prep_cycles))
            packet = self._make_packet(
                node, extents, nic.sram.read(staging, clen), request.notify,
                last=index == last_index, msg_len=request.length)
            net_busy[buf] = nic.net_send.send(packet)
            if not costs.pipeline_dma:
                # Ablation: no host/net overlap — wait for the wire before
                # fetching the next chunk.
                yield net_busy[buf]
            self.chunks_sent += 1
            proxy_cursor += clen
            # Responsiveness: if traffic arrived, abandon the tight loop,
            # service it through the main loop, and come back (this is the
            # bidirectional-bandwidth cost of section 5.3).
            if inbox:
                self.tight_loop_breaks += 1
                yield Timeout(env, cpu.charge(costs.main_loop_full))
                yield from self._handle_receive(inbox.popleft())
        # Completion: the last chunk is safely in LANai memory as soon as
        # its host DMA finished (which the loop above awaited).
        yield from self._write_completion(
            ctx, request, COMPLETION_ERROR if error else COMPLETION_DONE)

    def _write_completion(self, ctx: ProcessContext, request: SendRequest,
                          status: int, epilogue: int = 0):
        """Generator: DMA the one-word completion status to user space,
        after ``epilogue`` cycles of send bookkeeping charged with it."""
        yield Timeout(self.env, self.nic.processor.charge(
            epilogue + self.costs.completion_write))
        paddr = ctx.completion_paddr + 4 * request.slot
        ctx.last_status[request.slot] = status
        event = request.completion
        # The writeback proceeds in the background; the LCP does not stall.
        written = self.nic.host_dma.write_host(_STATUS_WORDS[status], paddr)
        if event is not None:
            def completed(_written):
                if not event.triggered:
                    event.succeed(status)

            written.callbacks.append(completed)

    # ----------------------------------------------------------- receive path
    def _handle_receive(self, packet: MyrinetPacket):
        env = self.env
        cpu = self.nic.processor
        costs = self.costs
        if not packet.meta.get("crc_ok", True):
            yield Timeout(env, cpu.charge(costs.recv_parse))
            # Detected, counted, dropped — never recovered (section 4.2).
            self.crc_drops += 1
            if env.tracer is not None:
                emit(env, f"{self.name}.recv.crc_drop")
            return
        header = packet.header
        extents = header.extents
        # Parse and page-table check are one charge: the CRC verdict was
        # fixed on arrival, so nothing observes the boundary between them.
        yield Timeout(env, cpu.charge(
            costs.recv_parse + costs.incoming_check * max(1, len(extents))))
        # One walk of the incoming table: protection, then notification.
        frame, notify = self.incoming.admit(extents)
        if frame is not None:
            self.protection_violations += 1
            if env.tracer is not None:
                emit(env, f"{self.name}.recv.protection_violation",
                     frame=frame)
            return
        yield Timeout(env, cpu.charge(costs.start_dma))
        self.packets_delivered += 1
        delivery = self.nic.host_dma.write_host_scatter(packet.payload,
                                                        extents)
        if (notify or header.notify) and header.last:
            entry = self.incoming.lookup(extents[0][0] // PAGE_SIZE)
            info = {
                "pid": entry.owner_pid,
                "buffer_id": entry.buffer_id,
                "src_node": header.src_node,
                "length": header.msg_length,
            }
            self.notifications_raised += 1

            def deliver_then_notify():
                yield delivery
                yield Timeout(env, self.nic.processor.charge(
                    self.costs.raise_interrupt))
                yield self.nic.raise_interrupt("notification", info)

            self.env.process(deliver_then_notify(),
                             name=f"{self.name}.notify")
        # The LCP continues; the host DMA engine delivers in the background.
