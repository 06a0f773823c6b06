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

from repro.sim import Environment, Event
from repro.sim.trace import emit
from repro.obs.metrics import counter, histogram
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
            nic.sram.alloc(f"send_staging.{i}", PAGE_SIZE)
            for i in range(_SEND_STAGING)
        ]
        nic.sram.alloc("recv_staging", 4 * PAGE_SIZE)
        nic.net_recv.on_arrival = self._ring_doorbell
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
        # registry series, one handle each (kind: short or long send)
        lcp = self.name
        self._m_sends = {short: counter(env, "lcp.sends", lcp=lcp, kind=kind)
                         for short, kind in ((True, "short"),
                                             (False, "long"))}
        self._m_service_ns = histogram(env, "lcp.send.service_ns", lcp=lcp)
        self._m_proxy_faults = counter(env, "lcp.proxy_faults", lcp=lcp)
        self._m_chunks = counter(env, "lcp.chunks", lcp=lcp)
        self._m_tlb_misses = counter(env, "lcp.tlb_miss_interrupts", lcp=lcp)
        self._m_tight_loop_breaks = counter(env, "lcp.tight_loop_breaks",
                                            lcp=lcp)
        self._m_crc_drops = counter(env, "lcp.crc_drops", lcp=lcp)
        self._m_protection_violations = counter(
            env, "lcp.protection_violations", lcp=lcp)
        self._m_packets_delivered = counter(env, "lcp.packets_delivered",
                                            lcp=lcp)
        self._m_notifications = counter(env, "lcp.notifications", lcp=lcp)

    # ------------------------------------------------------------------ setup
    def install_routes(self, routes: dict[int, list[int]]) -> None:
        """Static routing table produced by the mapping phase (section 4.3).

        Route bytes also live in SRAM (a few bytes per destination)."""
        self.routes = dict(routes)
        region = f"route_table"
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
    def _ring_doorbell(self) -> None:
        if self._doorbell is not None and not self._doorbell.triggered:
            self._doorbell.succeed()

    def doorbell(self) -> None:
        """Called by the user library after posting a send request."""
        self._ring_doorbell()

    # ------------------------------------------------------------ main loop
    def _work_pending(self) -> bool:
        if self.nic.net_recv.pending():
            return True
        return any(self.processes[pid].queue.peek() is not None
                   for pid in self._scan_order)

    def _main_loop(self):
        cpu = self.nic.processor
        costs = self.costs
        while True:
            if not self._work_pending():
                self._doorbell = self.env.event()
                yield self._doorbell
                self._doorbell = None
            # One iteration of the main loop: poll receive side, then scan
            # every attached process's queue head (section 6: "picking up a
            # send request in Myrinet requires scanning send queues of all
            # possible senders").
            yield cpu.cycles(costs.main_loop
                             + costs.scan_per_queue
                             * max(1, len(self._scan_order)))
            if self.nic.net_recv.pending():
                packet = self.nic.net_recv.inbox.popleft()
                yield from self._handle_receive(packet)
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
            if ctx.queue.peek() is not None:
                self._scan_cursor = (self._scan_cursor + i + 1) % n
                return ctx, ctx.queue.pickup()
        return None

    # ------------------------------------------------------------- send path
    def _process_send(self, ctx: ProcessContext, request: SendRequest):
        cpu = self.nic.processor
        t0 = self.env.now
        yield cpu.cycles(self.costs.pickup)
        self.sends_processed += 1
        emit(self.env, f"{self.name}.send.pickup", pid=ctx.pid,
             slot=request.slot, length=request.length,
             short=request.is_short)
        self._m_sends[request.is_short].inc()
        if request.is_short:
            yield from self._send_short(ctx, request)
        else:
            yield from self._send_long(ctx, request)
        self._m_service_ns.observe(self.env.now - t0)

    def _make_packet(self, node: int, extents: tuple[tuple[int, int], ...],
                     payload: np.ndarray, notify: bool, last: bool,
                     msg_len: int) -> MyrinetPacket:
        header = DepositHeader("vmmc_data", extents, notify, last,
                               self.node_index, msg_len)
        return MyrinetPacket(list(self.routes[node]), header, payload)

    def _send_short(self, ctx: ProcessContext, request: SendRequest):
        cpu = self.nic.processor
        costs = self.costs
        resolved = ctx.outgoing.resolve(request.proxy_address,
                                        request.length)
        if resolved is None:
            yield cpu.cycles(costs.proxy_lookup)
            self.proxy_faults += 1
            self._m_proxy_faults.inc()
            yield from self._write_completion(ctx, request,
                                              COMPLETION_ERROR)
            return
        node, extents = resolved
        words = (request.length + 3) // 4
        # The lookup and the copy/header/route/DMA start are one charge:
        # the destination is resolved before either, so nothing observes
        # the boundary between them.
        yield cpu.cycles(costs.proxy_lookup
                         + costs.short_copy_per_word * words
                         + costs.header_build + costs.route_fetch
                         + costs.start_dma)
        packet = self._make_packet(node, extents, request.inline_data,
                                   request.notify, last=True,
                                   msg_len=request.length)
        self.short_sends += 1
        self.chunks_sent += 1
        self._m_chunks.inc()
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

    def _translate(self, ctx: ProcessContext, vaddr: int):
        """Generator: V→P through the software TLB; interrupts the host
        driver on a miss.  Returns the physical address or None."""
        cpu = self.nic.processor
        vpage = vaddr // PAGE_SIZE
        yield cpu.cycles(self.costs.tlb_lookup)
        frame = ctx.tlb.lookup(vpage)
        if frame is None:
            self.tlb_miss_interrupts += 1
            self._m_tlb_misses.inc()
            yield cpu.cycles(self.costs.raise_interrupt)
            ok = yield self.nic.raise_interrupt(
                "tlb_miss",
                {"pid": ctx.pid, "vaddr": vaddr, "count": REFILL_BATCH})
            yield cpu.cycles(self.costs.tlb_lookup)
            frame = ctx.tlb.lookup(vpage)
            if not ok or frame is None:
                return None
        return frame * PAGE_SIZE + (vaddr % PAGE_SIZE)

    def _send_long(self, ctx: ProcessContext, request: SendRequest):
        cpu = self.nic.processor
        costs = self.costs
        chunks = self._plan_chunks(request.src_vaddr, request.length)
        proxy_cursor = request.proxy_address
        # Per-staging-buffer events: the net DMA that last used each buffer.
        # It may be the link's tail timer, a Timeout, which is triggered
        # from birth: "finished" is `.processed`.
        net_busy: list[Optional[Event]] = [None] * _SEND_STAGING
        host_pending: Optional[tuple[Event, int, int, int]] = None
        error = False
        self.long_sends += 1

        for index, (vaddr, clen) in enumerate(chunks):
            paddr = yield from self._translate(ctx, vaddr)
            if paddr is None:
                error = True
                break
            resolved = ctx.outgoing.resolve(proxy_cursor, clen)
            yield cpu.cycles(costs.proxy_lookup)
            if resolved is None:
                self.proxy_faults += 1
                self._m_proxy_faults.inc()
                error = True
                break
            node, extents = resolved
            buf = index % _SEND_STAGING
            # Double buffering: wait until the net DMA that last streamed
            # from this staging buffer has finished.
            if net_busy[buf] is not None and not net_busy[buf].processed:
                yield net_busy[buf]
            # Fire the host DMA for this chunk, then do the header
            # preparation *while it is in flight* — the overlap that buys
            # the last few MB/s (section 5.3).
            host_dma = self.nic.host_dma.to_sram(
                paddr, self._staging[buf].base, clen)
            prep_cycles = (costs.header_build + costs.route_fetch
                           + costs.start_dma + costs.tight_loop_per_chunk)
            if costs.precompute_headers:
                # Charge the preparation as the DMA starts, wait for the
                # DMA, then for whatever preparation time it did not cover.
                # That last wait is scheduled even when it is zero: like
                # the join it replaces, it puts the LCP behind everything
                # already due this nanosecond, so a packet that lands as
                # the DMA ends is seen by the tight-loop check below.
                prep_done = self.env.now + cpu.charge(prep_cycles)
                yield host_dma
                yield self.env.timeout(max(0, prep_done - self.env.now))
            else:
                # Ablation: prepare the header only after the data is in
                # SRAM — the prep cost lands on the critical path.
                yield host_dma
                yield cpu.cycles(prep_cycles)
            payload = self.nic.sram.read(self._staging[buf].base, clen)
            packet = self._make_packet(
                node, extents, payload, request.notify,
                last=(index == len(chunks) - 1), msg_len=request.length)
            net_busy[buf] = self.nic.net_send.send(packet)
            if not costs.pipeline_dma:
                # Ablation: no host/net overlap — wait for the wire before
                # fetching the next chunk.
                yield net_busy[buf]
            self.chunks_sent += 1
            self._m_chunks.inc()
            proxy_cursor += clen
            # Responsiveness: if traffic arrived, abandon the tight loop,
            # service it through the main loop, and come back (this is the
            # bidirectional-bandwidth cost of section 5.3).
            if self.nic.net_recv.pending():
                self.tight_loop_breaks += 1
                self._m_tight_loop_breaks.inc()
                yield cpu.cycles(costs.main_loop_full)
                pkt = self.nic.net_recv.inbox.popleft()
                yield from self._handle_receive(pkt)
        # Completion: the last chunk is safely in LANai memory as soon as
        # its host DMA finished (which the loop above awaited).
        yield from self._write_completion(
            ctx, request, COMPLETION_ERROR if error else COMPLETION_DONE)

    def _write_completion(self, ctx: ProcessContext, request: SendRequest,
                          status: int, epilogue: int = 0):
        """Generator: DMA the one-word completion status to user space,
        after ``epilogue`` cycles of send bookkeeping charged with it."""
        cpu = self.nic.processor
        yield cpu.cycles(epilogue + self.costs.completion_write)
        word = np.frombuffer(
            np.uint32(status).tobytes(), dtype=np.uint8)
        paddr = ctx.completion_paddr + 4 * request.slot
        ctx.last_status[request.slot] = status
        event = request.completion
        # The writeback proceeds in the background; the LCP does not stall.
        written = self.nic.host_dma.write_host(word, paddr)
        if event is not None:
            def completed(_written):
                if not event.triggered:
                    event.succeed(status)

            written.callbacks.append(completed)

    # ----------------------------------------------------------- receive path
    def _handle_receive(self, packet: MyrinetPacket):
        cpu = self.nic.processor
        costs = self.costs
        if not packet.meta.get("crc_ok", True):
            yield cpu.cycles(costs.recv_parse)
            # Detected, counted, dropped — never recovered (section 4.2).
            self.crc_drops += 1
            self._m_crc_drops.inc()
            emit(self.env, f"{self.name}.recv.crc_drop")
            return
        header = packet.header
        extents = header.extents
        # Parse and page-table check are one charge: the CRC verdict was
        # fixed on arrival, so nothing observes the boundary between them.
        yield cpu.cycles(costs.recv_parse
                         + costs.incoming_check * max(1, len(extents)))
        frame = self.incoming.first_unwritable(extents)
        if frame is not None:
            self.protection_violations += 1
            self._m_protection_violations.inc()
            emit(self.env, f"{self.name}.recv.protection_violation",
                 frame=frame)
            return
        yield cpu.cycles(costs.start_dma)
        self.packets_delivered += 1
        self._m_packets_delivered.inc()
        delivery = self.nic.host_dma.write_host_scatter(packet.payload,
                                                        extents)
        notify = header.notify or any(
            self.incoming.lookup(paddr // PAGE_SIZE).notify
            for paddr, length in extents if length)
        if notify and header.last:
            entry = self.incoming.lookup(extents[0][0] // PAGE_SIZE)
            info = {
                "pid": entry.owner_pid,
                "buffer_id": entry.buffer_id,
                "src_node": header.src_node,
                "length": header.msg_length,
            }
            self.notifications_raised += 1
            self._m_notifications.inc()

            def deliver_then_notify():
                yield delivery
                yield self.nic.processor.cycles(self.costs.raise_interrupt)
                yield self.nic.raise_interrupt("notification", info)

            self.env.process(deliver_then_notify(),
                             name=f"{self.name}.notify")
        # The LCP continues; the host DMA engine delivers in the background.
