"""The loadable VMMC device driver (sections 4.1, 5.1).

"The new kernel-level code we needed is implemented in a loadable device
driver including a function which translates virtual to physical addresses
and code that invokes notifications using signals."

The driver's two interrupt paths:

* ``tlb_miss`` — the LANai hit a missing source translation on a long
  send.  The driver locks up to 32 pages starting at the faulting address
  and writes the translations into the per-process software TLB in SRAM
  with programmed I/O (section 4.5: "On one interrupt, translations for up
  to 32 pages are inserted into the SRAM TLB.  Send pages are locked in
  memory by the VMMC driver when it provides the translations.").
* ``notification`` — a delivered message wants a user-level handler run;
  the driver posts a signal to the owning process (section 5.1).

It also offers the *setup* services the daemon uses: installing incoming
and outgoing page-table entries on the NIC (PIO writes, off the data
path).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim import Environment
from repro.sim.trace import emit
from repro.obs.metrics import count as count_metric
from repro.mem.virtual import PAGE_SIZE, PageFault
from repro.hostos.driver import DeviceDriver
from repro.hostos.kernel import Kernel, SIGIO
from repro.hostos.process import UserProcess
from repro.vmmc.lcp import ProcessContext, VmmcLCP
from repro.vmmc.tlb import REFILL_BATCH


class VMMCDriver(DeviceDriver):
    """Kernel driver for one node's Myrinet interface."""

    def __init__(self, env: Environment, kernel: Kernel, lcp: VmmcLCP,
                 name: str = "vmmc_drv"):
        super().__init__(env, kernel, name)
        self.lcp = lcp
        lcp.nic.set_interrupt_handler(self.isr)
        self._processes: dict[int, UserProcess] = {}
        #: (pid, buffer_id) → user notification handler.
        self._notify_handlers: dict[tuple[int, int],
                                    Callable[[dict], object]] = {}
        self.tlb_refills = 0
        self.pages_locked_for_send = 0
        self.notifications_delivered = 0

    # -- process attachment --------------------------------------------------
    def attach_process(self, process: UserProcess,
                       completion_paddr: int) -> ProcessContext:
        """Open of /dev/vmmc by a user process."""
        self._processes[process.pid] = process
        ctx = self.lcp.register_process(process.pid, completion_paddr)
        # The process dispatches VMMC notifications through one signal.
        process.register_signal_handler(SIGIO, self._dispatch_notification)
        return ctx

    def register_notify_handler(self, pid: int, buffer_id: int,
                                handler: Callable[[dict], object]) -> None:
        self._notify_handlers[(pid, buffer_id)] = handler

    def drop_notify_handler(self, pid: int, buffer_id: int) -> None:
        """Invalidate a notification registration (daemon cold boot: the
        re-registered export gets a new buffer id, so the old arming can
        never fire again — drop it rather than leak it)."""
        self._notify_handlers.pop((pid, buffer_id), None)

    def process(self, pid: int) -> Optional[UserProcess]:
        """The attached process for ``pid`` (None if never attached)."""
        return self._processes.get(pid)

    # -- interrupt service -----------------------------------------------------
    def handle_irq(self, reason: str, payload: Any):
        if reason == "tlb_miss":
            return self._refill_tlb(payload)
        if reason == "notification":
            return self._deliver_notification(payload)
        raise ValueError(f"{self.name}: unknown interrupt {reason!r}")

    def _refill_tlb(self, payload: dict):
        """Pin + translate up to 32 pages and PIO them into the SRAM TLB."""
        pid = payload["pid"]
        vaddr = payload["vaddr"]
        count = payload.get("count", REFILL_BATCH)
        process = self._processes[pid]
        ctx = self.lcp.processes[pid]
        pairs = yield self.kernel.translate_range(process.space, vaddr, count)
        if not pairs:
            emit(self.env, f"{self.name}.tlb_refill.fault", vaddr=vaddr)
            return False
        lock_ns = self.kernel.params.lock_page_ns * len(pairs)
        yield self.env.timeout(lock_ns)
        for vpage, paddr in pairs:
            process.space.memory.pin(paddr // PAGE_SIZE)
            self.pages_locked_for_send += 1
        # Two PIO words per TLB entry (tag + frame).
        yield self.lcp.nic.bus.mmio_write(2 * len(pairs))
        for vpage, paddr in pairs:
            ctx.tlb.insert(vpage, paddr // PAGE_SIZE)
        self.tlb_refills += 1
        count_metric(self.env, "vmmc.tlb_refills", driver=self.name)
        count_metric(self.env, "vmmc.pages_locked", len(pairs),
                     driver=self.name)
        emit(self.env, f"{self.name}.tlb_refill", vaddr=vaddr,
             inserted=len(pairs))
        return True

    def _deliver_notification(self, info: dict):
        """Post SIGIO to the receiving process; its handler dispatches."""
        process = self._processes.get(info["pid"])
        if process is None:
            return False
        self.notifications_delivered += 1
        count_metric(self.env, "vmmc.notifications_delivered",
                     driver=self.name)
        # Signal delivery happens after the ISR returns; don't stall the
        # interrupt (or the LCP) on the user handler.
        self.env.process(
            self._signal_later(process, info), name=f"{self.name}.signal")
        yield self.env.timeout(0)
        return True

    def _signal_later(self, process: UserProcess, info: dict):
        yield self.kernel.deliver_signal(process, SIGIO, info)

    def _dispatch_notification(self, info: dict):
        handler = self._notify_handlers.get(
            (info["pid"], info["buffer_id"]))
        if handler is not None:
            return handler(info)
        return None

    # -- setup services (used by the daemon, off the data path) ------------------
    def install_incoming_entries(self, frames: list[int], owner_pid: int,
                                 buffer_id: int, notify: bool):
        """Process: mark frames writable in the incoming page table."""
        def run():
            yield self.lcp.nic.bus.mmio_write(len(frames))
            for frame in frames:
                self.lcp.incoming.allow(frame, owner_pid, buffer_id,
                                        notify=notify)

        return self.env.process(run(), name=f"{self.name}.incoming_setup")

    def revoke_incoming_entries(self, frames: list[int]):
        def run():
            yield self.lcp.nic.bus.mmio_write(len(frames))
            for frame in frames:
                self.lcp.incoming.revoke(frame)

        return self.env.process(run(), name=f"{self.name}.incoming_revoke")

    def install_outgoing_entries(self, pid: int, first_proxy_page: int,
                                 node_index: int, phys_pages: list[int]):
        """Process: point the importer's outgoing table at remote frames."""
        ctx = self.lcp.processes[pid]

        def run():
            yield self.lcp.nic.bus.mmio_write(len(phys_pages))
            for i, phys_page in enumerate(phys_pages):
                ctx.outgoing.set_entry(first_proxy_page + i, node_index,
                                       phys_page)

        return self.env.process(run(), name=f"{self.name}.outgoing_setup")

    def clear_outgoing_entries(self, pid: int, first_proxy_page: int,
                               npages: int):
        """Process: tear down a proxy region's outgoing entries (unimport /
        invalidation); subsequent sends through these pages proxy-fault."""
        ctx = self.lcp.processes[pid]

        def run():
            yield self.lcp.nic.bus.mmio_write(npages)
            for i in range(npages):
                ctx.outgoing.clear_entry(first_proxy_page + i)

        return self.env.process(run(), name=f"{self.name}.outgoing_clear")
