"""VMMC on SHRIMP — the paper's original implementation (section 6).

The model API is identical to the Myrinet implementation (export / import /
SendMsg, deliberate update only); what differs is everything below it:

* the destination proxy space is a *subset of the sender's virtual address
  space*, with OS-maintained proxy mappings providing protection;
* a user process initiates a ≤page transfer with **two memory-mapped I/O
  instructions** — the hardware state machine does permission checks,
  outgoing-table lookup, packet build and DMA start in 2–3 µs;
* a message spanning N source pages costs the host N two-instruction
  initiations (Myrinet posts a single request and lets the LANai walk the
  pages — lower host overhead for very long sends, section 6);
* export/import matchmaking uses the same daemon protocol ("in fact the
  same daemon code is used in both cases") — here the daemon logic is
  inlined with the same Ethernet exchange and page-locking costs.
"""

from __future__ import annotations

import numpy as np

from repro.sim import Environment
from repro.mem.buffers import UserBuffer
from repro.mem.physical import PhysicalMemory
from repro.mem.virtual import AddressSpace, PAGE_SIZE
from repro.hw.bus.eisa import EISABus
from repro.hw.bus.membus import MemoryBus
from repro.hw.myrinet import topology
from repro.hw.shrimp import ShrimpNIC, ShrimpParams
from repro.hostos.kernel import Kernel
from repro.vmmc.api import VMMCEndpoint
from repro.vmmc.errors import ImportDenied, SendError
from repro.vmmc.proxy import ProxyRegion, ProxySpace

#: Thin user-level library: the send path is "just two memory-mapped I/O
#: instructions" plus negligible bookkeeping.
LIB_SEND_OVERHEAD_NS = 400


class ShrimpNode:
    """One SHRIMP multicomputer node."""

    def __init__(self, env: Environment, name: str, index: int,
                 fabric: MyrinetNetwork, memory_mb: int = 64,
                 params: ShrimpParams | None = None):
        self.env = env
        self.name = name
        self.index = index
        self.memory = PhysicalMemory(memory_mb * 1024 * 1024,
                                     reserved_frames=64)
        self.bus = EISABus(env, name=f"{name}.eisa")
        self.membus = MemoryBus(env)
        self.kernel = Kernel(env, name=f"{name}.kernel")
        self.nic = ShrimpNIC(env, fabric, name, index, self.bus,
                             self.memory, params)
        self.exports: dict[str, dict] = {}


class ShrimpEndpoint:
    """Per-process VMMC handle on a SHRIMP node (same model API)."""

    def __init__(self, node: ShrimpNode, name: str = "proc"):
        self.env = node.env
        self.node = node
        self.space = AddressSpace(node.memory, name=name)
        #: Proxy pages live in the sender's own address space on SHRIMP.
        self.proxy = ProxySpace(npages=2048)
        self._imports: dict[int, tuple[int, list[int]]] = {}
        self.sends_posted = 0

    def alloc_buffer(self, nbytes: int) -> UserBuffer:
        return UserBuffer.alloc(self.space, nbytes)

    # -- export/import (same daemon protocol; costs mirrored) -----------------
    def export(self, buffer: UserBuffer, name: str, notify: bool = False):
        def run():
            frames = yield self.node.kernel.lock_pages(
                self.space, buffer.vaddr, buffer.nbytes)
            for frame in frames:
                self.node.nic.incoming.allow(frame, owner_pid=0, buffer_id=0,
                                             notify=notify)
            self.node.exports[name] = {
                "frames": frames, "nbytes": buffer.nbytes}
            return name

        return self.env.process(run(), name="shrimp.export")

    def import_buffer(self, remote: ShrimpNode, name: str):
        """Process: import from a peer node; value is a ProxyRegion.

        On SHRIMP the kernel must additionally create the special proxy
        *mappings* in the sender's address space — the extra OS support
        the section-6 comparison charges this platform with.
        """
        def run():
            record = remote.exports.get(name)
            if record is None:
                raise ImportDenied(f"no export {name!r} on {remote.name}")
            region = self.proxy.reserve(record["nbytes"])
            # Kernel sets up one proxy mapping per page (syscall + mapping
            # maintenance — the OS cost unique to SHRIMP).
            yield self.node.kernel.syscall(
                work_ns=2_000 * len(record["frames"]))
            for i, frame in enumerate(record["frames"]):
                self.node.nic.outgoing.set_entry(
                    region.first_page + i, remote.index, frame)
            self._imports[region.first_page] = (remote.index,
                                                record["frames"])
            return region

        return self.env.process(run(), name="shrimp.import")

    # -- SendMsg over deliberate update ------------------------------------------
    def send(self, src: UserBuffer, region: ProxyRegion, nbytes: int,
             src_offset: int = 0, dest_offset: int = 0,
             synchronous: bool = True):
        """Process: deliberate-update send; value is the per-page count.

        The host issues **two I/O writes per source page** (N initiations
        for an N-page message); each initiation's data fetch and injection
        runs in the hardware state machine.  A synchronous send returns
        when the last page's data has left host memory.
        """
        outgoing = self.node.nic.outgoing

        def run():
            if nbytes <= 0 or src_offset + nbytes > src.nbytes:
                raise SendError("bad send arguments")
            yield self.env.timeout(LIB_SEND_OVERHEAD_NS)
            cursor_v = src.vaddr + src_offset
            proxy_cursor = region.address(dest_offset)
            remaining = nbytes
            initiations = 0
            last_sm = None
            while remaining > 0:
                chunk = min(remaining, PAGE_SIZE - (cursor_v % PAGE_SIZE))
                # Two memory-mapped I/O instructions per initiation.
                yield self.node.bus.mmio_write(
                    self.node.nic.params.initiation_writes)
                # Permission check + V->P translation via the sender's own
                # page tables happen in the state machine using the proxy
                # mapping; destination extents resolve as on the LCP.
                src_paddr = self.space.translate(cursor_v)
                resolved = outgoing.resolve(proxy_cursor, chunk)
                if resolved is None:
                    raise SendError("send outside the import")
                node_index, extents = resolved
                remaining -= chunk
                # The state machine works while the host initiates the
                # next page.
                last_sm = self.node.nic.state_machine.deliberate_update(
                    src_paddr, extents, node_index, chunk,
                    last=(remaining == 0))
                initiations += 1
                cursor_v += chunk
                proxy_cursor += chunk
            if synchronous and last_sm is not None:
                yield last_sm
                yield self.node.membus.cacheline_fill()
            self.sends_posted += 1
            return initiations

        return self.env.process(run(), name="shrimp.send")

    # -- automatic update (footnote 3 — SHRIMP-only extension) ----------------
    def map_automatic(self, buffer: UserBuffer, remote: ShrimpNode,
                      name: str):
        """Process: bind ``buffer`` to a remote export in *automatic
        update* mode: subsequent :meth:`au_write` stores to it are snooped
        off the memory bus and propagate with zero send instructions."""
        def run():
            record = remote.exports.get(name)
            if record is None:
                raise ImportDenied(f"no export {name!r} on {remote.name}")
            npages = min(buffer.npages, len(record["frames"]))
            # The kernel creates the snoop mappings (more OS support — the
            # section-6 cost of SHRIMP's fancier hardware).
            yield self.node.kernel.syscall(work_ns=2_500 * npages)
            frames = self.space.pin_range(buffer.vaddr,
                                          npages * PAGE_SIZE)
            for i, local_frame in enumerate(frames):
                self.node.nic.au.map_page(local_frame, remote.index,
                                          record["frames"][i])
            return npages

        return self.env.process(run(), name="shrimp.au_map")

    def au_write(self, buffer: UserBuffer, payload: bytes | np.ndarray,
                 offset: int = 0):
        """Process: an ordinary store to automatic-update-mapped memory.

        The CPU just writes its own memory; the snooping hardware does the
        communication.  Completion means the *local* write finished — the
        update propagates asynchronously (SHRIMP's automatic-update
        consistency model).
        """
        data = np.frombuffer(bytes(payload), dtype=np.uint8) \
            if isinstance(payload, (bytes, bytearray)) \
            else np.asarray(payload, dtype=np.uint8)

        def run():
            # The store itself (normal memory-write cost).
            yield self.node.membus.bcopy(int(data.size))
            buffer.write(data, offset=offset)
            # Each physically contiguous piece appears on the memory bus
            # as its own burst; the snooper sees them in order.
            cursor = 0
            for paddr, length in self.space.physical_extents(
                    buffer.vaddr + offset, int(data.size)):
                yield self.node.nic.au.snoop(
                    paddr, data[cursor:cursor + length])
                cursor += length

        return self.env.process(run(), name="shrimp.au_write")

    #: The spin-wait primitive is the Myrinet library's, unchanged.
    watch = VMMCEndpoint.watch


class ShrimpCluster:
    """A small SHRIMP multicomputer for the section-6 comparison."""

    def __init__(self, nnodes: int = 2, memory_mb: int = 16,
                 params: ShrimpParams | None = None,
                 env: Environment | None = None):
        self.env = env or Environment()
        self.params = params or ShrimpParams()
        # No mapping phase maps this fabric, and one switch needs no
        # deadlock proof: every route holds a host's uplink, then a
        # host's downlink, so no channel is requested while one of the
        # latter is held and the dependency graph has no cycle.
        self.fabric = topology.build(
            topology.SingleSwitchSpec(nhosts_=nnodes),
            self.env, self.params.link)
        self.nodes = [
            ShrimpNode(self.env, f"node{i}", i, self.fabric,
                       memory_mb=memory_mb, params=self.params)
            for i in range(nnodes)
        ]
        names = [n.name for n in self.nodes]
        for node in self.nodes:
            node.nic.install_routes({
                other.index: self.fabric.compute_route(node.name, other.name)
                for other in self.nodes if other is not node
            })

    def endpoint(self, index: int, name: str = "") -> ShrimpEndpoint:
        return ShrimpEndpoint(self.nodes[index],
                              name or f"proc{index}")
