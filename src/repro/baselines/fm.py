"""Illinois Fast Messages 2.0 (section 7).

"FM ... is a user-level communication interface which does not provide
protection, i.e. only one user process per node is assumed ...  FM design
favors low latency ...  The low latency is achieved by using a small
buffer size (128 bytes) and programmed I/O on the sending side.  Using
programmed I/O avoids the need for pinning pages on the sender side.  On
the receiver side, DMA is used to move the message data from the LANai to
the receive buffers, which are located in pinned memory.  The handlers
then copy the data from the receive buffers to the user's data
structures."

Consequences reproduced by this model:

* sends are PIO-bound: 128-byte fragments written one 32-bit word at a
  time across PCI (0.121 µs each) — a hard ≈33 MB/s ceiling;
* small-message latency is excellent (≈11.7 µs at 8 bytes);
* the receiver pays one copy per message (VMMC's zero-copy advantage);
* reliable delivery and a streaming gather/scatter interface, but no
  inter-process protection.
"""

from __future__ import annotations

import itertools

from repro.sim import Store
from repro.mem.buffers import UserBuffer
from repro.hw.myrinet.packet import BaselineHeader
from repro.baselines.common import ProtocolPair

#: FM fragment (packet) payload size.
FRAGMENT_BYTES = 128
#: Library cost per send call (stream open/close, ordering bookkeeping).
TX_OVERHEAD_NS = 2_200
#: Per-fragment header words written with PIO besides the payload words.
HEADER_WORDS = 2
#: LANai forwarding cost per fragment.
FIRMWARE_NS = 900
#: Host extract()/handler dispatch cost per message.
HANDLER_DISPATCH_NS = 4_500


class FastMessagesPair(ProtocolPair):
    """Two single-process nodes running FM 2.0."""

    protocol = "fm"

    def __init__(self, **kw):
        self._inboxes = None
        self._seq = itertools.count(1)
        super().__init__(**kw)

    def _start_firmware(self) -> None:
        self._inboxes = [Store(self.env), Store(self.env)]
        self._partial: list[dict[int, int]] = [{}, {}]
        self._complete = [Store(self.env), Store(self.env)]
        for node in self.nodes:
            self.env.process(self._recv_loop(node.index),
                             name=f"fm.fw{node.index}")
            self.env.process(self._extract_loop(node.index),
                             name=f"fm.extract{node.index}")

    def _recv_loop(self, index: int):
        """NIC firmware: DMA fragments into the pinned receive region and
        hand complete messages to the host's extract loop (which runs on
        the CPU, concurrently with further fragment DMAs)."""
        node = self.nodes[index]
        partial = self._partial[index]
        while True:
            packet = yield node.nic.net_recv.get()
            if not packet.meta.get("crc_ok", True):
                continue
            # DMA fragment into the pinned receive region.
            yield node.nic.host_dma.write_host(packet.payload, 8192)
            seq = packet.header.seq
            got = partial.get(seq, 0) + packet.payload_bytes
            if got >= packet.header.msg_length:
                partial.pop(seq, None)
                self._complete[index].put((seq, packet.header.msg_length))
            else:
                partial[seq] = got

    def _extract_loop(self, index: int):
        """Host side: fm_extract() dispatches handlers, which copy the
        data from the pinned receive buffers to user structures."""
        node = self.nodes[index]
        while True:
            seq, length = yield self._complete[index].get()
            yield self.env.timeout(HANDLER_DISPATCH_NS)
            yield node.membus.bcopy(length)
            self._inboxes[index].put((seq, length))

    def deliveries(self, dst_index: int) -> Store:
        return self._inboxes[dst_index]

    def send(self, src_index: int, payload_buffer: UserBuffer, nbytes: int):
        """Process: FM_send — PIO-copy 128 B fragments into the NIC."""
        node = self.nodes[src_index]
        seq = next(self._seq)

        def run():
            yield self.env.timeout(TX_OVERHEAD_NS)
            sent = 0
            while sent < nbytes:
                frag = min(FRAGMENT_BYTES, nbytes - sent)
                words = HEADER_WORDS + (frag + 3) // 4
                # The defining cost: every payload word crosses the PCI
                # bus as a programmed-I/O write.  No pinning needed.
                yield node.bus.mmio_write(words)
                payload = payload_buffer.read(
                    sent % max(1, payload_buffer.nbytes - frag + 1), frag)
                packet = self.make_packet(
                    src_index, BaselineHeader("fm_frag", seq, nbytes, sent),
                    payload)
                # LANai forwarding overlaps the host's PIO of the next
                # fragment; the send engine keeps fragments in order.
                self.env.process(self._forward(node, packet),
                                 name="fm.fw_send")
                sent += frag

        return self.env.process(run(), name="fm.send")

    def _forward(self, node, packet):
        yield node.nic.processor.work_ns(FIRMWARE_NS)
        yield node.nic.net_send.send(packet)
