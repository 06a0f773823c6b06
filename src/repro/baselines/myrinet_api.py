"""Myricom's stock Myrinet API (section 7).

"The Myrinet API supports multi-channel communication, message checksums,
dynamic network configuration and scatter/gather operations; however, it
does not support flow control or reliable message delivery.  On our
hardware platform the Myrinet API has a latency of 63 microseconds for a
4 byte packet and a peak ping-pong bandwidth of ~30 MBytes per second for
an 8 KByte message."

The structure that produces those numbers: a heavyweight user library
(channel demux, software checksums, descriptor rings) on both sides, DMA
from registered memory (scatter/gather, so no send copy), and a mandatory
receive-side copy from the API's receive ring into user data structures.
"""

from __future__ import annotations

import itertools

from repro.sim import Store
from repro.mem.buffers import UserBuffer
from repro.hw.myrinet.packet import BaselineHeader
from repro.baselines.common import ProtocolPair

#: Per-message library cost on each side: channel lookup, descriptor
#: management, software checksum bookkeeping, completion handling.
TX_OVERHEAD_NS = 27_000
RX_OVERHEAD_NS = 27_000
#: Per-message LANai firmware cost (descriptor fetch + header).
FIRMWARE_NS = 2_400


class MyrinetAPIPair(ProtocolPair):
    """Two nodes talking over the stock API."""

    protocol = "myrinet_api"

    def __init__(self, **kw):
        self._inboxes = None
        self._seq = itertools.count(1)
        super().__init__(**kw)

    def _start_firmware(self) -> None:
        self._inboxes = [Store(self.env), Store(self.env)]
        for node in self.nodes:
            self.env.process(self._recv_loop(node.index),
                             name=f"api.fw{node.index}")

    def _recv_loop(self, index: int):
        node = self.nodes[index]
        while True:
            packet = yield node.nic.net_recv.get()
            if not packet.meta.get("crc_ok", True):
                continue  # unreliable: silently lost (no recovery)
            # NIC DMAs the packet into the API's pinned receive ring.
            yield node.nic.host_dma.write_host(
                packet.payload, 4096)  # ring slot in low memory
            # Host-side: receive call overhead + copy into user structures.
            yield self.env.timeout(RX_OVERHEAD_NS)
            yield node.membus.bcopy(packet.payload_bytes)
            self._inboxes[index].put(
                (packet.header.seq, packet.payload_bytes))

    def deliveries(self, dst_index: int) -> Store:
        return self._inboxes[dst_index]

    def send(self, src_index: int, payload_buffer: UserBuffer, nbytes: int):
        node = self.nodes[src_index]

        def run():
            yield self.env.timeout(TX_OVERHEAD_NS)
            # Post a gather descriptor (no copy — memory is registered).
            yield node.bus.mmio_write(4)
            yield node.nic.processor.work_ns(FIRMWARE_NS)
            # LANai fetches the data page-by-page (registered user memory
            # is as scattered as anyone's: 4 KB DMA transfer units).
            fetched = 0
            while fetched < nbytes:
                chunk = min(4096, nbytes - fetched)
                paddr = node.space.translate(
                    payload_buffer.vaddr + (fetched % payload_buffer.nbytes))
                yield node.nic.host_dma.to_sram(paddr, 0, chunk)
                fetched += chunk
            packet = self.make_packet(
                src_index, BaselineHeader("api_msg", next(self._seq), nbytes),
                payload_buffer.read(0, min(nbytes, payload_buffer.nbytes)))
            yield node.nic.net_send.send(packet)

        return self.env.process(run(), name="api.send")
