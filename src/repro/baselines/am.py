"""Active Messages (section 7).

"In Active Messages each communication is formed by a request/reply pair.
Request messages include the address of a handler function at the
destination node and a fixed size payload that is passed as an argument to
the handler.  Notification is done using either waiting for response,
polling or interrupts.  The current implementation of active messages does
not support channels or threads.  Active Messages does not yet run on our
hardware."

Because AM had no numbers on the paper's platform, this model exists for
structural completeness (the section-7 bench reports its figures as
supplementary): request/reply pairs, handler dispatch at the destination,
a small fixed argument payload with a bulk variant (``am_store``) that
moves data into a remote pinned segment.  Handlers are numbered by name,
pair-wide, the way one program image gives every node the same handler
table; a request's header word is that number with the argument count in
its top byte, and the arguments are the four words of its payload.
"""

from __future__ import annotations

import itertools
import struct
from typing import Callable

from repro.sim import Store
from repro.mem.buffers import UserBuffer
from repro.hw.myrinet.packet import BaselineHeader
from repro.baselines.common import ProtocolPair

#: Library cost per request/reply injection.
TX_OVERHEAD_NS = 2_000
#: Handler dispatch at the destination (poll + call).
HANDLER_NS = 3_000
#: Firmware cost per packet.
FIRMWARE_NS = 1_100
#: Bulk fragment size for am_store.
STORE_FRAGMENT = 4096
#: A request's fixed 16-byte payload: four 32-bit argument words.
ARG_WORDS = struct.Struct("<4i")


class ActiveMessagesPair(ProtocolPair):
    """Two single-process nodes running an AM layer."""

    protocol = "am"

    def __init__(self, **kw):
        self._inboxes = None
        self._seq = itertools.count(1)
        self.handlers: list[dict[str, Callable]] = [{}, {}]
        #: Handler number → name; am_store's bulk fragments use ``store``.
        self._handler_names = ["store"]
        super().__init__(**kw)

    def _start_firmware(self) -> None:
        self._inboxes = [Store(self.env), Store(self.env)]
        self._partial: list[dict[int, int]] = [{}, {}]
        for node in self.nodes:
            self.env.process(self._recv_loop(node.index),
                             name=f"am.fw{node.index}")

    def register_handler(self, index: int, name: str,
                         handler: Callable) -> None:
        self.handlers[index][name] = handler

    def _handler_number(self, name: str) -> int:
        if name not in self._handler_names:
            self._handler_names.append(name)
        return self._handler_names.index(name)

    def _recv_loop(self, index: int):
        node = self.nodes[index]
        partial = self._partial[index]
        while True:
            packet = yield node.nic.net_recv.get()
            if not packet.meta.get("crc_ok", True):
                continue
            yield node.nic.processor.work_ns(FIRMWARE_NS)
            yield node.nic.host_dma.write_host(packet.payload, 12288)
            header = packet.header
            got = partial.get(header.seq, 0) + packet.payload_bytes
            if got < header.msg_length:
                partial[header.seq] = got
                continue
            partial.pop(header.seq, None)
            yield self.env.timeout(HANDLER_NS)
            handler = self.handlers[index].get(
                self._handler_names[header.word & 0xFFFFFF])
            if handler is not None:
                nargs = header.word >> 24
                result = handler(ARG_WORDS.unpack_from(packet.payload)[:nargs]
                                 if nargs else ())
                if hasattr(result, "__next__"):
                    yield from result
            self._inboxes[index].put((header.seq, header.msg_length))

    def deliveries(self, dst_index: int) -> Store:
        return self._inboxes[dst_index]

    def send(self, src_index: int, payload_buffer: UserBuffer, nbytes: int):
        """Process: am_store of ``nbytes`` (or a bare request for tiny
        payloads) to the peer."""
        node = self.nodes[src_index]
        seq = next(self._seq)

        def run():
            yield self.env.timeout(TX_OVERHEAD_NS)
            sent = 0
            while sent < nbytes:
                frag = min(STORE_FRAGMENT, nbytes - sent)
                yield node.bus.mmio_write(4)
                yield node.nic.processor.work_ns(FIRMWARE_NS)
                paddr = node.space.translate(
                    payload_buffer.vaddr
                    + (sent % max(1, payload_buffer.nbytes - frag + 1)))
                yield node.nic.host_dma.to_sram(paddr, 0, frag)
                packet = self.make_packet(
                    src_index, BaselineHeader("am_request", seq, nbytes, sent,
                                              self._handler_number("store")),
                    payload_buffer.read(0, frag))
                node.nic.net_send.send(packet)
                sent += frag

        return self.env.process(run(), name="am.send")

    def request(self, src_index: int, handler: str, args: tuple = ()):
        """Process: a 4-word AM request invoking ``handler`` remotely
        with up to four integer ``args``."""
        node = self.nodes[src_index]
        seq = next(self._seq)
        word = len(args) << 24 | self._handler_number(handler)
        payload = ARG_WORDS.pack(*args, *(0,) * (4 - len(args)))

        def run():
            yield self.env.timeout(TX_OVERHEAD_NS)
            yield node.bus.mmio_write(6)
            yield node.nic.processor.work_ns(FIRMWARE_NS)
            packet = self.make_packet(
                src_index, BaselineHeader("am_request", seq, 16, 0, word),
                payload)
            yield node.nic.net_send.send(packet)

        return self.env.process(run(), name="am.request")
