"""Point-to-point messaging over VMMC rings with credit flow control.

Channel layout (one per ordered pair ``src → dst``, living in *dst*'s
exported memory)::

    slot i (i = seq % nslots):
        [0:4)   u32 seq      (written LAST — publishes the fragment)
        [4:8)   u32 tag
        [8:12)  u32 total message length
        [12:16) u32 fragment length
        [16:..) fragment payload

Credit word (living in *src*'s exported memory, written remotely by dst):

    u32: highest sequence number consumed

The sender may have at most ``nslots`` unconsumed fragments outstanding;
it spins on its own credit word (a local cached read — the receiver's
remote write invalidates it) when the ring is full.  All data movement is
``SendMsg``; all synchronisation is spinning on exported memory.

There is no recovery here, as in VMMC itself (§4.2): a daemon cold
restart can silently swallow an in-flight fragment or credit write and
wedge both ends.  Traffic that must survive one rides
:mod:`repro.vmmc.reliable` channels instead.
"""

from __future__ import annotations

import numpy as np

from repro.sim import Environment, Resource
from repro.mem.buffers import UserBuffer
from repro.vmmc.api import ImportedBuffer, VMMCEndpoint

#: Fragment slots per channel and payload bytes per slot.
DEFAULT_SLOTS = 8
DEFAULT_SLOT_BYTES = 16 * 1024
_HEADER_BYTES = 16


class MPError(RuntimeError):
    """Misuse of the messaging layer (bad rank, oversized buffer...)."""


def _u32(value: int) -> bytes:
    return np.uint32(value).tobytes()


def _read_u32(buffer: UserBuffer, offset: int) -> int:
    return int(np.frombuffer(buffer.read(offset, 4).tobytes(),
                             dtype=np.uint32)[0])


class _RxChannel:
    """Receiver side of one src→me channel."""

    def __init__(self, ring: UserBuffer, nslots: int, slot_bytes: int,
                 credit_scratch: UserBuffer):
        self.ring = ring
        self.nslots = nslots
        self.slot_bytes = slot_bytes
        self.next_seq = 1
        #: Staging for outgoing credit updates (per channel, so receives
        #: from different sources never share a buffer mid-send).
        self.credit_scratch = credit_scratch
        #: Out-of-band buffered messages keyed by tag (tag mismatch).
        self.pending: dict[int, list[bytes]] = {}
        #: Serialises concurrent ``recv`` posts on this channel — two
        #: :meth:`Communicator._next_message` instances racing on
        #: ``next_seq`` would double-consume a fragment.  Lazy.
        self.lock = None


class _TxChannel:
    """Sender side of one me→dst channel."""

    def __init__(self, remote_ring: ImportedBuffer, credit: UserBuffer,
                 credit_at_peer: ImportedBuffer | None,
                 nslots: int, slot_bytes: int, scratch: UserBuffer):
        self.remote_ring = remote_ring
        self.credit = credit            # local, exported; peer writes it
        self.credit_at_peer = credit_at_peer
        self.nslots = nslots
        self.slot_bytes = slot_bytes
        #: Staging for outgoing fragments + header (per destination, so
        #: concurrent sends to different peers never interleave on it).
        self.scratch = scratch
        self.next_seq = 1
        #: Serialises concurrent sends to the same destination (channel
        #: order must match sequence-number order).
        self.lock = None


class Communicator:
    """One rank's handle on the world."""

    def __init__(self, rank: int, size: int, ep: VMMCEndpoint,
                 nslots: int = DEFAULT_SLOTS,
                 slot_bytes: int = DEFAULT_SLOT_BYTES):
        if nslots < 1:
            raise MPError(f"ring needs at least one slot, not {nslots}")
        if slot_bytes <= _HEADER_BYTES:
            raise MPError("slot too small for the fragment header")
        self.rank = rank
        self.size = size
        self.ep = ep
        self.env: Environment = ep.env
        self.nslots = nslots
        self.slot_bytes = slot_bytes
        self.payload_per_slot = slot_bytes - _HEADER_BYTES
        self._rx: dict[int, _RxChannel] = {}
        self._tx: dict[int, _TxChannel] = {}
        self.messages_sent = 0
        self.messages_received = 0
        self.fragments_sent = 0
        self.flow_control_stalls = 0

    # -- wiring -----------------------------------------------------------
    def setup_exports(self):
        """Process: export this rank's rings and credit words."""
        def run():
            for peer in range(self.size):
                if peer == self.rank:
                    continue
                ring = self.ep.alloc_buffer(self.nslots * self.slot_bytes)
                yield self.ep.export(
                    ring, f"mp.ring.{peer}->{self.rank}")
                self._rx[peer] = _RxChannel(
                    ring, self.nslots, self.slot_bytes,
                    credit_scratch=self.ep.alloc_buffer(4096))
                credit = self.ep.alloc_buffer(4096)
                yield self.ep.export(
                    credit, f"mp.credit.{self.rank}->{peer}")
                self._tx[peer] = _TxChannel(
                    remote_ring=None, credit=credit, credit_at_peer=None,
                    nslots=self.nslots, slot_bytes=self.slot_bytes,
                    scratch=self.ep.alloc_buffer(
                        self.slot_bytes + _HEADER_BYTES))

        return self.env.process(run(), name=f"mp.exports.{self.rank}")

    def connect(self, node_of_rank):
        """Process: import every peer's ring + our credit word at them.

        ``node_of_rank(rank) -> node name``.
        """
        def run():
            for peer in range(self.size):
                if peer == self.rank:
                    continue
                tx = self._tx[peer]
                tx.remote_ring = yield self.ep.import_buffer(
                    node_of_rank(peer),
                    f"mp.ring.{self.rank}->{peer}")
                # The credit word for traffic peer->me lives at the peer
                # (their tx channel for me); we write consumption into it.
                tx.credit_at_peer = yield self.ep.import_buffer(
                    node_of_rank(peer),
                    f"mp.credit.{peer}->{self.rank}")

        return self.env.process(run(), name=f"mp.connect.{self.rank}")

    # -- point-to-point ------------------------------------------------------
    def send(self, dst: int, payload: bytes | np.ndarray, tag: int = 0):
        """Process: send one tagged message to rank ``dst``."""
        data = bytes(payload) if isinstance(payload, (bytes, bytearray)) \
            else np.asarray(payload).tobytes()
        if dst == self.rank or not 0 <= dst < self.size:
            raise MPError(f"bad destination rank {dst}")
        tx = self._tx[dst]

        def run():
            if tx.lock is None:
                tx.lock = Resource(self.env, capacity=1)
            grant = tx.lock.request()
            yield grant
            try:
                total = len(data)
                offset = 0
                first = True
                while first or offset < total:
                    first = False
                    frag = data[offset:offset + self.payload_per_slot]
                    seq = tx.next_seq
                    # Flow control: wait until the ring has a free slot.
                    while seq - _read_u32(tx.credit, 0) > self.nslots:
                        self.flow_control_stalls += 1
                        watch = self.ep.watch(tx.credit, 0, 4)
                        yield self.ep.membus.cacheline_fill()
                        if seq - _read_u32(tx.credit, 0) <= self.nslots:
                            break
                        yield watch
                    slot = (seq - 1) % self.nslots
                    base = slot * self.slot_bytes
                    # Payload first, header last (seq publishes the fragment).
                    if frag:
                        tx.scratch.write(frag)
                        yield self.ep.send(
                            tx.scratch,
                            tx.remote_ring.at(base + _HEADER_BYTES),
                            len(frag))
                    header = (_u32(seq) + _u32(tag) + _u32(total)
                              + _u32(len(frag)))
                    tx.scratch.write(header, offset=self.slot_bytes)
                    yield self.ep.send(
                        tx.scratch, tx.remote_ring.at(base), _HEADER_BYTES,
                        src_offset=self.slot_bytes)
                    tx.next_seq += 1
                    self.fragments_sent += 1
                    offset += len(frag)
            finally:
                tx.lock.release(grant)
            self.messages_sent += 1

        return self.env.process(run(), name=f"mp.send.{self.rank}->{dst}")

    def recv(self, src: int, tag: int = 0):
        """Process: receive the next message with ``tag`` from ``src``;
        value is its bytes.  Messages with other tags are buffered."""
        if src == self.rank or not 0 <= src < self.size:
            raise MPError(f"bad source rank {src}")
        rx = self._rx[src]

        def run():
            if rx.lock is None:
                rx.lock = Resource(self.env, capacity=1)
            while True:
                queued = rx.pending.get(tag)
                if queued:
                    self.messages_received += 1
                    return queued.pop(0)
                # Only one receiver may pull from the wire at a time;
                # whoever held the channel may have buffered our tag, so
                # re-check before committing to the next message.
                grant = rx.lock.request()
                yield grant
                try:
                    queued = rx.pending.get(tag)
                    if queued:
                        self.messages_received += 1
                        return queued.pop(0)
                    got_tag, message = yield self.env.process(
                        self._next_message(src, rx))
                finally:
                    rx.lock.release(grant)
                if got_tag == tag:
                    self.messages_received += 1
                    return message
                rx.pending.setdefault(got_tag, []).append(message)

        return self.env.process(run(), name=f"mp.recv.{src}->{self.rank}")

    def _next_message(self, src: int, rx: _RxChannel):
        """Process: pull the next whole message off the wire (reassembling
        fragments) and acknowledge consumption."""
        chunks: list[bytes] = []
        total = None
        got = 0
        first = True
        while first or got < total:
            first = False
            seq = rx.next_seq
            base = ((seq - 1) % rx.nslots) * rx.slot_bytes
            while True:
                watch = self.ep.watch(rx.ring, base, 4)
                yield self.ep.membus.cacheline_fill()
                if _read_u32(rx.ring, base) == seq:
                    break
                yield watch
            msg_tag = _read_u32(rx.ring, base + 4)
            total = _read_u32(rx.ring, base + 8)
            frag_len = _read_u32(rx.ring, base + 12)
            if frag_len:
                chunks.append(
                    rx.ring.read(base + _HEADER_BYTES, frag_len).tobytes())
            got += frag_len
            rx.next_seq += 1
            # Return credit: write the consumed sequence number straight
            # into the sender's exported credit word.
            rx.credit_scratch.write(_u32(seq))
            yield self.ep.send(
                rx.credit_scratch, self._tx[src].credit_at_peer.at(0), 4)
        return msg_tag, b"".join(chunks)

    # -- numpy conveniences --------------------------------------------------------
    def send_array(self, dst: int, array: np.ndarray, tag: int = 0):
        return self.send(dst, array.tobytes(), tag)

    def recv_array(self, src: int, dtype, tag: int = 0):
        def run():
            raw = yield self.recv(src, tag)
            return np.frombuffer(raw, dtype=dtype).copy()

        return self.env.process(run(), name="mp.recv_array")


def build_world(cluster, nslots: int = DEFAULT_SLOTS,
                slot_bytes: int = DEFAULT_SLOT_BYTES) -> list[Communicator]:
    """Create one rank per cluster node, fully wired; runs the cluster's
    environment until setup completes."""
    comms = []
    for index, node in enumerate(cluster.nodes):
        _, ep = node.attach_process(f"mp.rank{index}")
        comms.append(Communicator(index, len(cluster.nodes), ep,
                                  nslots=nslots, slot_bytes=slot_bytes))

    def wire():
        for comm in comms:
            yield comm.setup_exports()
        for comm in comms:
            yield comm.connect(lambda rank: f"node{rank}")

    cluster.env.run(until=cluster.env.process(wire(), name="mp.build_world"))
    return comms
