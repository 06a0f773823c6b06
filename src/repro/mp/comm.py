"""Point-to-point messaging over :mod:`repro.vmmc.reliable` channels.

Every ordered pair of ranks ``src → dst`` shares one reliable channel
(:func:`~repro.vmmc.reliable.open_mesh`), so fragments and their
acknowledgements are plain VMMC remote writes that survive loss and a
daemon cold restart.  A message is cut into fragments of at most one ring
slot; each fragment is one :meth:`ReliableSender.send` of::

    [0:4)  u32 tag
    [4:8)  u32 total message length
    [8:..) fragment bytes

All fragments of a message are posted in one call, and the channel
numbers its sends in call order, so a message's fragments arrive
contiguous and in order with no send-side lock.  One pump per incoming
channel reassembles them and files each whole message in a
:class:`~repro.sim.Store` keyed by ``(src, tag)``; ``recv`` is a ``get``
on that store.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.sim import AllOf, Environment, Store
from repro.vmmc.api import VMMCEndpoint
from repro.vmmc.reliable import HEADER_BYTES, open_mesh

#: Fragment slots per channel and bytes per slot (reliable header included).
DEFAULT_SLOTS = 8
DEFAULT_SLOT_BYTES = 16 * 1024
#: Fragment header: u32 tag, message total.
_FRAGMENT = struct.Struct("<II")


class MPError(RuntimeError):
    """Misuse of the messaging layer (bad rank, oversized buffer...)."""


class Communicator:
    """One rank's handle on the world."""

    def __init__(self, rank: int, size: int, ep: VMMCEndpoint):
        self.rank = rank
        self.size = size
        self.ep = ep
        self.env: Environment = ep.env
        #: Reliable channel ends by peer rank (wired by :func:`build_world`).
        self._tx = {}
        self._rx = {}
        self._inbox: dict[tuple[int, int], Store] = {}
        self.messages_sent = 0
        self.messages_received = 0
        self.fragments_sent = 0

    def start(self) -> None:
        """Start one pump process per incoming channel."""
        for src, receiver in sorted(self._rx.items()):
            self.env.process(self._pump(src, receiver),
                             name=f"mp.pump.{src}->{self.rank}")

    def _inbox_of(self, src: int, tag: int) -> Store:
        inbox = self._inbox.get((src, tag))
        if inbox is None:
            inbox = self._inbox[src, tag] = Store(self.env)
        return inbox

    def _pump(self, src: int, receiver):
        chunks: list[bytes] = []
        got = 0
        while True:
            raw = yield receiver.recv()
            tag, total = _FRAGMENT.unpack_from(raw)
            chunks.append(raw[_FRAGMENT.size:])
            got += len(raw) - _FRAGMENT.size
            if got >= total:
                self.messages_received += 1
                self._inbox_of(src, tag).put(b"".join(chunks))
                chunks, got = [], 0

    # -- point-to-point ------------------------------------------------------
    def send(self, dst: int, payload: bytes | np.ndarray, tag: int = 0):
        """Event: send one tagged message to rank ``dst``.  It fires once
        every fragment is acknowledged, or fails with the first fragment
        failure (e.g. :class:`~repro.vmmc.errors.RetriesExhausted`); the
        later fragments' outcomes are observed, so none escapes."""
        data = bytes(payload) if isinstance(payload, (bytes, bytearray)) \
            else np.asarray(payload).tobytes()
        if dst == self.rank or not 0 <= dst < self.size:
            raise MPError(f"bad destination rank {dst}")
        tx = self._tx[dst]
        step = tx.payload_per_slot - _FRAGMENT.size
        header = _FRAGMENT.pack(tag, len(data))
        fragments = [tx.send(header + data[offset:offset + step])
                     for offset in range(0, max(len(data), 1), step)]
        self.messages_sent += 1
        self.fragments_sent += len(fragments)
        return AllOf(self.env, fragments)

    def recv(self, src: int, tag: int = 0):
        """Event: value is the bytes of the next message with ``tag`` from
        ``src``.  Messages with other tags wait in their own inboxes."""
        if src == self.rank or not 0 <= src < self.size:
            raise MPError(f"bad source rank {src}")
        return self._inbox_of(src, tag).get()

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
    """Create one rank per cluster node, joined by one reliable channel
    per ordered pair; runs the cluster's environment until wired."""
    if slot_bytes <= HEADER_BYTES + _FRAGMENT.size:
        raise MPError("slot too small for the fragment header")
    comms = []
    for rank, node in enumerate(cluster.nodes):
        _, ep = node.attach_process(f"mp.rank{rank}")
        comms.append(Communicator(rank, len(cluster.nodes), ep))

    def wire():
        channels = yield from open_mesh(
            [comm.ep for comm in comms], "mp",
            nslots=nslots, slot_bytes=slot_bytes)
        for (src, dst), (sender, receiver) in channels.items():
            comms[src]._tx[dst] = sender
            comms[dst]._rx[src] = receiver
        for comm in comms:
            comm.start()

    cluster.env.run(until=cluster.env.process(wire(), name="mp.build_world"))
    return comms
