"""Commodity Ethernet model: the daemons' control channel and the SunRPC
baseline transport.

The testbed PCs "are also connected by an Ethernet" (section 5.1); VMMC
daemons match export/import requests over it, and the stock SunRPC that
vRPC is compared against runs UDP over it.  We model a shared 100 Mb/s
segment with kernel protocol-stack costs on both ends — the three-orders-
of-magnitude gap between this path and VMMC is the paper's motivation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.sim import Environment, Resource, Store
from repro.sim.trace import emit
from repro.obs.metrics import count


@dataclass(frozen=True)
class EthernetParams:
    """Shared-segment Ethernet + in-kernel UDP/IP stack costs."""

    #: 100 Mb/s = 12.5 MB/s → 80 ns per byte.
    ns_per_byte: int = 80
    #: Fixed per-frame wire overhead (preamble, header, IFG).
    frame_overhead_bytes: int = 42
    #: Sender kernel stack traversal (socket, UDP/IP, driver, per packet).
    tx_stack_ns: int = 120_000
    #: Receiver kernel stack traversal + wakeup of the blocked process.
    rx_stack_ns: int = 150_000
    #: Maximum UDP payload per frame before fragmentation.
    mtu: int = 1500

    def wire_time_ns(self, nbytes: int) -> int:
        nframes = max(1, (nbytes + self.mtu - 1) // self.mtu)
        return (nbytes + nframes * self.frame_overhead_bytes) \
            * self.ns_per_byte


@dataclass
class Datagram:
    """One UDP datagram on the control network."""

    src: str
    dst: str
    payload: Any
    sent_at: int = 0


class EthernetNetwork:
    """A single shared segment connecting every node's control endpoint."""

    def __init__(self, env: Environment, params: EthernetParams | None = None):
        self.env = env
        self.params = params or EthernetParams()
        self._segment = Resource(env)
        self._mailboxes: dict[str, Store] = {}
        self.datagrams_carried = 0

    def register(self, endpoint: str) -> None:
        """Attach a node (or daemon) endpoint."""
        if endpoint in self._mailboxes:
            raise ValueError(f"endpoint {endpoint!r} already registered")
        self._mailboxes[endpoint] = Store(self.env)

    def send(self, src: str, dst: str, payload: Any, nbytes: int = 256):
        """Process: transmit a datagram; completes when the sender's stack
        is done (delivery happens asynchronously on the receive side)."""
        if dst not in self._mailboxes:
            raise KeyError(f"unknown ethernet endpoint {dst!r}")

        def run():
            yield self.env.timeout(self.params.tx_stack_ns)
            with self._segment.request() as req:
                yield req
                yield self.env.timeout(self.params.wire_time_ns(nbytes))
            self.datagrams_carried += 1
            count(self.env, "ether.frames")
            count(self.env, "ether.bytes", nbytes)
            emit(self.env, "ether.tx", src=src, dst=dst, nbytes=nbytes)
            self.env.process(self._deliver(src, dst, payload),
                             name="ether.deliver")

        return self.env.process(run(), name="ether.send")

    def _deliver(self, src: str, dst: str, payload: Any):
        yield self.env.timeout(self.params.rx_stack_ns)
        self._mailboxes[dst].put(
            Datagram(src=src, dst=dst, payload=payload, sent_at=self.env.now))

    def endpoints(self) -> list[str]:
        """Registered endpoint addresses (the daemons' broadcast domain)."""
        return list(self._mailboxes)

    def receive(self, endpoint: str):
        """Event: the next datagram addressed to ``endpoint``."""
        return self._mailboxes[endpoint].get()

    def pending(self, endpoint: str) -> int:
        return len(self._mailboxes[endpoint])
