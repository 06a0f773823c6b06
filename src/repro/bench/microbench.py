"""The section-5.3 microbenchmarks as reusable measurement drivers.

The paper's methodology, reproduced exactly:

* translations are pre-warmed in the software TLB ("we make sure that it
  is present in the LANai software TLB" — section 5.3);
* a **synchronous** send returns when the send buffer is reusable;
* traffic patterns: one-way, bidirectional, alternating (ping-pong);
* receivers detect delivery by spinning on the last word of the message
  (the sender stamps a sequence number there), since VMMC has no receive
  operation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim import Environment
from repro.mem.buffers import UserBuffer
from repro.cluster import Cluster, TestbedConfig
from repro.vmmc.api import VMMCEndpoint, ImportedBuffer


@dataclass(frozen=True)
class LatencyPoint:
    size: int
    one_way_us: float


@dataclass(frozen=True)
class BandwidthPoint:
    size: int
    mbps: float


@dataclass(frozen=True)
class OverheadPoint:
    size: int
    overhead_us: float
    synchronous: bool


def _stamp(buffer: UserBuffer, size: int, seq: int) -> None:
    """Write the sequence number into the message's last word, a
    little-endian u32 (its low ``size`` bytes in a shorter message)."""
    word = seq.to_bytes(4, "little")
    if size >= 4:
        buffer.write(word, offset=size - 4)
    else:
        buffer.write(word[:size], offset=0)


def spin_until_stamp(ep: VMMCEndpoint, buffer: UserBuffer, size: int,
                     expected: int):
    """Event: spin (:meth:`VMMCEndpoint.spin`) until the message's
    sequence stamp equals ``expected``."""
    offset, span = max(0, size - 4), min(4, size)
    return ep.spin(buffer, offset, span, lambda: int.from_bytes(
        buffer.read(offset, span), "little") == expected)


class VmmcPair:
    """A booted cluster with two processes wired for mutual communication.

    Each side exports an ``inbox`` and imports the peer's; this is the
    fixture every microbenchmark runs on.
    """

    def __init__(self, config: TestbedConfig | None = None,
                 buffer_bytes: int = 1024 * 1024,
                 warm_tlb: bool = True):
        self.cluster = Cluster.build(config or TestbedConfig())
        self.env: Environment = self.cluster.env
        self.buffer_bytes = buffer_bytes
        _, self.ep_a = self.cluster.nodes[0].attach_process("bench_a")
        _, self.ep_b = self.cluster.nodes[1].attach_process("bench_b")
        self.inbox_a = self.ep_a.alloc_buffer(buffer_bytes)
        self.inbox_b = self.ep_b.alloc_buffer(buffer_bytes)
        self.src_a = self.ep_a.alloc_buffer(buffer_bytes)
        self.src_b = self.ep_b.alloc_buffer(buffer_bytes)
        self.to_b: ImportedBuffer | None = None
        self.to_a: ImportedBuffer | None = None
        self._setup(warm_tlb)

    def _setup(self, warm_tlb: bool) -> None:
        env = self.env

        def wiring():
            yield self.ep_a.export(self.inbox_a, "inbox_a")
            yield self.ep_b.export(self.inbox_b, "inbox_b")
            self.to_b = yield self.ep_a.import_buffer("node1", "inbox_b")
            self.to_a = yield self.ep_b.import_buffer("node0", "inbox_a")
            if warm_tlb:
                # One full-size send each way faults every source page in,
                # mirroring the paper's warm-TLB methodology (section 5.3).
                yield self.ep_a.send(self.src_a, self.to_b,
                                     self.buffer_bytes)
                yield self.ep_b.send(self.src_b, self.to_a,
                                     self.buffer_bytes)
                yield env.timeout(5_000_000)  # drain deliveries

        env.run(until=env.process(wiring()))

    # -- measurement helpers -------------------------------------------------
    def run(self, generator) -> object:
        return self.env.run(until=self.env.process(generator))


def vmmc_pingpong_latency(pair: VmmcPair, size: int,
                          iterations: int = 20) -> LatencyPoint:
    """One-way latency via the traditional ping-pong (Figure 2)."""
    env = pair.env
    result = {}

    def side_a():
        start = env.now
        for i in range(iterations):
            _stamp(pair.src_a, size, i + 1)
            yield pair.ep_a.send(pair.src_a, pair.to_b, size)
            yield spin_until_stamp(pair.ep_a, pair.inbox_a, size, i + 1)
        result["elapsed"] = env.now - start

    def side_b():
        for i in range(iterations):
            yield spin_until_stamp(pair.ep_b, pair.inbox_b, size, i + 1)
            _stamp(pair.src_b, size, i + 1)
            yield pair.ep_b.send(pair.src_b, pair.to_a, size)

    done_a = env.process(side_a())
    env.process(side_b())
    env.run(until=done_a)
    one_way_ns = result["elapsed"] / (2 * iterations)
    return LatencyPoint(size=size, one_way_us=one_way_ns / 1000.0)


def vmmc_oneway_bandwidth(pair: VmmcPair, size: int,
                          iterations: int = 16) -> BandwidthPoint:
    """Streaming bandwidth, one sender, idle receiver (Figure 3).

    Synchronous sends back-to-back: a sync send's completion means the
    send buffer is reusable, so restamping it for the next message is
    legal (reusing it under a pending *asynchronous* send would be a
    zero-copy API violation).  The receiver times from its observation of
    the first message to the last, so sender startup is excluded.
    """
    env = pair.env
    result = {}

    def sender():
        for i in range(iterations):
            _stamp(pair.src_a, size, i + 1)
            yield pair.ep_a.send(pair.src_a, pair.to_b, size)

    def receiver():
        yield spin_until_stamp(pair.ep_b, pair.inbox_b, size, 1)
        start = env.now
        yield spin_until_stamp(pair.ep_b, pair.inbox_b, size, iterations)
        result["elapsed"] = env.now - start

    env.process(sender())
    done = env.process(receiver())
    env.run(until=done)
    total = size * (iterations - 1)
    return BandwidthPoint(size=size,
                          mbps=total / result["elapsed"] * 1000.0)


def vmmc_bidirectional_bandwidth(pair: VmmcPair, size: int,
                                 iterations: int = 12) -> BandwidthPoint:
    """Simultaneous bidirectional traffic; reports **total** bandwidth of
    both senders (Figure 3, section 5.3: both sides send, wait for the
    peer's message, then iterate)."""
    env = pair.env
    finish = {}

    def side(ep, src, dest, inbox, tag):
        start = env.now
        for i in range(iterations):
            _stamp(src, size, i + 1)
            send = ep.send(src, dest, size)  # sync: buffer reusable after
            recv = spin_until_stamp(ep, inbox, size, i + 1)
            yield send
            yield recv
        finish[tag] = env.now - start

    a = env.process(side(pair.ep_a, pair.src_a, pair.to_b,
                         pair.inbox_a, "a"))
    b = env.process(side(pair.ep_b, pair.src_b, pair.to_a,
                         pair.inbox_b, "b"))
    env.run(until=a & b)
    elapsed = max(finish.values())
    total = 2 * size * iterations
    return BandwidthPoint(size=size, mbps=total / elapsed * 1000.0)


def vmmc_send_overhead(pair: VmmcPair, size: int, synchronous: bool,
                       iterations: int = 10) -> OverheadPoint:
    """Host CPU cost of the send call itself, one-way traffic (Figure 4)."""
    env = pair.env
    samples = []

    def sender():
        for i in range(iterations):
            _stamp(pair.src_a, size, i + 1)
            t0 = env.now
            yield pair.ep_a.send(pair.src_a, pair.to_b, size,
                                 synchronous=synchronous)
            samples.append(env.now - t0)
            # Quiesce between calls so queue/DMA backlog never bleeds into
            # the next sample (one-way, unloaded, as in the paper).
            yield env.timeout(size * 20 + 200_000)

    done = env.process(sender())
    env.run(until=done)
    mean_ns = sum(samples) / len(samples)
    return OverheadPoint(size=size, overhead_us=mean_ns / 1000.0,
                         synchronous=synchronous)
