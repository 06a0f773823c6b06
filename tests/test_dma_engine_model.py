"""The LANai engines and the PCI bus against the generators they replaced.

A bus transaction and a DMA-engine operation are plain calls on a
callback-driven capacity-1 ``Server``: a free server starts at the call,
a busy one hands over through a grant event at ``now``, and a hold's end
is one event whose callbacks release the bus, finish the engine and
resume the waiter, in that order.  They used to be generators holding a
``Resource`` per bus and per engine — kept below, as they were, as the
reference.  Both are driven with random PIO bursts, bare bus DMAs,
engine transfers sharing the bus, net sends, same-nanosecond arrivals
and operations run inline or handed to a process of their own, and must
agree on everything observable: when each waiter resumes and in which
order within a nanosecond, the ``pci.*``, ``hostdma.*`` and
``lanai.netsend`` records, every counter and gauge, the bytes moved and
the events spent.
"""

import hashlib

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.hw.bus import PCIBus
from repro.hw.lanai import SRAM, HostDMAEngine, NetSendEngine
from repro.hw.myrinet import MyrinetPacket, topology
from repro.hw.myrinet.packet import BaselineHeader
from repro.mem import PhysicalMemory
from repro.obs.metrics import MetricsRegistry
from repro.sim import Environment, Resource, Tracer
from repro.sim.trace import emit


class ResourceBus(PCIBus):
    """The bus as it was: an ``_arbiter`` resource and a generator per
    transaction."""

    def __init__(self, env, name):
        super().__init__(env, name=name)
        self._arbiter = Resource(env)

    def mmio_read(self, words=1):
        return self._pio(self.params.mmio_read_ns, words, "read")

    def mmio_write(self, words=1):
        return self._pio(self.params.mmio_write_ns, words, "write")

    def _pio(self, cost_ns, words, kind):
        with self._arbiter.request() as req:
            yield req
            emit(self.env, f"{self.name}.pio.{kind}", words=words)
            tally = self.pio_words[kind]
            tally[0] += words
            tally[1] += 1
            yield self.env.timeout(cost_ns * words)

    def dma(self, nbytes):
        duration = self.params.dma_time_ns(nbytes)
        self.dma_queue_depth.set(self._arbiter.queue_length)
        with self._arbiter.request() as req:
            yield req
            emit(self.env, f"{self.name}.dma", nbytes=nbytes,
                 duration=duration)
            self.dma_transactions += 1
            self.dma_bytes += nbytes
            self.dma_durations.append(duration)
            yield self.env.timeout(duration)


class ResourceHostDMA(HostDMAEngine):
    """The host-DMA engine as it was: a ``Resource`` and generators that
    run the bus transaction inline with ``yield from``."""

    def __init__(self, env, bus, host_memory, sram, name):
        super().__init__(env, bus, host_memory, sram, name=name)
        self._resource = Resource(env)

    def to_sram(self, paddr, sram_addr, nbytes):
        self.queue_depth.set(self._resource.queue_length)
        with self._resource.request() as req:
            yield req
            yield from self.bus.dma(nbytes)
            self.sram.view(sram_addr, nbytes)[:] = \
                self.host_memory.view(paddr, nbytes)
            self.bytes_to_sram += nbytes
            self.transfers_to_sram += 1
            emit(self.env, f"{self.name}.hostdma.to_sram",
                 paddr=paddr, nbytes=nbytes)

    def write_host(self, data, paddr):
        payload = np.asarray(data, dtype=np.uint8)
        nbytes = int(payload.size)
        self.queue_depth.set(self._resource.queue_length)
        with self._resource.request() as req:
            yield req
            yield from self.bus.dma(nbytes)
            self.host_memory.view(paddr, nbytes)[:] = payload
            self.host_memory.notify_write(paddr, nbytes)
            self.bytes_to_host += nbytes
            self.transfers_to_host += 1
            emit(self.env, f"{self.name}.hostdma.write_host",
                 paddr=paddr, nbytes=nbytes)

    def write_host_scatter(self, data, extents):
        payload = np.asarray(data, dtype=np.uint8)
        offset = 0
        for paddr, length in extents:
            if length == 0:
                continue
            yield from self.write_host(payload[offset:offset + length],
                                       paddr)
            offset += length


class ResourceNetSend(NetSendEngine):
    """The net-send engine as it was: a ``Resource`` and a generator."""

    def __init__(self, env, network, host_name):
        super().__init__(env, network, host_name)
        self._resource = Resource(env)

    def send(self, packet):
        with self._resource.request() as req:
            yield req
            packet.seal()
            yield self.network.inject(self.host_name, packet)
            self.packets_sent += 1
            emit(self.env, "lanai.netsend", nic=self.host_name,
                 nbytes=packet.payload_bytes)


KINDS = ("pio_write", "pio_read", "dma", "to_sram", "write_host",
         "scatter", "send")

_OPS = st.lists(st.tuples(
    st.integers(0, 2),                                  # actor
    st.one_of(st.just(0), st.integers(0, 6000)),        # gap before, ns
    st.sampled_from(KINDS),
    st.one_of(st.just(0), st.integers(0, 6000)),        # size
    st.booleans()), max_size=30)                        # own process?

MEMORY = 256 * 1024


def run_engines(reference, ops):
    """Drive one bus, one host-DMA engine and one net-send engine with
    ``ops``; return what was seen."""
    env = Environment()
    env.tracer = Tracer(keep=lambda c: c.endswith(
        (".dma", ".pio.read", ".pio.write", ".to_sram", ".write_host",
         "lanai.netsend")))
    registry = MetricsRegistry().install(env)
    net = topology.build(topology.SingleSwitchSpec(nhosts_=2), env)
    arrived = []
    net.attach_host_sink("node1", lambda pkt: arrived.append(
        (env.now, pkt.header.seq, pkt.crc_ok())))
    memory = PhysicalMemory(MEMORY)
    memory.write(0, (np.arange(MEMORY) % 253).astype(np.uint8))
    sram = SRAM()
    if reference:
        bus = ResourceBus(env, "pci0")
        host_dma = ResourceHostDMA(env, bus, memory, sram, "node0")
        net_send = ResourceNetSend(env, net, "node0")
    else:
        bus = PCIBus(env, name="pci0")
        host_dma = HostDMAEngine(env, bus, memory, sram, name="node0")
        net_send = NetSendEngine(env, net, "node0")
    log = []

    def operation(seq, kind, size):
        """The operation: the reference's generator, or the event."""
        paddr = (seq * 4099) % (MEMORY - 8192)
        if kind == "pio_write":
            return bus.mmio_write(size % 9 + 1)
        if kind == "pio_read":
            return bus.mmio_read(size % 5 + 1)
        if kind == "dma":
            return bus.dma(size)
        if kind == "to_sram":
            return host_dma.to_sram(paddr, seq * 512 % 65536,
                                    min(size, 4096))
        data = np.full(min(size, 4096), seq % 251, dtype=np.uint8)
        if kind == "write_host":
            return host_dma.write_host(data, paddr)
        if kind == "scatter":
            cut = size % (data.size + 1)
            return host_dma.write_host_scatter(
                data, [(paddr, cut), (paddr + 4096, data.size - cut)])
        packet = MyrinetPacket(net.compute_route("node0", "node1"),
                               BaselineHeader("api_msg", seq),
                               bytes(size % 1500))
        return net_send.send(packet)

    def run(seq, kind, size):
        started = operation(seq, kind, size)
        if reference:
            yield from started
        else:
            yield started
        log.append((env.now, seq, kind))

    def actor(a):
        for seq, (who, gap, kind, size, spawn) in enumerate(ops):
            if who != a:
                continue
            yield env.timeout(gap)
            if spawn:
                env.process(run(seq, kind, size))
            else:
                yield from run(seq, kind, size)

    for a in range(3):
        env.process(actor(a))
    env.run()
    records = [(r.time, r.category, tuple(sorted(r.payload.items())))
               for r in env.tracer.records]
    moved = (hashlib.sha256(memory.read(0, MEMORY).tobytes()).hexdigest(),
             hashlib.sha256(sram.read(0, 65536 + 4096).tobytes()).hexdigest())
    counters = (host_dma.bytes_to_sram, host_dma.bytes_to_host,
                net_send.packets_sent)
    return (log, records, registry.snapshot(), arrived, moved, counters,
            env.events_processed)


@settings(max_examples=200, deadline=None)
@given(ops=_OPS)
def test_engines_match_the_resource_generators_they_replaced(ops):
    new = run_engines(False, ops)
    old = run_engines(True, ops)
    assert new[0] == old[0]             # resume times and same-ns order
    assert new[1] == old[1]             # pci / hostdma / netsend records
    assert new[2] == old[2]             # counters, gauges, histograms
    assert new[3] == old[3]             # packets delivered, in order
    assert new[4:] == old[4:]           # bytes moved, counters, events


def test_the_model_sees_queues_and_same_nanosecond_waiters():
    # One fixed scenario, so a change that made the property vacuous
    # (nothing queued, no two waiters in one nanosecond) fails here.
    ops = [(2, 0, "to_sram", 422, False), (0, 0, "send", 4, False),
           (2, 0, "dma", 0, False), (1, 0, "send", 1, True),
           (1, 1100, "pio_read", 1, False), (0, 2880, "to_sram", 3706, True),
           (0, 1691, "pio_write", 422, True), (1, 2320, "scatter", 4096, True),
           (0, 316, "scatter", 0, False), (1, 0, "to_sram", 4, True)]
    log, records, snapshot, arrived, *_ = run_engines(False, ops)
    assert snapshot["bus.dma.queue_depth{bus=pci0}"]["max"] == 2
    assert snapshot["hostdma.queue_depth{nic=node0}"]["max"] == 1
    # The zero-byte bus DMA 2, queued behind host DMA 5, is granted as
    # that DMA's hold ends and ends in the same nanosecond — after DMA
    # 5's waiter, which the hold's end resumed.
    assert [(seq, kind) for t, seq, kind in log if t == log[6][0]] == [
        (5, "to_sram"), (2, "dma")]
    assert [seq for _t, seq, _ok in arrived] == [1, 3]
    assert run_engines(True, ops)[:4] == (log, records, snapshot, arrived)
