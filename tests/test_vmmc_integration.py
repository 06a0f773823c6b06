"""Integration tests: full VMMC stack over a booted simulated cluster."""

import numpy as np
import pytest

from repro import Cluster, TestbedConfig
from repro.bench.microbench import VmmcPair
from repro.hw.bus import PCIParams
from repro.hw.myrinet import LinkParams, MyrinetPacket
from repro.hw.myrinet.packet import ProbeHeader
from repro.sim import Environment, Tracer
from repro.vmmc.errors import ImportDenied, InvalidSendError, SendError
from repro.vmmc.mapping_lcp import MappingError, MappingPhase


def small_cluster(nnodes=2, **overrides):
    cfg = TestbedConfig(nnodes=nnodes, memory_mb=8, **overrides)
    return Cluster.build(cfg)


def drain(env, us=2000):
    env.run(until=env.now + us * 1000)


# --------------------------------------------------------------------- boot
def test_cluster_boot_runs_mapping_phase():
    cluster = small_cluster(nnodes=4)
    assert cluster.mapping.probes_sent == 12  # 4 nodes, all ordered pairs
    assert cluster.mapping.mapping_time_ns > 0
    for node in cluster.nodes:
        # Every node has a route to every other node.
        assert len(node.lcp.routes) == 3


def test_a_stray_packet_in_a_probed_inbox_fails_the_mapping_phase():
    # The stray is the first packet node1's inbox hands over, so the
    # probe node0 -> node1 sees a header that is not its own: the probe's
    # event fails, and the mapping phase waiting on it fails with it.
    cluster = Cluster(Environment(), TestbedConfig(nnodes=4, memory_mb=8))
    env = cluster.env
    nics = {node.name: node.nic for node in cluster.nodes}
    nics["node1"].net_recv.inbox.append(
        MyrinetPacket([], ProbeHeader("map_probe", 3, 1), b""))
    phase = MappingPhase(env, cluster.fabric, nics)
    with pytest.raises(MappingError, match="probe node0->node1 misrouted"):
        env.run(until=phase.run())


def test_sram_usage_reported_per_node():
    cluster = small_cluster()
    _, ep = cluster.nodes[0].attach_process("p")
    usage = cluster.sram_usage()["node0"]
    assert "incoming_page_table" in usage
    assert any(k.startswith("sendq.pid") for k in usage)
    assert any(k.startswith("tlb.pid") for k in usage)
    assert sum(usage.values()) <= 256 * 1024


# --------------------------------------------------------- export / import
def test_export_import_establishes_relation():
    cluster = small_cluster()
    env = cluster.env
    _, sender = cluster.nodes[0].attach_process("s")
    _, receiver = cluster.nodes[1].attach_process("r")

    def app():
        inbox = receiver.alloc_buffer(16384)
        yield receiver.export(inbox, "inbox")
        imported = yield sender.import_buffer("node1", "inbox")
        assert imported.nbytes == 16384
        assert imported.remote_node == "node1"

    env.run(until=env.process(app()))
    assert cluster.nodes[1].daemon.exports_served == 1
    assert cluster.nodes[0].daemon.imports_served == 1
    # Export pinned the receive buffer's pages.
    assert cluster.nodes[1].memory.pinned_frames >= 4


def test_import_nonexistent_export_denied():
    cluster = small_cluster()
    env = cluster.env
    _, sender = cluster.nodes[0].attach_process("s")
    cluster.nodes[1].attach_process("r")

    def app():
        with pytest.raises(ImportDenied):
            yield sender.import_buffer("node1", "ghost")

    env.run(until=env.process(app()))


def test_importer_restriction_enforced():
    """Exporter restricts importers; VMMC enforces at import (section 2)."""
    cluster = small_cluster(nnodes=3)
    env = cluster.env
    _, a = cluster.nodes[0].attach_process("a")
    _, b = cluster.nodes[1].attach_process("b")
    _, c = cluster.nodes[2].attach_process("c")

    def app():
        buf = a.alloc_buffer(4096)
        yield a.export(buf, "private", allowed_importers=["node1"])
        imported = yield b.import_buffer("node0", "private")   # allowed
        assert imported.nbytes == 4096
        with pytest.raises(ImportDenied):
            yield c.import_buffer("node0", "private")          # denied

    env.run(until=env.process(app()))
    assert cluster.nodes[0].daemon.imports_denied == 0  # denial counted
    assert cluster.nodes[2].daemon.imports_denied == 1


def test_duplicate_export_name_rejected():
    from repro.vmmc.errors import ExportError

    cluster = small_cluster()
    env = cluster.env
    _, a = cluster.nodes[0].attach_process("a")

    def app():
        yield a.export(a.alloc_buffer(4096), "name")
        with pytest.raises(ExportError):
            yield a.export(a.alloc_buffer(4096), "name")

    env.run(until=env.process(app()))


# ----------------------------------------------------------------- transfer
def wire_pair(cluster):
    env = cluster.env
    _, sender = cluster.nodes[0].attach_process("s")
    _, receiver = cluster.nodes[1].attach_process("r")
    state = {}

    def setup():
        inbox = receiver.alloc_buffer(256 * 1024)
        yield receiver.export(inbox, "inbox")
        state["imported"] = yield sender.import_buffer("node1", "inbox")
        state["inbox"] = inbox

    env.run(until=env.process(setup()))
    return sender, receiver, state["inbox"], state["imported"]


def test_short_send_zero_copy_delivery():
    cluster = small_cluster()
    env = cluster.env
    sender, receiver, inbox, imported = wire_pair(cluster)

    def app():
        src = sender.alloc_buffer(4096)
        src.write(b"short message")
        yield sender.send(src, imported, 13)

    env.run(until=env.process(app()))
    drain(env, 100)
    assert inbox.read(0, 13).tobytes() == b"short message"
    assert cluster.nodes[0].lcp.short_sends == 1
    # Short path never touches the sender's host DMA for data.
    assert cluster.nodes[0].nic.host_dma.bytes_to_sram == 0


def test_long_send_integrity_random_payload():
    cluster = small_cluster()
    env = cluster.env
    sender, receiver, inbox, imported = wire_pair(cluster)
    rng = np.random.default_rng(3)
    payload = rng.integers(0, 256, 100_000, dtype=np.uint8)

    def app():
        src = sender.alloc_buffer(128 * 1024)
        src.write(payload)
        yield sender.send(src, imported, 100_000)

    env.run(until=env.process(app()))
    drain(env, 3000)
    assert np.array_equal(inbox.read(0, 100_000), payload)
    assert cluster.nodes[0].lcp.long_sends == 1
    assert cluster.nodes[0].lcp.chunks_sent == 25  # ceil(100000/4096)


def test_unaligned_send_two_piece_scatter():
    """A message landing across a destination page boundary uses the
    two-address scatter of section 4.5 and still arrives intact."""
    cluster = small_cluster()
    env = cluster.env
    sender, receiver, inbox, imported = wire_pair(cluster)

    def app():
        src = sender.alloc_buffer(4096)
        src.write(bytes(range(100)))
        # Destination offset 4050: 100 bytes straddle the page boundary.
        yield sender.send(src, imported, 100, dest_offset=4050)

    env.run(until=env.process(app()))
    drain(env, 100)
    assert inbox.read(4050, 100).tobytes() == bytes(range(100))


def test_unaligned_source_chunking():
    """First chunk runs to the first *source* page boundary (section 4.5)."""
    cluster = small_cluster()
    env = cluster.env
    sender, receiver, inbox, imported = wire_pair(cluster)
    payload = np.arange(10_000, dtype=np.uint8) % 250

    def app():
        src = sender.alloc_buffer(32 * 1024)
        src.write(payload, offset=1000)   # source starts mid-page
        yield sender.send(src, imported, 10_000, src_offset=1000)

    env.run(until=env.process(app()))
    drain(env, 1000)
    assert np.array_equal(inbox.read(0, 10_000), payload)
    # 3096 + 4096 + 2808 -> 3 chunks
    assert cluster.nodes[0].lcp.chunks_sent == 3


def test_send_beyond_import_reports_error():
    """Sends that would overrun the imported buffer fail safely."""
    cluster = small_cluster()
    env = cluster.env
    _, sender = cluster.nodes[0].attach_process("s")
    _, receiver = cluster.nodes[1].attach_process("r")

    def app():
        inbox = receiver.alloc_buffer(4096)
        yield receiver.export(inbox, "tiny")
        imported = yield sender.import_buffer("node1", "tiny")
        src = sender.alloc_buffer(8192)
        with pytest.raises(InvalidSendError):
            # 8 KB into a 4 KB import.
            yield sender.send(src, imported.at(0), 8192)

    env.run(until=env.process(app()))
    # Refused at the call, before any I/O: the LCP never sees the send.
    assert cluster.nodes[0].lcp.proxy_faults == 0


def test_send_past_an_import_never_reaches_the_next_import():
    """The proxy pages after an import may map another import from the
    same node; a send that overruns the first is refused at the call
    instead of landing in the second with no proxy fault."""
    pair = VmmcPair(TestbedConfig(nnodes=2, memory_mb=32),
                    buffer_bytes=16 * 1024)
    env, ep_a, ep_b = pair.env, pair.ep_a, pair.ep_b
    other = ep_b.alloc_buffer(16 * 1024)
    other.fill(0x5A)
    env.run(until=ep_b.export(other, "other"))
    neighbour = env.run(until=ep_a.import_buffer("node1", "other"))
    assert neighbour.region.first_page == 4 == \
        pair.to_b.region.first_page + pair.to_b.region.npages
    pio = []
    bus = pair.cluster.nodes[0].nic.bus
    real_mmio_write = bus.mmio_write
    bus.mmio_write = lambda words=1: pio.append(words) or \
        real_mmio_write(words)
    posted = ep_a.sends_posted

    def app():
        for offset, nbytes in ((16 * 1024 - 4, 8), (12 * 1024, 8192)):
            with pytest.raises(InvalidSendError, match="outside the"):
                yield ep_a.send(pair.src_a, pair.to_b, nbytes,
                                dest_offset=offset)
            with pytest.raises(InvalidSendError, match="outside the"):
                yield ep_a.send(pair.src_a, pair.to_b.at(offset), nbytes)
        # A span that starts past the end, or before the start, is a
        # malformed argument too (it used to raise ProxyFault, which is
        # not a SendError).
        for offset in (16 * 1024, -4):
            with pytest.raises(InvalidSendError, match="outside the"):
                yield ep_a.send(pair.src_a, pair.to_b, 4, dest_offset=offset)

    env.run(until=env.process(app()))
    env.run()
    assert pio == [] and ep_a.sends_posted == posted
    assert pair.cluster.nodes[0].lcp.proxy_faults == 0
    assert (other.read() == 0x5A).all()


def test_bad_send_arguments_rejected():
    cluster = small_cluster()
    env = cluster.env
    sender, receiver, inbox, imported = wire_pair(cluster)

    def app():
        src = sender.alloc_buffer(4096)
        with pytest.raises(SendError):
            yield sender.send(src, imported, 0)
        with pytest.raises(SendError):
            yield sender.send(src, imported, 9 * 1024 * 1024)
        with pytest.raises(SendError):
            yield sender.send(src, imported, 4096, src_offset=1)

    env.run(until=env.process(app()))


def test_async_send_and_wait():
    cluster = small_cluster()
    env = cluster.env
    sender, receiver, inbox, imported = wire_pair(cluster)
    log = {}

    def app():
        src = sender.alloc_buffer(64 * 1024)
        t0 = env.now
        handle = yield sender.send(src, imported, 64 * 1024,
                                   synchronous=False)
        log["post_time"] = env.now - t0
        done_now = yield sender.check_send(handle)
        log["immediately_done"] = done_now
        yield sender.wait_send(handle)
        log["wait_time"] = env.now - t0

    env.run(until=env.process(app()))
    # Async post returns in microseconds; the transfer takes ~650 us.
    assert log["post_time"] < 20_000
    assert log["immediately_done"] is False
    assert log["wait_time"] > 400_000


def test_multiple_sends_fifo_order():
    cluster = small_cluster()
    env = cluster.env
    sender, receiver, inbox, imported = wire_pair(cluster)

    def app():
        src = sender.alloc_buffer(4096)
        for i in range(5):
            src.write(bytes([i + 1]) * 16)
            yield sender.send(src, imported, 16, dest_offset=i * 16)

    env.run(until=env.process(app()))
    drain(env, 500)
    for i in range(5):
        assert set(inbox.read(i * 16, 16).tolist()) == {i + 1}


def test_queue_flow_control_under_burst():
    """More outstanding sends than queue slots: the library spins on the
    completion word and everything still arrives, in order."""
    cluster = small_cluster()
    env = cluster.env
    sender, receiver, inbox, imported = wire_pair(cluster)
    n = 40  # > 32 slots

    def app():
        src = sender.alloc_buffer(4096)
        for i in range(n):
            src.write(np.uint8(i + 1).tobytes())
            yield sender.send(src, imported, 1, dest_offset=i,
                              synchronous=False)

    env.run(until=env.process(app()))
    drain(env, 2000)
    assert inbox.read(0, n).tolist() == [(i + 1) for i in range(n)]


def test_long_send_completes_after_its_slot_is_posted_again():
    """A long send frees its slot at pickup, so 32 sends posted behind it
    wrap the queue onto that slot while it is still in flight.  Its
    completion travels with the request, not the slot: the long send
    still returns, and so does every send that reused the ring."""
    cluster = small_cluster()
    env = cluster.env
    sender, receiver, inbox, imported = wire_pair(cluster)
    size = 192 * 1024       # ~2 ms on the wire; the 32 posts take less
    src = sender.alloc_buffer(size)
    src.fill(0x3C)
    log = {}

    def long_send():
        yield sender.send(src, imported, size)
        log["long_done"] = env.now

    def app():
        long = env.process(long_send())
        yield env.timeout(20_000)       # picked up, far from finished
        handles = []
        for i in range(32):
            handles.append((yield sender.send(
                src, imported, 4, dest_offset=size + 4 * i,
                synchronous=False)))
        log["reused_at"] = env.now
        yield long
        for handle in handles:
            yield sender.wait_send(handle)

    env.run(until=env.process(app()))
    assert log["reused_at"] < log["long_done"]
    assert set(inbox.read(0, size).tolist()) == {0x3C}


def test_receiver_cpu_not_involved_in_data_transfer():
    """VMMC's core claim: no receive operation, no receiver interrupts for
    data-only messages."""
    cluster = small_cluster()
    env = cluster.env
    sender, receiver, inbox, imported = wire_pair(cluster)

    def app():
        src = sender.alloc_buffer(64 * 1024)
        yield sender.send(src, imported, 64 * 1024)

    env.run(until=env.process(app()))
    drain(env, 2000)
    assert cluster.nodes[1].kernel.interrupts_serviced == 0
    assert cluster.nodes[1].kernel.signals_delivered == 0


def test_third_process_cannot_use_others_imports():
    """Protection: outgoing page tables are per-process; a second process
    on the same node has no entries and its sends fault (section 4.4)."""
    cluster = small_cluster()
    env = cluster.env
    sender, receiver, inbox, imported = wire_pair(cluster)
    _, intruder = cluster.nodes[0].attach_process("intruder")

    def app():
        src = intruder.alloc_buffer(4096)
        with pytest.raises(SendError):
            # Same proxy address value, different process: no mapping.
            yield intruder.send(src, imported.at(0), 256)

    env.run(until=env.process(app()))
    assert cluster.nodes[0].lcp.proxy_faults == 1


def test_long_send_reuses_a_staging_buffer_only_after_its_tail_left():
    # Slow the sender's cable to a quarter of 160 MB/s, so a page's wire
    # time outlasts its host DMA.  Chunk k+2 reuses chunk k's staging
    # buffer: its host DMA may start only once chunk k's tail has left
    # the NIC.
    pair = VmmcPair(TestbedConfig(nnodes=2, memory_mb=32),
                    buffer_bytes=8 * 4096)
    env = pair.env
    link = pair.cluster.fabric.find_link("node0->sw0")
    link.params = LinkParams(ns_per_kb=4 * LinkParams().ns_per_kb)
    dma_ns = PCIParams().dma_time_ns(4096)
    assert link.params.wire_time_ns(4096) > dma_ns
    payload = np.random.default_rng(7).integers(
        0, 256, 8 * 4096, dtype=np.uint8)
    pair.src_a.write(payload)
    env.tracer = Tracer(keep=lambda c: c in ("node0.hostdma.to_sram",
                                             "lanai.netsend"))
    env.run(until=pair.ep_a.send(pair.src_a, pair.to_b, 8 * 4096))
    env.run()
    fetched = [r.time - dma_ns for r in env.tracer.records
               if r.category == "node0.hostdma.to_sram"]
    sent = [r.time for r in env.tracer.records
            if r.category == "lanai.netsend" and r.payload["nic"] == "node0"]
    assert len(fetched) == len(sent) == 8
    waits = [fetched[k + 2] - sent[k] for k in range(6)]
    assert min(waits) >= 0
    assert 0 in waits                   # the buffer, not the LCP, gated it
    assert np.array_equal(pair.inbox_b.read(0, 8 * 4096), payload)
