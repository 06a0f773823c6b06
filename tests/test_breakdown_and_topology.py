"""Tests: trace-based latency breakdown, multi-hop topologies, lifecycle."""

import numpy as np
import pytest

from repro import Cluster, TestbedConfig
from repro.bench.microbench import VmmcPair, vmmc_pingpong_latency
from repro.obs.breakdown import STAGE_KEYS, measure_stage_breakdown


# ------------------------------------------------------------- breakdown
def stages_us(size):
    """``measure_stage_breakdown`` as {stage key: us} plus the report."""
    report = measure_stage_breakdown(size)
    return ({key: ns / 1000.0
             for key, (_, ns) in zip(STAGE_KEYS, report.stages)}, report)


def test_breakdown_stages_sum_to_total():
    stages, report = stages_us(4)
    assert sum(stages.values()) == pytest.approx(report.total_ns / 1000.0,
                                                 abs=0.01)


def test_breakdown_matches_section_52_budget():
    stages, report = stages_us(4)
    assert report.total_ns / 1000.0 == pytest.approx(9.8, rel=0.03)
    # Post >= the paper's 0.5 us writes-only floor.
    assert stages["post"] >= 0.5
    # Receiving side includes the ~2 us host DMA.
    assert stages["lanai_recv"] >= 2.0
    # Spin observation is just a cache-line fill.
    assert stages["deliver"] < 0.5
    assert report.rows()[-1][0] == "TOTAL"


def test_breakdown_larger_short_message_grows_post_stage():
    small, _ = stages_us(4)
    big, _ = stages_us(128)
    assert big["post"] > small["post"] + 2.0  # 31 extra PIO words
    assert big["wire"] > small["wire"]        # more bytes on the wire


# ------------------------------------------------------- multi-hop topology
def test_dual_switch_cluster_boots_and_routes():
    cluster = Cluster.build(TestbedConfig(nnodes=4, memory_mb=8,
                                          topology="dual_switch"))
    # node0 (sw0) to node3 (sw1): two switch hops.
    assert len(cluster.mapping.routes["node0"][3]) == 2
    assert len(cluster.mapping.routes["node0"][1]) == 1


def test_transfer_across_two_switches():
    cluster = Cluster.build(TestbedConfig(nnodes=4, memory_mb=8,
                                          topology="dual_switch"))
    env = cluster.env
    _, sender = cluster.nodes[0].attach_process("s")
    _, receiver = cluster.nodes[3].attach_process("r")

    def app():
        inbox = receiver.alloc_buffer(16384)
        yield receiver.export(inbox, "far")
        imported = yield sender.import_buffer("node3", "far")
        src = sender.alloc_buffer(16384)
        src.write(b"across two switches")
        yield sender.send(src, imported, 19)
        yield env.timeout(500_000)
        assert inbox.read(0, 19).tobytes() == b"across two switches"

    env.run(until=env.process(app()))


def test_extra_hop_adds_switch_latency():
    """One more switch hop costs ~one switch fall-through (+route byte)."""
    from repro.bench.microbench import VmmcPair

    near = VmmcPair(TestbedConfig(nnodes=4, memory_mb=8,
                                  topology="dual_switch"),
                    buffer_bytes=16 * 1024)
    lat_near = vmmc_pingpong_latency(near, 4, 8).one_way_us

    # A pair that crosses both switches.
    cluster = Cluster.build(TestbedConfig(nnodes=4, memory_mb=8,
                                          topology="dual_switch"))
    env = cluster.env
    _, a = cluster.nodes[0].attach_process("a")
    _, b = cluster.nodes[3].attach_process("b")
    out = {}

    def app():
        inbox_b = b.alloc_buffer(16384)
        inbox_a = a.alloc_buffer(16384)
        yield b.export(inbox_b, "ib")
        yield a.export(inbox_a, "ia")
        to_b = yield a.import_buffer("node3", "ib")
        to_a = yield b.import_buffer("node0", "ia")
        src_a = a.alloc_buffer(4096)
        src_b = b.alloc_buffer(4096)
        from repro.bench.microbench import _stamp, spin_until_stamp

        t0 = env.now
        for i in range(8):
            _stamp(src_a, 4, i + 1)
            yield a.send(src_a, to_b, 4)
            yield spin_until_stamp(b, inbox_b, 4, i + 1)
            _stamp(src_b, 4, i + 1)
            yield b.send(src_b, to_a, 4)
            yield spin_until_stamp(a, inbox_a, 4, i + 1)
        out["lat"] = (env.now - t0) / 16 / 1000

    env.run(until=env.process(app()))
    extra = out["lat"] - lat_near
    # One extra hop: ~0.55 us switch + ~0.1 us link + a route byte.
    assert 0.3 < extra < 1.5


# ----------------------------------------------------------- export lifecycle
def test_unexport_revokes_reception():
    cluster = Cluster.build(TestbedConfig(nnodes=2, memory_mb=8))
    env = cluster.env
    _, sender = cluster.nodes[0].attach_process("s")
    proc_r, receiver = cluster.nodes[1].attach_process("r")

    def app():
        inbox = receiver.alloc_buffer(8192)
        handle = yield receiver.export(inbox, "temp")
        imported = yield sender.import_buffer("node1", "temp")
        src = sender.alloc_buffer(4096)
        src.write(b"before")
        yield sender.send(src, imported, 6)
        yield env.timeout(200_000)
        assert inbox.read(0, 6).tobytes() == b"before"
        # Withdraw the export: frames become unwritable, pages unpinned.
        yield receiver.unexport(handle)
        src.write(b"after!")
        yield sender.send(src, imported, 6)
        yield env.timeout(200_000)
        # The stale import no longer lands: protection violation instead.
        assert inbox.read(0, 6).tobytes() == b"before"

    env.run(until=env.process(app()))
    assert cluster.nodes[1].lcp.protection_violations == 1
    assert cluster.nodes[1].memory.pinned_frames <= 1  # completion page only


def test_reexport_same_name_after_unexport():
    cluster = Cluster.build(TestbedConfig(nnodes=2, memory_mb=8))
    env = cluster.env
    _, receiver = cluster.nodes[1].attach_process("r")

    def app():
        buf = receiver.alloc_buffer(4096)
        handle = yield receiver.export(buf, "name")
        yield receiver.unexport(handle)
        handle2 = yield receiver.export(buf, "name")   # name reusable
        assert handle2.record.buffer_id != handle.record.buffer_id

    env.run(until=env.process(app()))


# ------------------------------------------------------------------- stress
def test_many_senders_one_receiver_fan_in():
    """Three nodes stream into one receiver's distinct regions; data stays
    intact and per-sender FIFO order is preserved under contention."""
    cluster = Cluster.build(TestbedConfig(nnodes=4, memory_mb=16))
    env = cluster.env
    _, receiver = cluster.nodes[3].attach_process("sink")
    inbox = receiver.alloc_buffer(3 * 64 * 1024)
    senders = []
    for i in range(3):
        _, ep = cluster.nodes[i].attach_process(f"src{i}")
        senders.append(ep)

    def wiring():
        yield receiver.export(inbox, "sink")

    env.run(until=env.process(wiring()))

    def stream(index, ep):
        imported = yield ep.import_buffer("node3", "sink")
        src = ep.alloc_buffer(64 * 1024)
        pattern = np.full(64 * 1024, index + 1, dtype=np.uint8)
        src.write(pattern)
        for _ in range(3):
            yield ep.send(src, imported, 64 * 1024,
                          dest_offset=index * 64 * 1024)

    procs = [env.process(stream(i, ep)) for i, ep in enumerate(senders)]
    for proc in procs:
        env.run(until=proc)
    env.run(until=env.now + 10_000_000)
    for i in range(3):
        region = inbox.read(i * 64 * 1024, 64 * 1024)
        assert set(region.tolist()) == {i + 1}
    assert cluster.nodes[3].lcp.protection_violations == 0
