"""Determinism guarantees and remaining edge paths."""

import pytest

from repro import Cluster, TestbedConfig
from repro.bench import VmmcPair
from repro.bench.microbench import (
    vmmc_oneway_bandwidth,
    vmmc_pingpong_latency,
)
from repro.mem import UserBuffer
from repro.sim import AllOf, Environment, SimulationError


# ---------------------------------------------------------------- determinism
def test_simulation_is_exactly_reproducible():
    """Two identical runs give bit-identical timings — integer time plus
    FIFO tie-breaking leaves no room for jitter."""
    def one_run():
        pair = VmmcPair(TestbedConfig(nnodes=2, memory_mb=8),
                        buffer_bytes=32 * 1024)
        lat = vmmc_pingpong_latency(pair, 4, 6).one_way_us
        bw = vmmc_oneway_bandwidth(pair, 32 * 1024, 5).mbps
        return lat, bw, pair.env.now

    assert one_run() == one_run()


def test_boot_is_reproducible():
    c1 = Cluster.build(TestbedConfig(nnodes=3, memory_mb=8))
    c2 = Cluster.build(TestbedConfig(nnodes=3, memory_mb=8))
    assert c1.env.now == c2.env.now
    assert c1.mapping.routes == c2.mapping.routes
    assert c1.mapping.mapping_time_ns == c2.mapping.mapping_time_ns


# ------------------------------------------------------------- engine edges
def test_run_until_already_processed_event():
    env = Environment()
    ev = env.event()
    ev.succeed("v")
    env.run()
    assert env.run(until=ev) == "v"


def test_condition_with_prefailed_event():
    """A condition built over an already-failed (but unprocessed) event
    delivers the failure to its waiter instead of crashing the engine."""
    env = Environment()
    bad = env.event()
    bad.fail(RuntimeError("early"))
    # Build the condition before the failure is processed: the condition
    # becomes the observer that defuses it and forwards it to the waiter.
    condition = AllOf(env, [env.timeout(5), bad])
    caught = {}

    def waiter():
        try:
            yield condition
        except RuntimeError as exc:
            caught["exc"] = exc

    env.process(waiter())
    env.run()
    assert str(caught["exc"]) == "early"


def test_environment_initial_time():
    env = Environment(initial_time=1000)
    assert env.now == 1000
    done = {}

    def proc():
        yield env.timeout(5)
        done["t"] = env.now

    env.process(proc())
    env.run()
    assert done["t"] == 1005


# --------------------------------------------------------------- config edges
def test_config_with_override_helper():
    base = TestbedConfig(nnodes=2)
    tweaked = base.with_(memory_mb=8, topology="dual_switch")
    assert tweaked.memory_mb == 8
    assert tweaked.topology == "dual_switch"
    assert tweaked.nnodes == 2
    assert base.memory_mb == 64  # original untouched


def test_unknown_topology_rejected():
    with pytest.raises(ValueError):
        Cluster.build(TestbedConfig(nnodes=2, memory_mb=8,
                                    topology="torus"))


def test_contiguous_frames_ablation_config():
    """A long send whose source pages are physically contiguous (mapped
    like driver-preallocated memory) — the LCP still chunks at page size
    (the design assumes the general case, as the paper argues in §5.2)."""
    cluster = Cluster.build(TestbedConfig(nnodes=2, memory_mb=8))
    env = cluster.env
    process, sender = cluster.nodes[0].attach_process("s")
    _, receiver = cluster.nodes[1].attach_process("r")

    def app():
        inbox = receiver.alloc_buffer(32 * 1024)
        yield receiver.export(inbox, "inbox")
        imported = yield sender.import_buffer("node1", "inbox")
        space = process.space
        src = UserBuffer(space, space.mmap(32 * 1024,
                                           contiguous_physical=True),
                         32 * 1024)
        assert len(space.physical_extents(src.vaddr, src.nbytes)) == 1
        yield sender.send(src, imported, 32 * 1024)

    env.run(until=env.process(app()))
    assert cluster.nodes[0].lcp.chunks_sent == 8  # still page-size units


# --------------------------------------------------------------- daemon edges
def test_attach_before_boot_rejected():
    from repro.sim import Environment as Env
    from repro.cluster.cluster import Cluster as RawCluster

    cluster = RawCluster(Env(), TestbedConfig(nnodes=2, memory_mb=8))
    with pytest.raises(RuntimeError):
        cluster.nodes[0].attach_process("early")


def test_double_boot_rejected():
    cluster = Cluster.build(TestbedConfig(nnodes=2, memory_mb=8))
    with pytest.raises(RuntimeError):
        cluster.nodes[0].boot({})
