"""Acceptance tests for fabric scale-out (ISSUE: multi-switch fabrics).

A 64-node fat-tree and an 8x8 mesh boot through the ordinary
``Cluster.build(topology=...)`` path — daemons, mapping LCP, vRPC all
run unchanged on the generated fabrics.  The boot itself is already a
proof (the mapping phase audits deadlock-freedom and verifies all-pairs
probe delivery); on top of it these tests drive an all-pairs vRPC
exchange and one fat-tree chaos scenario (a core-switch port failed
mid-stream under the reliable layer).
"""

import pytest

from repro.cluster import Cluster, TestbedConfig
from repro.faults import (
    SWITCH_PORT_DOWN,
    FaultCampaign,
    FaultEvent,
    FaultInjector,
)
from repro.hw.myrinet import topology
from repro.rpc import RPCProgram, VRPCClient, VRPCServer
from repro.vmmc.reliable import HEADER_BYTES, open_channel


def fabric_cluster(spec_text):
    return Cluster.build(TestbedConfig(memory_mb=8), topology=spec_text)


def all_pairs_vrpc(cluster, region_bytes=8192):
    """Every node calls a null vRPC procedure on every other node.

    Rounds pair src i with dst (i+r) % n, so each round opens n
    channels concurrently with one server accept per node — the same
    round-parallel shape the mapping LCP uses.  Returns the number of
    successful calls (``VRPCClient.call`` raises on any failure).
    """
    env = cluster.env
    n = len(cluster.nodes)
    prog = RPCProgram(0x30000001, 1)
    prog.register(0, lambda dec: b"ok")
    servers, client_eps = {}, {}
    for node in cluster.nodes:
        _, sep = node.attach_process(f"srv.{node.name}")
        servers[node.name] = VRPCServer(sep, node.name, prog,
                                        region_bytes=region_bytes)
        _, cep = node.attach_process(f"cli.{node.name}")
        client_eps[node.name] = cep
    calls = {"n": 0}

    def one(src, dst, tag):
        chan = yield servers[dst].accept(client_eps[src], src, tag)
        client = VRPCClient(chan, prog.number, prog.version)
        yield client.call(0)
        calls["n"] += 1

    def drive():
        names = [node.name for node in cluster.nodes]
        for r in range(1, n):
            procs = [env.process(one(names[i], names[(i + r) % n],
                                     f"r{r}.{i}"))
                     for i in range(n)]
            for proc in procs:
                yield proc

    env.run(until=env.process(drive()))
    return calls["n"]


# ----------------------------------------------------- boot + exchange
def test_64_node_fattree_boots_and_passes_all_pairs_vrpc():
    cluster = fabric_cluster("fattree:8,h=2")
    assert len(cluster.nodes) == 64
    assert len(cluster.fabric.switches) == 80
    # The boot already verified all-pairs probe delivery and proved the
    # routing function deadlock-free; the report rides on the result.
    report = cluster.mapping.deadlock
    assert report is not None
    assert report.routes == 64 * 63
    assert cluster.mapping.probes_sent == 64 * 63
    n = all_pairs_vrpc(cluster)
    assert n == 64 * 63


def test_8x8_mesh_boots_and_passes_all_pairs_vrpc():
    cluster = fabric_cluster("mesh:8x8")
    assert len(cluster.nodes) == 64
    assert len(cluster.fabric.switches) == 64
    report = cluster.mapping.deadlock
    assert report is not None
    assert report.routes == 64 * 63
    n = all_pairs_vrpc(cluster)
    assert n == 64 * 63


def test_cluster_build_normalizes_nnodes_to_topology():
    # The topology is authoritative for the host count; a mismatched
    # nnodes in the config is normalized, not an error.
    cluster = Cluster.build(TestbedConfig(nnodes=2, memory_mb=8),
                            topology="fattree:4")
    assert cluster.config.nnodes == 16
    assert [node.name for node in cluster.nodes] == \
        [f"node{i}" for i in range(16)]
    assert isinstance(cluster.topology, topology.FatTreeSpec)


def test_topology_spec_via_config_field():
    spec = topology.MeshSpec(cols=3, rows=3)
    cluster = Cluster.build(TestbedConfig(memory_mb=8, topology=spec))
    assert cluster.topology is spec
    assert len(cluster.nodes) == 9
    assert cluster.mapping.deadlock is not None


# ----------------------------------------------------- fat-tree chaos
def test_fattree_core_port_failure_reliable_stream_survives():
    """Chaos on a generated fabric: fail the core-switch port an
    inter-pod route uses, mid-stream, under the reliable layer — every
    payload must arrive exactly once, through retransmission."""
    cluster = fabric_cluster("fattree:4")
    env = cluster.env
    src, dst = "node0", "node15"              # pod 0 -> pod 3
    route = cluster.fabric.compute_route(src, dst)
    assert len(route) == 5                    # up, up, core, down, down
    _, channels = topology.walk_route(cluster.fabric, src, route)
    # Route byte 2 is consumed at the core switch (end of channel 2).
    core = channels[2].split("->")[1]
    assert ":core[" in core
    target = f"{core}:p{route[2]}"            # generated-name + p-prefix

    _, ep_tx = cluster.nodes[0].attach_process("chaos_tx")
    _, ep_rx = cluster.nodes[15].attach_process("chaos_rx")
    tx, rx = env.run(until=open_channel(
        ep_tx, ep_rx, "chaos", nslots=4, slot_bytes=HEADER_BYTES + 256))

    campaign = FaultCampaign.of("core_port", [
        FaultEvent(at_ns=50_000, kind=SWITCH_PORT_DOWN,
                   target=target, duration_ns=400_000),
    ])
    injector = FaultInjector(cluster)
    done = injector.run(campaign)

    messages = 24
    payloads = [bytes((i * 13 + j) % 256 for j in range(200))
                for i in range(messages)]
    got = []

    def receiver():
        for _ in range(messages):
            got.append((yield rx.recv()))
        rx.recv()                             # stay posted for re-ACKs

    def sender():
        for payload in payloads:
            yield tx.send(payload)

    rx_proc = env.process(receiver())
    env.process(sender())
    env.run(until=rx_proc)
    stats = env.run(until=done)

    assert got == payloads                    # exactly once, in order
    sw = cluster.fabric.switches[core]
    assert sw.port_down_drops >= 1            # the fault really bit
    assert stats.faults_raised == 1
    assert stats.faults_cleared == 1
    assert stats.fault_ns_by_target[target] == 400_000
    assert tx.stats.retransmits >= 1


def test_injector_resolves_generated_switch_targets():
    cluster = fabric_cluster("mesh:3x3")
    injector = FaultInjector(cluster)
    sw, port = injector._switch_port("mesh0:sw[1][2]:p3")
    assert sw.name == "mesh0:sw[1][2]"
    assert port == 3
    sw, port = injector._switch_port("mesh0:sw[0][0]:0")
    assert port == 0
    with pytest.raises(KeyError, match="no switch"):
        injector._switch_port("mesh0:sw[9][9]:p0")
    with pytest.raises(ValueError, match="bad switch_port_down"):
        injector._switch_port("mesh0:sw[1][2]:px")
