"""How many trace records each category gets on the packet paths.

Every trace point in the per-packet and per-request modules sits behind
``if env.tracer is not None`` (docs/TRACING.md, "Trace points in hot
modules"), so an untraced run never builds a record's category or
payload.  A guard written around the wrong statement, or one that drops
or renames its trace point, changes what a traced run records.  These
counts catch that on the fabric (boot and pair traffic on a fat-tree)
and on a VMMC send and a reliable send: the per-category counts were
recorded before the guards went in.  ``breakdown``'s trace digest covers
only one 4-byte send.

Each pin is a digest of the sorted ``(category, count)`` pairs, with
the counts per canonical category (instance names stripped) beside it
so that a failure says which trace point moved.
"""

import hashlib
from collections import Counter

import numpy as np

from repro.cluster import Cluster, TestbedConfig
from repro.hostos.process import fresh_pid_namespace
from repro.obs.contract import canonical_category
from repro.sim import Environment
from repro.sim.trace import Tracer
from repro.vmmc.reliable import open_channel


def _traced(config: TestbedConfig, topology=None) -> Cluster:
    return Cluster.build(config, env=Environment(tracer=Tracer()),
                         topology=topology)


def fabric_categories() -> Counter:
    """A traced ``fattree:4,h=2`` boot (16 hosts, 240 probes), then ten
    messages, each to the host seven along, alternately one short and
    one two-packet long send."""
    cluster = _traced(TestbedConfig(memory_mb=16), "fattree:4,h=2")
    env, nodes = cluster.env, cluster.nodes

    def traffic():
        for i in range(10):
            dst = (i + 7) % len(nodes)
            size = 64 if i % 2 else 6000
            _, ep_rx = nodes[dst].attach_process(f"rx{i}")
            _, ep_tx = nodes[i].attach_process(f"tx{i}")
            inbox = ep_rx.alloc_buffer(8192)
            yield ep_rx.export(inbox, f"in{i}")
            to_rx = yield ep_tx.import_buffer(f"node{dst}", f"in{i}")
            src = ep_tx.alloc_buffer(8192)
            src.write(np.full(size, i, dtype=np.uint8))
            yield ep_tx.send(src, to_rx.at(0), size)

    env.run(until=env.process(traffic()))
    env.run()
    return Counter(env.tracer.categories())


def send_categories() -> Counter:
    """A traced 4-node testbed: one 4 KB VMMC send node0 → node2, then
    one 1 KB reliable send node1 → node3, channel set-up included."""
    cluster = _traced(TestbedConfig(nnodes=4, memory_mb=16))
    env, nodes = cluster.env, cluster.nodes
    _, ep_a = nodes[0].attach_process("a")
    _, ep_b = nodes[2].attach_process("b")
    _, ep_tx = nodes[1].attach_process("tx")
    _, ep_rx = nodes[3].attach_process("rx")

    def traffic():
        inbox = ep_b.alloc_buffer(4096)
        yield ep_b.export(inbox, "inbox")
        to_b = yield ep_a.import_buffer("node2", "inbox")
        src = ep_a.alloc_buffer(4096)
        src.write(np.arange(4096, dtype=np.uint32).astype(np.uint8))
        yield ep_a.send(src, to_b.at(0), 4096)
        tx, rx = yield open_channel(ep_tx, ep_rx, "coverage")
        receiving = rx.recv()
        yield tx.send(b"r" * 1024)
        yield receiving

    env.run(until=env.process(traffic()))
    env.run()
    return Counter(env.tracer.categories())


def digest(counts: Counter) -> str:
    text = "\n".join(f"{category} {n}"
                     for category, n in sorted(counts.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def canonical(counts: Counter) -> dict[str, int]:
    merged: Counter = Counter()
    for category, n in counts.items():
        merged[canonical_category(category)] += n
    return dict(sorted(merged.items()))


FABRIC_CANONICAL = {
    "daemon.export": 10,
    "daemon.import": 10,
    "ether.tx": 20,
    "hostdma.to_sram": 10,
    "hostdma.write_host": 25,
    "kernel.irq.enter": 5,
    "kernel.irq.exit": 5,
    "lanai.netrecv": 255,
    "lanai.netsend": 255,
    "lcp.send.pickup": 10,
    "link.tx": 1402,
    "mapping.done": 1,
    "nic.interrupt": 5,
    "pci.dma": 35,
    "pci.pio.write": 35,
    "switch.forward": 1147,
    "vmmc.send.posted": 10,
    "vmmc_drv.tlb_refill": 5,
}
FABRIC_DIGEST = (
    "b60566fbe564711e0efb631694fb8cd1a7ab01ea440afdbca930feed9143c9c9")
SEND_CANONICAL = {
    "daemon.export": 3,
    "daemon.import": 3,
    "ether.tx": 6,
    "hostdma.to_sram": 2,
    "hostdma.write_host": 6,
    "kernel.irq.enter": 2,
    "kernel.irq.exit": 2,
    "lanai.netrecv": 15,
    "lanai.netsend": 15,
    "lcp.send.pickup": 3,
    "link.tx": 30,
    "mapping.done": 1,
    "nic.interrupt": 2,
    "pci.dma": 8,
    "pci.pio.write": 11,
    "rel.ack": 1,
    "rel.cwnd": 1,
    "rel.delivered": 1,
    "rel.recv": 1,
    "rel.rtt.sample": 1,
    "rel.send": 1,
    "switch.forward": 15,
    "vmmc.send.posted": 3,
    "vmmc_drv.tlb_refill": 2,
}
SEND_DIGEST = (
    "a8d576a4646befc45777924e748c6dd919c82d507063ae22bada016962d90a65")


def test_fabric_boot_and_pair_traffic_trace_counts():
    with fresh_pid_namespace():
        counts = fabric_categories()
    assert canonical(counts) == FABRIC_CANONICAL
    assert digest(counts) == FABRIC_DIGEST


def test_vmmc_and_reliable_send_trace_counts():
    with fresh_pid_namespace():
        counts = send_categories()
    assert canonical(counts) == SEND_CANONICAL
    assert digest(counts) == SEND_DIGEST
