"""Integration tests: notifications, TLB misses, CRC errors, protection."""

import numpy as np
import pytest

from repro import Cluster, TestbedConfig
from repro.hw.myrinet.link import LinkParams


def small_cluster(**overrides):
    return Cluster.build(TestbedConfig(nnodes=2, memory_mb=8, **overrides))


def drain(env, us=2000):
    env.run(until=env.now + us * 1000)


# ------------------------------------------------------------- notifications
def test_notification_invokes_user_handler():
    """Attaching a notification invokes a user-level handler in the
    receiving process after delivery (section 2)."""
    cluster = small_cluster()
    env = cluster.env
    _, sender = cluster.nodes[0].attach_process("s")
    proc_r, receiver = cluster.nodes[1].attach_process("r")
    events = []

    def handler(info):
        events.append((env.now, dict(info)))

    def app():
        inbox = receiver.alloc_buffer(8192)
        yield receiver.export(inbox, "notified", notify_handler=handler)
        imported = yield sender.import_buffer("node1", "notified")
        src = sender.alloc_buffer(4096)
        src.write(b"data with control transfer")
        yield sender.send(src, imported, 27)

    env.run(until=env.process(app()))
    drain(env, 500)
    assert len(events) == 1
    t, info = events[0]
    assert info["src_node"] == 0
    assert info["length"] == 27
    assert cluster.nodes[1].lcp.notifications_raised == 1
    assert cluster.nodes[1].kernel.signals_delivered == 1
    assert cluster.nodes[1].driver.notifications_delivered == 1


def test_notification_after_data_delivery():
    """The handler runs only after the message is in receiver memory."""
    cluster = small_cluster()
    env = cluster.env
    _, sender = cluster.nodes[0].attach_process("s")
    _, receiver = cluster.nodes[1].attach_process("r")
    seen = {}
    inbox_holder = {}

    def handler(info):
        buf = inbox_holder["inbox"]
        seen["contents"] = buf.read(0, info["length"]).tobytes()

    def app():
        inbox = receiver.alloc_buffer(8192)
        inbox_holder["inbox"] = inbox
        yield receiver.export(inbox, "inbox", notify_handler=handler)
        imported = yield sender.import_buffer("node1", "inbox")
        src = sender.alloc_buffer(4096)
        src.write(b"payload-first")
        yield sender.send(src, imported, 13)

    env.run(until=env.process(app()))
    drain(env, 500)
    assert seen["contents"] == b"payload-first"


def test_long_send_notification_fires_once_on_last_chunk():
    cluster = small_cluster()
    env = cluster.env
    _, sender = cluster.nodes[0].attach_process("s")
    _, receiver = cluster.nodes[1].attach_process("r")
    count = {"n": 0}

    def app():
        inbox = receiver.alloc_buffer(64 * 1024)
        yield receiver.export(inbox, "inbox",
                              notify_handler=lambda info: count.__setitem__(
                                  "n", count["n"] + 1))
        imported = yield sender.import_buffer("node1", "inbox")
        src = sender.alloc_buffer(64 * 1024)
        yield sender.send(src, imported, 64 * 1024)  # 16 chunks

    env.run(until=env.process(app()))
    drain(env, 3000)
    assert count["n"] == 1
    assert cluster.nodes[1].lcp.packets_delivered == 16


def test_no_notification_without_handler():
    cluster = small_cluster()
    env = cluster.env
    _, sender = cluster.nodes[0].attach_process("s")
    _, receiver = cluster.nodes[1].attach_process("r")

    def app():
        inbox = receiver.alloc_buffer(8192)
        yield receiver.export(inbox, "plain")
        imported = yield sender.import_buffer("node1", "plain")
        src = sender.alloc_buffer(4096)
        yield sender.send(src, imported, 64)

    env.run(until=env.process(app()))
    drain(env, 500)
    assert cluster.nodes[1].lcp.notifications_raised == 0
    assert cluster.nodes[1].kernel.signals_delivered == 0


# --------------------------------------------------------------- TLB misses
def test_tlb_miss_interrupt_refills_32_pages():
    """First long send from cold memory: one interrupt installs up to 32
    translations (section 4.5)."""
    cluster = small_cluster()
    env = cluster.env
    _, sender = cluster.nodes[0].attach_process("s")
    _, receiver = cluster.nodes[1].attach_process("r")

    def app():
        inbox = receiver.alloc_buffer(128 * 1024)
        yield receiver.export(inbox, "inbox")
        imported = yield sender.import_buffer("node1", "inbox")
        src = sender.alloc_buffer(128 * 1024)   # 32 pages
        yield sender.send(src, imported, 128 * 1024)

    env.run(until=env.process(app()))
    drain(env, 3000)
    node0 = cluster.nodes[0]
    assert node0.lcp.tlb_miss_interrupts == 1     # one refill covers 32 pages
    assert node0.driver.tlb_refills == 1
    assert node0.driver.pages_locked_for_send == 32
    ctx = node0.lcp.processes[list(node0.lcp.processes)[0]]
    assert ctx.tlb.occupancy == 32


def test_second_send_is_tlb_warm():
    cluster = small_cluster()
    env = cluster.env
    _, sender = cluster.nodes[0].attach_process("s")
    _, receiver = cluster.nodes[1].attach_process("r")
    times = {}

    def app():
        inbox = receiver.alloc_buffer(64 * 1024)
        yield receiver.export(inbox, "inbox")
        imported = yield sender.import_buffer("node1", "inbox")
        src = sender.alloc_buffer(64 * 1024)
        t0 = env.now
        yield sender.send(src, imported, 64 * 1024)
        times["cold"] = env.now - t0
        t0 = env.now
        yield sender.send(src, imported, 64 * 1024)
        times["warm"] = env.now - t0

    env.run(until=env.process(app()))
    assert cluster.nodes[0].lcp.tlb_miss_interrupts == 1
    assert times["warm"] < times["cold"]


# ---------------------------------------------------------------- CRC errors
def test_crc_corruption_detected_and_dropped():
    """Errors are detected but not recovered (section 4.2)."""
    cluster = Cluster.build(TestbedConfig(
        nnodes=2, memory_mb=8, link=LinkParams(error_rate=1.0)))
    env = cluster.env
    _, sender = cluster.nodes[0].attach_process("s")
    _, receiver = cluster.nodes[1].attach_process("r")

    def app():
        inbox = receiver.alloc_buffer(8192)
        yield receiver.export(inbox, "inbox")
        imported = yield sender.import_buffer("node1", "inbox")
        src = sender.alloc_buffer(4096)
        src.write(b"doomed")
        yield sender.send(src, imported, 6)

    env.run(until=env.process(app()))
    drain(env, 500)
    lcp1 = cluster.nodes[1].lcp
    assert lcp1.crc_drops == 1
    assert lcp1.packets_delivered == 0
    # The data never reached receiver memory.
    assert cluster.nodes[1].nic.net_recv.crc_errors == 1


def test_gigabytes_without_errors_at_paper_ber():
    """At the paper's error rate (<1e-15 BER) normal runs are clean."""
    cluster = small_cluster()
    env = cluster.env
    _, sender = cluster.nodes[0].attach_process("s")
    _, receiver = cluster.nodes[1].attach_process("r")

    def app():
        inbox = receiver.alloc_buffer(32 * 1024)
        yield receiver.export(inbox, "inbox")
        imported = yield sender.import_buffer("node1", "inbox")
        src = sender.alloc_buffer(32 * 1024)
        for _ in range(8):
            yield sender.send(src, imported, 32 * 1024)

    env.run(until=env.process(app()))
    drain(env, 3000)
    assert cluster.nodes[1].lcp.crc_drops == 0
    assert cluster.nodes[1].lcp.packets_delivered == 64


# ----------------------------------------------------------------- protection
def test_forged_destination_dropped_by_incoming_table():
    """Even a packet with a forged physical destination cannot land
    outside exported memory — the incoming page table rejects it."""
    from repro.hw.myrinet.packet import DepositHeader, MyrinetPacket

    cluster = small_cluster()
    env = cluster.env
    cluster.nodes[1].attach_process("victim")
    # Hand-craft a hostile packet aimed at an arbitrary (non-exported)
    # frame of node1 and inject it from node0's NIC.
    evil = MyrinetPacket(
        cluster.fabric.compute_route("node0", "node1"),
        DepositHeader("vmmc_data", ((123 * 4096, 16),), notify=False,
                      last=True, src_node=0, msg_length=16),
        b"A" * 16)

    def inject():
        yield cluster.nodes[0].nic.net_send.send(evil)

    env.run(until=env.process(inject()))
    drain(env, 500)
    lcp1 = cluster.nodes[1].lcp
    assert lcp1.protection_violations == 1
    assert lcp1.packets_delivered == 0
    assert bytes(cluster.nodes[1].memory.read(123 * 4096, 16)) != b"A" * 16
