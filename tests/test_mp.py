"""Tests for the VMMC-based message-passing library (repro.mp)."""

import numpy as np
import pytest

from repro import Cluster, TestbedConfig
from repro.faults import FaultCampaign, FaultEvent, FaultInjector, LINK_DOWN
from repro.mp import (
    MPError,
    allreduce,
    alltoall,
    barrier,
    broadcast,
    build_world,
    gather,
    reduce,
    scatter,
)
from repro.vmmc.errors import CompletionError, RetriesExhausted
from repro.vmmc.reliable import ReliableError


def make_world(nnodes=2, **kw):
    cluster = Cluster.build(TestbedConfig(nnodes=nnodes, memory_mb=16))
    comms = build_world(cluster, **kw)
    return cluster, comms


def run_ranks(cluster, generators):
    """Run one generator per rank to completion; returns results by rank."""
    env = cluster.env
    results = {}

    def wrap(index, gen):
        value = yield from gen
        results[index] = value

    procs = [env.process(wrap(i, g)) for i, g in enumerate(generators)]
    for proc in procs:
        env.run(until=proc)
    return results


# ----------------------------------------------------------- point-to-point
def test_send_recv_roundtrip():
    cluster, (c0, c1) = make_world()

    def rank0():
        yield c0.send(1, b"hello from rank 0", tag=7)

    def rank1():
        message = yield c1.recv(0, tag=7)
        return message

    results = run_ranks(cluster, [rank0(), rank1()])
    assert results[1] == b"hello from rank 0"
    assert c0.messages_sent == 1
    assert c1.messages_received == 1


def test_empty_message():
    cluster, (c0, c1) = make_world()

    def rank0():
        yield c0.send(1, b"")

    def rank1():
        return (yield c1.recv(0))

    results = run_ranks(cluster, [rank0(), rank1()])
    assert results[1] == b""


def test_large_message_fragments_and_reassembles():
    cluster, (c0, c1) = make_world(slot_bytes=4096)
    payload = np.random.default_rng(0).integers(
        0, 256, 100_000, dtype=np.uint8).tobytes()

    def rank0():
        yield c0.send(1, payload)

    def rank1():
        # A slow consumer: the message waits whole in the inbox.
        yield cluster.env.timeout(10_000_000)
        return (yield c1.recv(0))

    results = run_ranks(cluster, [rank0(), rank1()])
    assert results[1] == payload
    assert c0.fragments_sent > 20  # many fragments through an 8-slot ring
    assert c0._tx[1].stats.cwnd_max == 8  # the window filled the ring


def test_messages_ordered_per_channel():
    cluster, (c0, c1) = make_world()

    def rank0():
        for i in range(10):
            yield c0.send(1, bytes([i]))

    def rank1():
        got = []
        for _ in range(10):
            message = yield c1.recv(0)
            got.append(message[0])
        return got

    results = run_ranks(cluster, [rank0(), rank1()])
    assert results[1] == list(range(10))


def test_tag_matching_buffers_out_of_order_tags():
    cluster, (c0, c1) = make_world()

    def rank0():
        yield c0.send(1, b"first-tag-5", tag=5)
        yield c0.send(1, b"second-tag-9", tag=9)

    def rank1():
        # Ask for tag 9 first: tag-5 message must be buffered, not lost.
        nine = yield c1.recv(0, tag=9)
        five = yield c1.recv(0, tag=5)
        return nine, five

    results = run_ranks(cluster, [rank0(), rank1()])
    assert results[1] == (b"second-tag-9", b"first-tag-5")


def test_bidirectional_concurrent_traffic():
    cluster, (c0, c1) = make_world()

    def rank(me, other, comm):
        send = comm.send(other, f"from {me}".encode())
        got = yield comm.recv(other)
        if not send.triggered:
            yield send
        return got

    results = run_ranks(cluster, [rank(0, 1, c0), rank(1, 0, c1)])
    assert results[0] == b"from 1"
    assert results[1] == b"from 0"


def test_send_array_recv_array():
    cluster, (c0, c1) = make_world()
    vec = np.linspace(0.0, 1.0, 500)

    def rank0():
        yield c0.send_array(1, vec)

    def rank1():
        return (yield c1.recv_array(0, dtype=np.float64))

    results = run_ranks(cluster, [rank0(), rank1()])
    assert np.allclose(results[1], vec)


def test_bad_ranks_rejected():
    cluster, (c0, c1) = make_world()
    with pytest.raises(MPError):
        c0.send(0, b"self")
    with pytest.raises(MPError):
        c0.send(5, b"ghost")
    with pytest.raises(MPError):
        c0.recv(0)
    with pytest.raises(ReliableError, match="at least one slot"):
        build_world(cluster, nslots=0)


def test_failed_fragment_write_is_recovered_by_the_channel():
    """A remote write that fails inside ``send`` is the reliable
    channel's to recover: the fragment is written again, and both
    messages arrive in order."""
    cluster, (c0, c1) = make_world()
    real, failures = c0.ep.send, [CompletionError("injected")]

    def flaky(*args, **kwargs):
        if failures:        # a send reports failure on its event
            return cluster.env.event().fail(failures.pop())
        return real(*args, **kwargs)

    c0.ep.send = flaky

    def rank0():
        yield c0.send(1, b"first")
        yield c0.send(1, b"second")

    def rank1():
        return [(yield c1.recv(0)), (yield c1.recv(0))]

    results = run_ranks(cluster, [rank0(), rank1()])
    assert results[1] == [b"first", b"second"]
    assert c0._tx[1].stats.completion_errors == 1


def test_concurrent_multi_fragment_sends_keep_call_order():
    """Two sends to one rank with one tag, in flight together, each
    several fragments long: both arrive whole, in call order (a
    message's fragments are posted in one call, so they never
    interleave with another message's)."""
    cluster, (c0, c1) = make_world(slot_bytes=1024)
    first, second = (bytes([byte]) * 5000 for byte in (1, 2))

    def rank0():
        sends = [c0.send(1, first, tag=4), c0.send(1, second, tag=4)]
        yield cluster.env.all_of(sends)

    def rank1():
        return [(yield c1.recv(0, tag=4)), (yield c1.recv(0, tag=4))]

    results = run_ranks(cluster, [rank0(), rank1()])
    assert results[1] == [first, second]
    assert c0.fragments_sent == 10  # five per message


def test_send_over_a_dead_link_fails_once_and_leaves_nothing_behind():
    """Every fragment of a message posted over a link that is down for
    good spends its retries: the send raises ``RetriesExhausted`` once,
    and the other fragments' failures are observed, not left to escape
    at a later ``env.run``."""
    cluster, (c0, c1) = make_world(slot_bytes=1024)
    env = cluster.env
    FaultInjector(cluster).run(FaultCampaign.of("dead", [
        FaultEvent(at_ns=0, kind=LINK_DOWN, target="node0->sw0")]))
    failures = []

    def rank0():
        send = c0.send(1, b"x" * 2500)
        assert c0.fragments_sent == 3
        try:
            yield send
        except RetriesExhausted as exc:
            failures.append(exc)

    env.run(until=env.process(rank0()))
    assert len(failures) == 1
    env.run(until=env.now + 500_000_000)
    assert c0._tx[1].stats.send_failures == 3


# --------------------------------------------------------------- collectives
def test_broadcast_four_ranks():
    cluster, comms = make_world(nnodes=4)
    payload = b"broadcast me"
    results = run_ranks(cluster, [
        broadcast(c, payload if c.rank == 0 else None, root=0)
        for c in comms])
    assert all(results[i] == payload for i in range(4))


def test_broadcast_nonzero_root():
    cluster, comms = make_world(nnodes=3)
    results = run_ranks(cluster, [
        broadcast(c, b"root2" if c.rank == 2 else None, root=2)
        for c in comms])
    assert all(results[i] == b"root2" for i in range(3))


def test_reduce_sum_to_root():
    cluster, comms = make_world(nnodes=4)
    results = run_ranks(cluster, [
        reduce(c, np.full(100, c.rank + 1, dtype=np.int64), root=0)
        for c in comms])
    assert np.array_equal(results[0], np.full(100, 10, dtype=np.int64))
    assert results[1] is None and results[3] is None


def test_reduce_with_max_op():
    cluster, comms = make_world(nnodes=3)
    results = run_ranks(cluster, [
        reduce(c, np.array([c.rank, 10 - c.rank]), op=np.maximum, root=0)
        for c in comms])
    assert results[0].tolist() == [2, 10]


def test_allreduce_all_ranks_agree():
    cluster, comms = make_world(nnodes=4)
    results = run_ranks(cluster, [
        allreduce(c, np.arange(50, dtype=np.float64) * (c.rank + 1))
        for c in comms])
    expected = np.arange(50, dtype=np.float64) * 10
    for i in range(4):
        assert np.allclose(results[i], expected)


def test_barrier_synchronizes():
    cluster, comms = make_world(nnodes=4)
    env = cluster.env
    after = {}

    def participant(comm, delay):
        yield env.timeout(delay)
        yield from barrier(comm)
        after[comm.rank] = env.now

    procs = [env.process(participant(c, (i + 1) * 50_000))
             for i, c in enumerate(comms)]
    for proc in procs:
        env.run(until=proc)
    # Nobody leaves the barrier before the slowest rank entered.
    assert min(after.values()) >= 4 * 50_000


def test_gather_at_root():
    cluster, comms = make_world(nnodes=3)
    results = run_ranks(cluster, [
        gather(c, f"piece{c.rank}".encode(), root=0) for c in comms])
    assert results[0] == [b"piece0", b"piece1", b"piece2"]
    assert results[1] is None


def test_scatter_from_root():
    cluster, comms = make_world(nnodes=3)
    pieces = [b"a", b"bb", b"ccc"]
    results = run_ranks(cluster, [
        scatter(c, pieces if c.rank == 0 else None, root=0)
        for c in comms])
    assert [results[i] for i in range(3)] == pieces


def test_scatter_requires_pieces_at_root():
    cluster, comms = make_world(nnodes=2)
    with pytest.raises(MPError):
        run_ranks(cluster, [scatter(c, None, root=0) for c in comms])


def test_alltoall_exchanges_everything():
    cluster, comms = make_world(nnodes=3)
    results = run_ranks(cluster, [
        alltoall(c, [f"{c.rank}->{dst}".encode() for dst in range(3)])
        for c in comms])
    for dst in range(3):
        assert results[dst] == [f"{src}->{dst}".encode() for src in range(3)]


def test_collectives_do_not_disturb_pending_app_messages():
    """Application traffic with a low tag survives a barrier in between."""
    cluster, (c0, c1) = make_world()

    def rank0():
        yield c0.send(1, b"app-message", tag=3)
        yield from barrier(c0)

    def rank1():
        yield from barrier(c1)
        return (yield c1.recv(0, tag=3))

    results = run_ranks(cluster, [rank0(), rank1()])
    assert results[1] == b"app-message"
