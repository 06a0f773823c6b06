"""The reliable-delivery layer over VMMC: sequence numbers, ACK by
remote-memory write, timeout + backoff + bounded retries, duplicate
suppression, and the error completion the base protocol never provides."""

import pytest

from repro import Cluster, TestbedConfig
from repro.hw.myrinet.link import LinkParams
from repro.sim import SimulationStalled
from repro.vmmc.errors import RetriesExhausted
from repro.vmmc.reliable import (
    HEADER_BYTES,
    ReliableError,
    ReliableReceiver,
    ReliableSender,
    open_channel,
)


def channel_pair(error_rate=0.0, **channel_kwargs):
    cluster = Cluster.build(TestbedConfig(
        nnodes=2, memory_mb=16, link=LinkParams(error_rate=error_rate)))
    _, ep_tx = cluster.nodes[0].attach_process("tx")
    _, ep_rx = cluster.nodes[1].attach_process("rx")
    tx, rx = cluster.env.run(until=open_channel(
        ep_tx, ep_rx, "chan", **channel_kwargs))
    return cluster, tx, rx


def payloads(n, size=512):
    return [bytes((i + j) % 256 for j in range(size)) for i in range(n)]


# ------------------------------------------------------------ clean path
def test_clean_channel_delivers_in_order_byte_exact():
    cluster, tx, rx = channel_pair()
    env = cluster.env
    sent = payloads(12)
    got = []

    def receiver():
        for _ in sent:
            got.append((yield rx.recv()))

    def sender():
        for p in sent:
            seq = yield tx.send(p)
            assert seq >= 1

    rx_proc = env.process(receiver())
    env.process(sender())
    env.run(until=rx_proc)
    env.run(until=env.now + 1_000_000)  # let the final ACK land
    assert got == sent
    assert tx.stats.messages_delivered == len(sent)
    assert tx.stats.retransmits == 0       # clean fabric: pure overhead
    assert tx.stats.send_failures == 0
    assert rx.stats.acks_sent == len(sent)
    assert rx.stats.duplicates_suppressed == 0
    assert rx.delivered == len(sent)


def test_send_wraps_ring_slots():
    cluster, tx, rx = channel_pair(nslots=2, slot_bytes=HEADER_BYTES + 64)
    env = cluster.env
    sent = payloads(7, size=64)  # > nslots: sequence wraps the ring
    got = []

    def receiver():
        for _ in sent:
            got.append((yield rx.recv()))

    rx_proc = env.process(receiver())

    def sender():
        for p in sent:
            yield tx.send(p)

    env.process(sender())
    env.run(until=rx_proc)
    assert got == sent


# ------------------------------------------------------------ lossy path
def test_lossy_fabric_byte_exact_with_retransmits():
    cluster, tx, rx = channel_pair(error_rate=0.1)
    env = cluster.env
    sent = payloads(30)
    got = []

    def receiver():
        for _ in sent:
            got.append((yield rx.recv()))

    rx_proc = env.process(receiver())

    def sender():
        for p in sent:
            yield tx.send(p)

    env.process(sender())
    env.run(until=rx_proc)
    assert got == sent                       # every byte, in order
    assert tx.stats.retransmits > 0          # ... and it worked for it
    assert tx.stats.send_failures == 0
    assert cluster.nodes[1].lcp.crc_drops > 0


def test_lost_acks_trigger_duplicate_suppression_and_reack():
    """Corrupt only the ACK return path: data always arrives, ACKs are
    CRC-dropped.  The sender retransmits already-delivered messages; the
    receiver must suppress the duplicates and re-ACK (or the channel
    deadlocks)."""
    cluster, tx, rx = channel_pair()
    env = cluster.env
    # ACKs travel node1 -> sw0 -> node0.
    cluster.fabric.find_link("node1->sw0").set_error_rate(0.5)
    sent = payloads(20)
    got = []

    def receiver():
        for _ in sent:
            got.append((yield rx.recv()))

    rx_proc = env.process(receiver())

    def sender():
        for p in sent:
            yield tx.send(p)

    env.process(sender())
    env.run(until=rx_proc)
    assert got == sent
    assert tx.stats.retransmits > 0
    assert rx.stats.duplicates_suppressed > 0
    assert rx.stats.acks_resent > 0
    assert tx.stats.send_failures == 0


def test_retries_exhausted_on_dead_link():
    cluster, tx, rx = channel_pair(timeout_ns=20_000, max_retries=3)
    env = cluster.env
    cluster.fabric.find_link("node0->sw0").set_down()

    def app():
        with pytest.raises(RetriesExhausted) as excinfo:
            yield tx.send(b"into the void")
        assert excinfo.value.seq == 1
        assert excinfo.value.retries == 3

    env.run(until=env.process(app()))
    assert tx.stats.send_failures == 1
    assert tx.stats.retransmits == 3
    assert tx.stats.messages_delivered == 0
    assert rx.delivered == 0


# ----------------------------------------------------------- guard rails
def test_oversized_payload_rejected():
    cluster, tx, _ = channel_pair(slot_bytes=HEADER_BYTES + 128)

    def app():
        with pytest.raises(ReliableError, match="slot capacity"):
            yield tx.send(b"x" * 129)

    cluster.env.run(until=cluster.env.process(app()))


def test_send_before_open_rejected():
    cluster = Cluster.build(TestbedConfig(nnodes=2, memory_mb=8))
    _, ep = cluster.nodes[0].attach_process("tx")
    tx = ReliableSender(ep, "orphan")

    def app():
        with pytest.raises(ReliableError, match="not opened"):
            yield tx.send(b"hello")

    cluster.env.run(until=cluster.env.process(app()))


def test_a_second_pending_recv_is_refused():
    # Two receives posted together used to both deliver message 1 (each
    # captured the expected sequence number when it started): the
    # receiver counted two deliveries of one message.  One receive may
    # be pending per receiver.
    cluster, tx, rx = channel_pair()
    env = cluster.env
    first = rx.recv()
    with pytest.raises(ReliableError, match="already pending"):
        rx.recv()
    env.run(until=tx.send(b"first"))
    assert env.run(until=first) == b"first"
    second = rx.recv()          # the first has ended: a new one is fine
    env.run(until=tx.send(b"second"))
    assert env.run(until=second) == b"second"
    assert rx.stats.messages_delivered == rx.delivered == 2


def test_a_recv_on_a_silent_channel_stalls_loudly():
    # A receive is a chain of callbacks now, not a process, but a process
    # blocked on it still makes ``run(until=...)`` name that process and
    # the receive it waits on.
    cluster, _tx, rx = channel_pair()
    env = cluster.env
    pending = []

    def app():
        pending.append(rx.recv())
        yield pending[0]

    proc = env.process(app(), name="silent.reader")
    with pytest.raises(SimulationStalled, match="silent.reader") as stall:
        env.run(until=proc)
    assert stall.value.name == "silent.reader"
    assert stall.value.blocked_on is pending[0]
    assert not pending[0].triggered


def test_slot_bytes_must_exceed_header():
    cluster = Cluster.build(TestbedConfig(nnodes=2, memory_mb=8))
    _, ep = cluster.nodes[0].attach_process("p")
    with pytest.raises(ReliableError, match="slot too small"):
        ReliableSender(ep, "bad", slot_bytes=HEADER_BYTES)
    with pytest.raises(ReliableError, match="slot too small"):
        ReliableReceiver(ep, "bad", slot_bytes=HEADER_BYTES)
    with pytest.raises(ReliableError, match="at least one slot"):
        ReliableSender(ep, "bad", nslots=0)
    with pytest.raises(ReliableError, match="at least one slot"):
        ReliableReceiver(ep, "bad", nslots=0)


# ------------------------------------------------- adaptive machinery
def test_rto_estimator_seeds_from_first_clean_rtt():
    """Jacobson/Karels bootstrap: the first measured round trip seeds
    SRTT directly and RTTVAR at half of it (RFC 6298 style), and every
    subsequent clean ACK feeds the filter; the RTO never leaves the
    configured ``[timeout_ns, max_timeout_ns]`` band."""
    cluster, tx, rx = channel_pair()
    env = cluster.env
    sent = payloads(8, size=256)
    got = []

    def receiver():
        for _ in sent:
            got.append((yield rx.recv()))

    rx_proc = env.process(receiver())

    def sender():
        assert tx.srtt_ns is None            # unseeded before traffic
        yield tx.send(sent[0])
        assert tx.stats.rtt_samples == 1
        assert tx.srtt_ns is not None and tx.srtt_ns > 0
        assert tx.rttvar_ns == tx.srtt_ns // 2
        for p in sent[1:]:
            yield tx.send(p)

    env.run(until=env.process(sender()))
    env.run(until=rx_proc)
    env.run(until=env.now + 1_000_000)
    assert got == sent
    assert tx.stats.rtt_samples == len(sent)   # every ACK was clean
    assert tx.timeout_ns <= tx.rto_ns <= tx.max_timeout_ns
    assert tx.stats.cwnd_max > 1               # the window actually grew
    assert tx.stats.cwnd_max <= tx.nslots


def test_karn_rule_excludes_retransmitted_rtts():
    """Karn's rule: a message that was retransmitted contributes *no*
    RTT sample — the estimator state is bit-identical before and after
    its delivery — and sampling resumes on the next clean exchange."""
    cluster, tx, rx = channel_pair(timeout_ns=60_000)
    env = cluster.env
    link = cluster.fabric.find_link("node0->sw0")   # data path only
    got = []

    def receiver():
        for _ in range(3):
            got.append((yield rx.recv()))
        rx.recv()   # keep listening: the last ACK may need a re-ACK

    rx_proc = env.process(receiver())

    def sender():
        yield tx.send(b"clean seed")         # seeds the estimator
        assert tx.stats.rtt_samples == 1
        seeded = (tx.srtt_ns, tx.rttvar_ns)
        link.set_error_rate(1.0)             # every data frame dies

        def heal():
            yield env.timeout(200_000)       # well past the first RTO
            link.set_error_rate(0.0)

        env.process(heal())
        yield tx.send(b"retransmitted")      # delivered only via retry
        assert tx.stats.retransmits > 0
        assert tx.stats.retransmitted_deliveries == 1
        # Karn: no sample was taken, the filter state did not move.
        assert tx.stats.rtt_samples == 1
        assert (tx.srtt_ns, tx.rttvar_ns) == seeded
        yield tx.send(b"clean again")        # sampling resumes
        assert tx.stats.rtt_samples == 2

    env.run(until=env.process(sender()))
    env.run(until=rx_proc)
    env.run(until=env.now + 1_000_000)
    assert got == [b"clean seed", b"retransmitted", b"clean again"]
    stats = tx.stats
    assert stats.rtt_samples + stats.retransmitted_deliveries \
        == stats.messages_delivered


def test_timeout_cuts_window_and_doubles_rto_within_bounds():
    """A timeout is the only RTO growth path (doubling) and cuts the
    AIMD window multiplicatively — but both stay inside their bounds
    even when the link is dead long enough to back off repeatedly."""
    cluster, tx, rx = channel_pair(timeout_ns=30_000,
                                   max_timeout_ns=300_000)
    env = cluster.env
    link = cluster.fabric.find_link("node0->sw0")
    got = []

    def receiver():
        for _ in range(4):
            got.append((yield rx.recv()))
        rx.recv()

    rx_proc = env.process(receiver())

    def sender():
        for i in range(2):                  # grow the window a little
            yield tx.send(bytes([i]) * 64)
        link.set_error_rate(1.0)

        def heal():
            yield env.timeout(400_000)      # > several doubled RTOs
            link.set_error_rate(0.0)

        env.process(heal())
        yield tx.send(b"x" * 64)
        assert tx.stats.timeouts > 0
        assert tx.stats.cwnd_cuts >= 1
        # Backoff saturated at the cap instead of blowing through it.
        assert tx.rto_ns <= tx.max_timeout_ns
        assert tx.cwnd >= 1
        yield tx.send(b"y" * 64)

    env.run(until=env.process(sender()))
    env.run(until=rx_proc)
    env.run(until=env.now + 1_000_000)
    assert len(got) == 4
    assert tx.stats.send_failures == 0


# ----------------------------------------------------------- serial issue
def test_serial_issue_is_stop_and_wait():
    """One ``send()`` at a time *is* stop-and-wait: never more than one
    slot in flight, no pacing, no window cut — and, to the nanosecond,
    the 7,992,113 ns the deleted static stop-and-wait sender measured at
    bc4180f (``run_reliable_point(0.0, 150, 1024, adaptive=False)``)."""
    cluster, tx, rx = channel_pair(slot_bytes=HEADER_BYTES + 1024)
    env = cluster.env
    sent = payloads(150, size=1024)
    got, inflight = [], []
    set_inflight = tx._set_inflight
    tx._set_inflight = lambda n: (set_inflight(n), inflight.append(n))

    def receiver():
        for _ in sent:
            got.append((yield rx.recv()))
        return env.now

    def sender():
        for p in sent:
            yield tx.send(p)

    start = env.now
    rx_proc = env.process(receiver())
    env.process(sender())
    assert env.run(until=rx_proc) - start == 7_992_113
    assert got == sent
    assert max(inflight) == 1                # stop-and-wait, literally
    assert tx.stats.retransmits == tx.stats.paced_ns \
        == tx.stats.cwnd_cuts == 0


# --------------------------------------------- cold-restart timeout plumb
def test_receiver_reimport_uses_configured_timeout(monkeypatch):
    """Regression: the receiver's ACK-path recovery used to hardcode
    ``DEFAULT_TIMEOUT_NS``; the channel's configured ``timeout_ns`` /
    ``max_timeout_ns`` must reach the reimport backoff loop on *both*
    ends."""
    from repro.vmmc import reliable as rel_mod
    from repro.vmmc.api import ImportedBuffer

    cluster, tx, rx = channel_pair(timeout_ns=40_000,
                                   max_timeout_ns=800_000)
    env = cluster.env
    calls = []
    real = ImportedBuffer.reimport

    def recording(imported, timeout_ns=None):
        calls.append((imported is rx._ack_at_sender, timeout_ns))
        return real(imported, timeout_ns=timeout_ns)

    monkeypatch.setattr(ImportedBuffer, "reimport", recording)

    sent = payloads(6, size=128)
    got = []

    def receiver():
        for _ in sent:
            got.append((yield rx.recv()))
        rx.recv()

    rx_proc = env.process(receiver())

    def sender():
        for i, p in enumerate(sent):
            if i == 3:
                # Cold-crash the *sender's* daemon mid-stream: the
                # receiver's import of the ACK word goes stale and its
                # recovery path must use the configured timeouts.
                cluster.nodes[0].daemon.restart(cold=True)
            yield tx.send(p)

    env.process(sender())
    env.run(until=rx_proc)
    env.run(until=env.now + 5_000_000)

    assert got == sent
    assert any(receiver_side for receiver_side, _ in calls), \
        "cold crash never drove the receiver reimport"
    assert rel_mod.DEFAULT_TIMEOUT_NS != 40_000
    # Every attempt is a step of the configured schedule: 40 µs doubling
    # to the 800 µs cap.
    timeouts = {timeout_ns for _, timeout_ns in calls}
    assert 40_000 in timeouts
    assert timeouts <= {min(40_000 << k, 800_000) for k in range(6)}
    assert rx.stats.reimports > 0


def test_stats_as_dict_roundtrip():
    cluster, tx, rx = channel_pair()
    env = cluster.env

    def receiver():
        yield rx.recv()

    rx_proc = env.process(receiver())

    def sender():
        yield tx.send(b"one message")

    env.process(sender())
    env.run(until=rx_proc)
    env.run(until=env.now + 1_000_000)  # let the ACK land
    d = tx.stats.as_dict()
    assert d["messages_sent"] == 1
    assert d["messages_delivered"] == 1
    assert rx.stats.as_dict()["acks_sent"] == 1


# ------------------------------------------- the E-chaos acceptance sweep
def test_chaos_experiment_contract():
    """What the ``chaos`` gates (exactly-once, protocol invariants) and
    the ``lossy-link`` gates (the rate sweep) cannot see from inside one
    cell: seeded chaos is deterministic."""
    from repro.bench.chaos import run_cold_crash_point, run_error_burst_trial

    # A seeded burst campaign, twice: same faults, same report.  (Seed 7's
    # bursts all fall after its 60 messages are delivered; seed 0's hit
    # the stream.)
    first, again = run_error_burst_trial(0), run_error_burst_trial(0)
    assert first == again
    assert first["fault_stats"]["faults_raised"] > 0
    assert first["crc_drops"] > 0
    assert first["delivered_intact"] == first["messages"]
    assert run_cold_crash_point(seed=7)[1].by_kind.get(
        "daemon_cold_crash") == 2
