"""Tests for the section-7 baseline protocols."""

import pytest

from repro.baselines import (
    ActiveMessagesPair,
    FastMessagesPair,
    MyrinetAPIPair,
    PMPair,
)
from repro.hw.myrinet.packet import BaselineHeader


# ----------------------------------------------------------- basic delivery
@pytest.mark.parametrize("cls", [MyrinetAPIPair, FastMessagesPair, PMPair,
                                 ActiveMessagesPair])
def test_message_delivery_roundtrip(cls):
    pair = cls(memory_mb=8)
    env = pair.env
    got = {}

    def app():
        buf = pair.alloc(0, 4096)
        yield pair.send(0, buf, 1000)
        got["record"] = yield pair.deliveries(1).get()

    env.run(until=env.process(app()))
    seq, length = got["record"]
    assert length == 1000


@pytest.mark.parametrize("cls", [MyrinetAPIPair, FastMessagesPair, PMPair,
                                 ActiveMessagesPair])
def test_multi_message_ordering(cls):
    pair = cls(memory_mb=8)
    env = pair.env
    seqs = []

    def sender():
        buf = pair.alloc(0, 4096)
        for _ in range(4):
            yield pair.send(0, buf, 256)

    def receiver():
        for _ in range(4):
            seq, _ = yield pair.deliveries(1).get()
            seqs.append(seq)

    env.process(sender())
    done = env.process(receiver())
    env.run(until=done)
    assert seqs == sorted(seqs)


# --------------------------------------------------------------- latencies
def test_api_latency_matches_paper():
    pair = MyrinetAPIPair(memory_mb=8)
    lat = pair.pingpong_latency_us(4, 8)
    assert lat == pytest.approx(63, rel=0.05)


def test_fm_latency_matches_paper():
    pair = FastMessagesPair(memory_mb=8)
    lat = pair.pingpong_latency_us(8, 8)
    assert lat == pytest.approx(11.7, rel=0.1)


def test_pm_latency_matches_paper():
    pair = PMPair(memory_mb=8)
    lat = pair.pingpong_latency_us(8, 8)
    assert lat == pytest.approx(7.2, rel=0.1)


def test_latency_ordering_pm_fastest_api_slowest():
    """Section 7's qualitative ordering: PM < VMMC(9.8) < FM < API."""
    pm = PMPair(memory_mb=8).pingpong_latency_us(8, 6)
    fm = FastMessagesPair(memory_mb=8).pingpong_latency_us(8, 6)
    api = MyrinetAPIPair(memory_mb=8).pingpong_latency_us(8, 6)
    assert pm < 9.8 < fm < api


# -------------------------------------------------------------- bandwidths
def test_fm_bandwidth_is_pio_bound():
    """FM's sender writes every word with PIO: ~33 MB/s hard ceiling."""
    pair = FastMessagesPair(memory_mb=8)
    bw = pair.oneway_bandwidth_mbps(8192, 10)
    assert 25 <= bw <= 34


def test_pm_pipelined_bandwidth_beats_page_limit():
    """8 KB transfer units from contiguous pinned buffers: >100 MB/s
    (the paper quotes 118 MB/s; the 4 KB page limit caps VMMC at ~98)."""
    pair = PMPair(memory_mb=8)
    bw = pair.oneway_bandwidth_mbps(64 * 1024, 8)
    assert bw > 100


def test_pm_bandwidth_with_copy_included_is_lower():
    """The sender-side copy PM's peak number excludes reduces available
    user-to-user bandwidth (section 7)."""
    no_copy = PMPair(memory_mb=8).oneway_bandwidth_mbps(32 * 1024, 8)
    with_copy = PMPair(memory_mb=8, include_copy=True) \
        .oneway_bandwidth_mbps(32 * 1024, 8)
    assert with_copy < no_copy


def test_api_bandwidth_is_lowest():
    api = MyrinetAPIPair(memory_mb=8).oneway_bandwidth_mbps(8192, 8)
    pm = PMPair(memory_mb=8).oneway_bandwidth_mbps(8192, 8)
    assert api < pm


# ------------------------------------------------------------- protocol bits
def test_pm_flow_control_credits_recover():
    """Sending far more messages than the credit window must not deadlock:
    ACKs replenish credits."""
    pair = PMPair(memory_mb=8)
    env = pair.env
    done = {}

    def sender():
        buf = pair.alloc(0, 4096)
        for _ in range(40):  # credit window is 16
            yield pair.send(0, buf, 512)
        done["sent"] = True

    def receiver():
        for _ in range(40):
            yield pair.deliveries(1).get()
        done["received"] = True

    env.process(sender())
    fin = env.process(receiver())
    env.run(until=fin)
    assert done == {"sent": True, "received": True}


def test_am_handler_invoked_remotely():
    pair = ActiveMessagesPair(memory_mb=8)
    env = pair.env
    calls = []
    pair.register_handler(1, "incr", lambda args: calls.append(args))

    def app():
        yield pair.request(0, "incr", args=(5,))
        yield pair.deliveries(1).get()

    env.run(until=env.process(app()))
    assert calls == [(5,)]


def test_api_unreliable_loss_on_crc_error():
    """The Myrinet API has no reliable delivery: a corrupted packet is
    simply gone — never retransmitted, never delivered (section 7)."""
    pair = MyrinetAPIPair(memory_mb=8)
    env = pair.env
    # Inject a pre-corrupted packet straight into node0's NIC.
    packet = pair.make_packet(0, BaselineHeader("api_msg", 99, 8), b"x" * 8)
    packet.seal()
    packet.corrupt(bit=5)

    def app():
        # Inject below the send engine (which would re-seal the CRC).
        yield pair.fabric.inject("node0", packet)

    env.run(until=env.process(app()))
    env.run(until=env.now + 1_000_000)
    assert len(pair.deliveries(1)) == 0
