"""Fault-injection campaigns: schedule validation, hardware fault hooks,
the injector's end-to-end drive, and the CRC-drop path of the base
protocol (section 4.2: detected, counted, dropped — never recovered)."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Cluster, TestbedConfig
from repro.campaign import get_campaign
from repro.faults import (
    DAEMON_CRASH,
    FaultCampaign,
    FaultEvent,
    FaultInjector,
    LANAI_STALL,
    LINK_DOWN,
    LINK_ERROR_BURST,
    SWITCH_PORT_DOWN,
)
from repro.hw.myrinet import Link, MyrinetPacket, crc8
from repro.hw.myrinet.link import LinkParams, _seed_from_name
from repro.hw.myrinet.packet import BaselineHeader
from repro.sim import Environment


def small_cluster(**overrides):
    return Cluster.build(TestbedConfig(nnodes=2, memory_mb=8, **overrides))


# ----------------------------------------------------------- FaultEvent
def test_fault_event_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultEvent(at_ns=0, kind="gamma_ray", target="node0")


def test_fault_event_rejects_negative_times():
    with pytest.raises(ValueError, match="negative time"):
        FaultEvent(at_ns=-1, kind=LINK_DOWN, target="node0->sw0")
    with pytest.raises(ValueError, match="negative fault duration"):
        FaultEvent(at_ns=0, kind=LINK_DOWN, target="node0->sw0",
                   duration_ns=-5)


def test_fault_event_kind_specific_requirements():
    with pytest.raises(ValueError, match="requires a duration"):
        FaultEvent(at_ns=0, kind=LANAI_STALL, target="node0")
    with pytest.raises(ValueError, match=r"params\['rate'\]"):
        FaultEvent(at_ns=0, kind=LINK_ERROR_BURST, target="node0->sw0")


@pytest.mark.parametrize("rate", [-0.1, 1.5])
def test_fault_event_rejects_rate_outside_unit_interval(rate):
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        FaultEvent(at_ns=0, kind=LINK_ERROR_BURST, target="node0->sw0",
                   duration_ns=1_000, params={"rate": rate})


def test_campaign_sorts_events():
    late = FaultEvent(at_ns=900, kind=LINK_DOWN, target="a", duration_ns=50)
    early = FaultEvent(at_ns=100, kind=DAEMON_CRASH, target="node0",
                       duration_ns=2000)
    campaign = FaultCampaign.of("c", [late, early])
    assert [e.at_ns for e in campaign] == [100, 900]
    assert len(campaign) == 2


def test_random_link_bursts_deterministic_per_seed():
    links = ["node0->sw0", "sw0->node1", "node1->sw0"]
    a = FaultCampaign.random_link_bursts(links, seed=42)
    b = FaultCampaign.random_link_bursts(links, seed=42)
    c = FaultCampaign.random_link_bursts(links, seed=43)
    assert a.events == b.events
    assert a.events != c.events
    for event in a:
        assert event.kind == LINK_ERROR_BURST
        assert event.target in links
        assert 0 < event.params["rate"] <= 1


def test_random_link_bursts_requires_links():
    with pytest.raises(ValueError, match="no links"):
        FaultCampaign.random_link_bursts([], seed=1)


# --------------------------------------------------- hardware fault hooks
def test_link_rng_fallback_seeds_differ_per_name():
    # Regression: independently-built links used to share default_rng(0)
    # and draw identical error sequences.
    assert _seed_from_name("node0->sw0") != _seed_from_name("sw0->node1")
    cluster = small_cluster(link=LinkParams(error_rate=0.5))
    links = cluster.fabric.links
    seeds = {_seed_from_name(l.name) for l in links}
    assert len(seeds) == len(links)


@pytest.fixture
def corruptions(monkeypatch):
    """Every corruption a link makes, in order: ``(when the packet was
    injected, its header, the bit drawn)``."""
    made = []
    real = MyrinetPacket.corrupt

    def recorded(packet, bit=0):
        made.append((packet.injected_at, packet.header, bit))
        real(packet, bit)

    monkeypatch.setattr(MyrinetPacket, "corrupt", recorded)
    return made


def eager_stream(name: str) -> np.random.Generator:
    """The error stream every link used to make at construction."""
    return np.random.default_rng(zlib.crc32(name.encode("utf-8")))


def test_a_lossy_link_corrupts_what_an_eager_stream_did(corruptions):
    # A link makes its stream on its first lossy packet, from the seed
    # its name always gave: the same packets corrupted at the same bits.
    def corrupted(rng):
        corruptions.clear()
        env = Environment()
        link = Link(env, LinkParams(error_rate=0.3), name="sw0->node1",
                    rng=rng)
        link.connect(lambda _packet: None)

        def sender():
            for seq in range(200):
                yield link.transmit(MyrinetPacket(
                    [], BaselineHeader("api_msg", seq), b"x" * 64))

        env.run(until=env.process(sender()))
        assert link.errors_injected == len(corruptions)
        return list(corruptions)

    lazy = corrupted(None)
    assert 30 < len(lazy) < 90
    assert lazy == corrupted(eager_stream("sw0->node1"))


def burst_fattree_traffic(eager: bool) -> dict[str, int]:
    """An error burst on every link of a booted ``fattree:4,h=2`` while
    each host sends three 16 KB messages across the tree; the errors
    each link injected.  With ``eager``, every link is given the stream
    it would have made at construction before the burst starts."""
    cluster = Cluster.build(TestbedConfig(memory_mb=8),
                            topology="fattree:4,h=2")
    env, links = cluster.env, cluster.fabric.links
    assert all(link._rng is None for link in links)
    if eager:
        for link in links:
            link._rng = eager_stream(link.name)
    FaultInjector(cluster).run(FaultCampaign.of("burst", [
        FaultEvent(at_ns=0, kind=LINK_ERROR_BURST, target=link.name,
                   params={"rate": 0.2}) for link in links]))

    def stream(s: int, d: int):
        _, rx = cluster.nodes[d].attach_process(f"rx{s}")
        _, tx = cluster.nodes[s].attach_process(f"tx{s}")
        inbox = rx.alloc_buffer(16384)
        yield rx.export(inbox, f"in{s}")
        imported = yield tx.import_buffer(f"node{d}", f"in{s}")
        src = tx.alloc_buffer(16384)
        for _ in range(3):
            yield tx.send(src, imported, 16384)

    env.run(until=env.all_of([env.process(stream(s, (s + 5) % 16))
                              for s in range(16)]))
    env.run()
    return {link.name: link.errors_injected for link in links}


def test_an_error_burst_on_a_fattree_corrupts_what_eager_streams_did(
        corruptions):
    lazy = burst_fattree_traffic(eager=False)
    lazy_corruptions = list(corruptions)
    corruptions.clear()
    assert burst_fattree_traffic(eager=True) == lazy
    assert corruptions == lazy_corruptions
    assert sum(lazy.values()) == len(lazy_corruptions) > 50
    assert len([n for n in lazy.values() if n]) > 20


def test_a_clean_fattree_boot_makes_no_error_stream(monkeypatch):
    made = []
    real = np.random.default_rng

    def counted(*args, **kwargs):
        made.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counted)
    cluster = Cluster.build(TestbedConfig(memory_mb=8),
                            topology="fattree:8,h=2")
    assert made == []
    assert not [link for link in cluster.fabric.links
                if link._rng is not None]


def test_link_down_loses_packets_silently():
    cluster = small_cluster()
    env = cluster.env
    _, tx = cluster.nodes[0].attach_process("s")
    _, rx = cluster.nodes[1].attach_process("r")
    inbox = rx.alloc_buffer(4096)
    inbox.fill(0)
    src = tx.alloc_buffer(4096)
    src.fill(0xAB)
    link = cluster.fabric.find_link("node0->sw0")

    def app():
        yield rx.export(inbox, "inbox")
        imported = yield tx.import_buffer("node1", "inbox")
        link.set_down()
        yield tx.send(src, imported, 1024)

    env.run(until=env.process(app()))
    env.run(until=env.now + 2_000_000)
    assert not link.is_up
    assert link.packets_lost_down >= 1
    assert bytes(inbox.read(0, 1024)) == b"\x00" * 1024
    link.set_up()
    assert link.is_up


def test_find_link_unknown_name_raises():
    cluster = small_cluster()
    with pytest.raises(KeyError, match="no link named"):
        cluster.fabric.find_link("node9->sw9")


def test_switch_port_down_drops_routed_packets():
    cluster = small_cluster()
    env = cluster.env
    _, tx = cluster.nodes[0].attach_process("s")
    _, rx = cluster.nodes[1].attach_process("r")
    inbox = rx.alloc_buffer(4096)
    inbox.fill(0)
    src = tx.alloc_buffer(4096)
    src.fill(0xCD)
    sw = cluster.fabric.switches["sw0"]
    # node1 hangs off the port the route selects; find it from the route.
    out_port = cluster.fabric.compute_route("node0", "node1")[0]

    def app():
        yield rx.export(inbox, "inbox")
        imported = yield tx.import_buffer("node1", "inbox")
        sw.set_port_down(out_port)
        assert not sw.port_is_up(out_port)
        yield tx.send(src, imported, 512)

    env.run(until=env.process(app()))
    env.run(until=env.now + 2_000_000)
    assert sw.port_down_drops >= 1
    assert bytes(inbox.read(0, 512)) == b"\x00" * 512
    sw.set_port_up(out_port)
    assert sw.port_is_up(out_port)


def test_lanai_stall_delays_processing():
    cluster = small_cluster()
    env = cluster.env
    proc = cluster.nodes[0].nic.processor
    before = env.now
    proc.stall(25_000)

    def firmware_step():
        yield proc.cycles(10)

    env.run(until=env.process(firmware_step()))
    assert env.now - before >= 25_000
    assert proc.stall_ns_served >= 25_000


def test_daemon_crash_drops_requests_then_recovers():
    cluster = small_cluster()
    env = cluster.env
    _, tx = cluster.nodes[0].attach_process("s")
    _, rx = cluster.nodes[1].attach_process("r")
    daemon = cluster.nodes[1].daemon
    inbox = rx.alloc_buffer(4096)

    def app():
        yield rx.export(inbox, "inbox")
        daemon.crash()
        assert daemon.crashed
        # Give the import request time to be eaten by the dead daemon.
        yield env.timeout(1_000_000)
        daemon.restart()
        imported = yield tx.import_buffer("node1", "inbox")
        assert imported.nbytes == 4096

    env.run(until=env.process(app()))
    assert daemon.crashes == 1
    assert not daemon.crashed


# ------------------------------------------------------------- injector
def test_injector_drives_burst_and_clears_it():
    cluster = small_cluster()
    env = cluster.env
    link = cluster.fabric.find_link("node0->sw0")
    campaign = FaultCampaign.of("one_burst", [
        FaultEvent(at_ns=1_000, kind=LINK_ERROR_BURST, target="node0->sw0",
                   duration_ns=5_000, params={"rate": 0.9}),
    ])
    injector = FaultInjector(cluster)
    done = injector.run(campaign)
    env.run(until=env.now + 2_000)
    assert link.effective_error_rate == pytest.approx(0.9)
    stats = env.run(until=done)
    assert link.effective_error_rate == 0.0
    assert stats.faults_raised == 1
    assert stats.faults_cleared == 1
    assert stats.by_kind == {LINK_ERROR_BURST: 1}
    assert stats.fault_ns_by_target["node0->sw0"] == 5_000


def test_injector_permanent_fault_never_cleared():
    cluster = small_cluster()
    env = cluster.env
    campaign = FaultCampaign.of("cable_cut", [
        FaultEvent(at_ns=500, kind=LINK_DOWN, target="sw0->node1"),
    ])
    done = FaultInjector(cluster).run(campaign)
    env.run(until=done)
    link = cluster.fabric.find_link("sw0->node1")
    assert not link.is_up  # stays down forever


def test_injector_mixed_campaign_stats_are_deterministic():
    def run_once():
        cluster = small_cluster()
        campaign = FaultCampaign.of("mixed", [
            FaultEvent(at_ns=1_000, kind=LINK_ERROR_BURST,
                       target="node0->sw0", duration_ns=3_000,
                       params={"rate": 0.5}),
            FaultEvent(at_ns=2_000, kind=SWITCH_PORT_DOWN, target="sw0:0",
                       duration_ns=4_000),
            FaultEvent(at_ns=2_500, kind=LANAI_STALL, target="node1",
                       duration_ns=1_000),
            FaultEvent(at_ns=3_000, kind=DAEMON_CRASH, target="node0",
                       duration_ns=2_000),
        ], seed=11)
        done = FaultInjector(cluster).run(campaign)
        return cluster.env.run(until=done).as_dict()

    first, second = run_once(), run_once()
    assert first == second
    assert first["faults_raised"] == 4
    assert first["faults_cleared"] == 4  # stall self-clears at expiry


# ----------------------------------- overlapping faults on one target
def test_overlapping_error_bursts_last_clear_wins():
    """Regression: two overlapping bursts used to share a single
    override slot, so the first burst's clear wiped the still-active
    second burst.  With the stack, the link stays faulted until the
    *last* clear."""
    cluster = small_cluster()
    link = cluster.fabric.find_link("node0->sw0")
    tok_a = link.set_error_rate(0.9)
    tok_b = link.set_error_rate(0.5)        # last-wins while both active
    assert link.effective_error_rate == pytest.approx(0.5)
    assert link.error_burst_depth == 2
    link.clear_error_rate(tok_a)            # first burst ends...
    assert link.error_burst_depth == 1
    assert link.effective_error_rate == pytest.approx(0.5)  # ...B survives
    link.clear_error_rate(tok_b)
    assert link.error_burst_depth == 0
    assert link.effective_error_rate == 0.0
    # Unknown token is an idempotent no-op.
    link.clear_error_rate(tok_b)
    assert link.effective_error_rate == 0.0


def test_overlapping_link_down_depth_counted():
    """Regression: an early set_up from fault A used to revive a cable
    fault B still held down."""
    cluster = small_cluster()
    link = cluster.fabric.find_link("node0->sw0")
    link.set_down()
    link.set_down()
    assert not link.is_up and link.down_depth == 2
    link.set_up()                           # A clears: still down (B)
    assert not link.is_up and link.down_depth == 1
    link.set_up()                           # last clear wins
    assert link.is_up and link.down_depth == 0
    link.set_up()                           # stray extra clear: clamped
    assert link.is_up and link.down_depth == 0


def test_overlapping_switch_port_down_depth_counted():
    cluster = small_cluster()
    sw = cluster.fabric.switches["sw0"]
    sw.set_port_down(3)
    sw.set_port_down(3)
    assert not sw.port_is_up(3) and sw.port_down_depth(3) == 2
    sw.set_port_up(3)
    assert not sw.port_is_up(3) and sw.port_down_depth(3) == 1
    sw.set_port_up(3)
    assert sw.port_is_up(3) and sw.port_down_depth(3) == 0
    sw.set_port_up(3)                       # clamped
    assert sw.port_is_up(3)


def test_overlapping_daemon_crashes_nest_cold_dominates_warm():
    cluster = small_cluster()
    daemon = cluster.nodes[1].daemon
    epoch_before = daemon.epoch
    daemon.crash()                          # warm fault
    daemon.crash()                          # cold fault overlaps
    assert daemon.crashed and daemon.crash_depth == 2
    daemon.restart(cold=True)               # inner restart: stays down
    assert daemon.crashed and daemon.crash_depth == 1
    daemon.restart()                        # last restart: cold dominates
    assert not daemon.crashed and daemon.crash_depth == 0
    assert daemon.epoch == epoch_before + 1
    assert daemon.cold_restarts == 1


def test_injector_overlapping_bursts_one_link_no_early_clear():
    """End-to-end through the injector: burst A [1000, 6000) and burst B
    [4000, 9000) on one link; the link must stay errored across A's
    clear and only return to baseline at B's clear."""
    cluster = small_cluster()
    env = cluster.env
    t0 = env.now
    link = cluster.fabric.find_link("node0->sw0")
    campaign = FaultCampaign.of("overlap", [
        FaultEvent(at_ns=1_000, kind=LINK_ERROR_BURST, target="node0->sw0",
                   duration_ns=5_000, params={"rate": 0.9}),
        FaultEvent(at_ns=4_000, kind=LINK_ERROR_BURST, target="node0->sw0",
                   duration_ns=5_000, params={"rate": 0.5}),
    ])
    done = FaultInjector(cluster).run(campaign)
    env.run(until=t0 + 2_000)
    assert link.effective_error_rate == pytest.approx(0.9)
    env.run(until=t0 + 5_000)               # both active: last-wins
    assert link.effective_error_rate == pytest.approx(0.5)
    env.run(until=t0 + 7_000)               # A cleared at 6000, B alive
    assert link.effective_error_rate == pytest.approx(0.5)
    assert link.error_burst_depth == 1
    env.run(until=done)                     # B cleared at 9000
    assert link.effective_error_rate == 0.0
    assert link.error_burst_depth == 0


# ------------------------------------------------------ the campaign clock
@pytest.mark.parametrize("kind, target, error", [
    (LINK_DOWN, "node0->sw9", KeyError),
    (SWITCH_PORT_DOWN, "sw9:0", KeyError),
    (SWITCH_PORT_DOWN, "sw0:px", ValueError),
    (DAEMON_CRASH, "node7", KeyError),
])
def test_bad_target_raises_at_run_before_anything_is_scheduled(
        kind, target, error):
    """A typo in a target fails at run(), not when its event fires after
    the workload has run: nothing is queued, not even the good events."""
    cluster = small_cluster()
    env = cluster.env
    now, queued = env.now, len(env._queue)
    campaign = FaultCampaign.of("typo", [
        FaultEvent(at_ns=1_000, kind=LINK_DOWN, target="node0->sw0",
                   duration_ns=1_000),
        FaultEvent(at_ns=5_000_000, kind=kind, target=target,
                   duration_ns=1_000),
    ])
    with pytest.raises(error):
        FaultInjector(cluster).run(campaign)
    assert (env.now, len(env._queue)) == (now, queued)
    assert cluster.fabric.find_link("node0->sw0").is_up


_CLOCK_TARGETS = {
    LINK_ERROR_BURST: ["node0->sw0", "sw0->node1"],
    SWITCH_PORT_DOWN: ["sw0:0", "sw0:1"],
    LANAI_STALL: ["node0", "node1"],
}


@st.composite
def _clock_events(draw):
    kind = draw(st.sampled_from(sorted(_CLOCK_TARGETS)))
    return FaultEvent(
        at_ns=draw(st.integers(0, 40_000)), kind=kind,
        target=draw(st.sampled_from(_CLOCK_TARGETS[kind])),
        duration_ns=draw(st.integers(1, 20_000)),
        params={"rate": 0.5} if kind == LINK_ERROR_BURST else {})


@settings(max_examples=25, deadline=None)
@given(st.lists(_clock_events(), min_size=1, max_size=6),
       st.integers(0, 3_000_000))
def test_campaign_clock_starts_at_run(events, wait_ns):
    """However late a campaign is started, each event is raised at
    start + at_ns and charged (start + at_ns, start + at_ns +
    duration_ns), and the campaign is finalized at its last clear."""
    cluster = small_cluster()
    env = cluster.env
    env.run(until=env.now + wait_ns)
    start = env.now
    campaign = FaultCampaign.of("clock", events)
    stats = env.run(until=FaultInjector(cluster).run(campaign))
    assert sorted(stats.log) == sorted(
        (e.kind, e.target, start + e.at_ns) for e in events)
    for target in {e.target for e in events}:
        assert sorted(stats.intervals_by_target[target]) == sorted(
            (start + e.at_ns, start + e.at_ns + e.duration_ns)
            for e in events if e.target == target)
    assert stats.finalized_at == start + max(e.at_ns + e.duration_ns
                                             for e in events)


# -------------------------------- injector stats bookkeeping (satellite)
def test_injector_second_campaign_does_not_clobber_first_stats():
    """Two campaigns in flight on one injector: each run process's value
    is its own campaign's stats."""
    cluster = small_cluster()
    env = cluster.env
    injector = FaultInjector(cluster)
    first = FaultCampaign.of("first", [
        FaultEvent(at_ns=1_000, kind=LINK_ERROR_BURST, target="node0->sw0",
                   duration_ns=2_000, params={"rate": 0.9})])
    second = FaultCampaign.of("second", [
        FaultEvent(at_ns=1_500, kind=LINK_DOWN, target="sw0->node1",
                   duration_ns=2_000)])
    done_first = injector.run(first)
    done_second = injector.run(second)
    stats_first = env.run(until=done_first)
    stats_second = env.run(until=done_second)
    assert stats_first.campaign == "first"
    assert stats_first.by_kind == {LINK_ERROR_BURST: 1}
    assert stats_first.fault_ns_by_target == {"node0->sw0": 2_000}
    assert stats_second.campaign == "second"
    assert stats_second.by_kind == {LINK_DOWN: 1}
    assert stats_second.fault_ns_by_target == {"sw0->node1": 2_000}


def test_permanent_fault_charged_by_finalize():
    """Regression: permanent faults (duration_ns=None) never appeared in
    fault_ns_by_target; the injector's finalize at campaign end charges
    campaign_end - raised_at."""
    cluster = small_cluster()
    env = cluster.env
    t0 = env.now                            # build boots the cluster
    campaign = FaultCampaign.of("cut", [
        FaultEvent(at_ns=500, kind=LINK_DOWN, target="sw0->node1"),
        FaultEvent(at_ns=1_000, kind=LINK_ERROR_BURST, target="node0->sw0",
                   duration_ns=9_500, params={"rate": 0.5}),
    ])
    injector = FaultInjector(cluster)
    stats = env.run(until=injector.run(campaign))  # ends at t0 + 10_500
    assert stats.finalized_at == t0 + 10_500
    assert stats.fault_ns_by_target["sw0->node1"] == 10_000
    assert stats.intervals_by_target["sw0->node1"] == [(t0 + 500,
                                                        t0 + 10_500)]
    assert stats.open_faults == 1
    assert stats.fault_ns_by_target["node0->sw0"] == 9_500


def test_campaign_sort_is_total_over_duplicate_keys():
    """Events sharing (at_ns, kind, target) used to sort unspecified by
    construction order; the total key makes same-seed campaigns
    bit-identical regardless of input order."""
    e_short = FaultEvent(at_ns=100, kind=LINK_ERROR_BURST, target="a",
                         duration_ns=1_000, params={"rate": 0.2})
    e_long = FaultEvent(at_ns=100, kind=LINK_ERROR_BURST, target="a",
                        duration_ns=2_000, params={"rate": 0.9})
    e_perm = FaultEvent(at_ns=100, kind=LINK_DOWN, target="a")
    e_timed = FaultEvent(at_ns=100, kind=LINK_DOWN, target="a",
                         duration_ns=500)
    forward = FaultCampaign.of("c", [e_short, e_long, e_perm, e_timed],
                               seed=3)
    backward = FaultCampaign.of("c", [e_timed, e_perm, e_long, e_short],
                                seed=3)
    assert forward.events == backward.events
    assert forward == backward
    # Durations break the tie; permanent (None) sorts after timed.
    bursts = [e for e in forward if e.kind == LINK_ERROR_BURST]
    assert [e.duration_ns for e in bursts] == [1_000, 2_000]
    downs = [e for e in forward if e.kind == LINK_DOWN]
    assert [e.duration_ns for e in downs] == [500, None]


def test_same_key_same_duration_params_break_tie():
    a = FaultEvent(at_ns=100, kind=LINK_ERROR_BURST, target="a",
                   duration_ns=1_000, params={"rate": 0.2})
    b = FaultEvent(at_ns=100, kind=LINK_ERROR_BURST, target="a",
                   duration_ns=1_000, params={"rate": 0.9})
    assert (FaultCampaign.of("c", [a, b]).events
            == FaultCampaign.of("c", [b, a]).events)


# -------------------------------------- CRC-drop path (satellite test)
def test_crc_error_detected_counted_dropped_never_recovered():
    """error_rate=1.0: every packet is corrupted on the wire.  The LCP
    must detect the bad CRC, bump its counter, drop the packet, and leave
    the receiver's memory untouched — and nobody retransmits."""
    cluster = small_cluster(link=LinkParams(error_rate=1.0))
    env = cluster.env
    _, tx = cluster.nodes[0].attach_process("s")
    _, rx = cluster.nodes[1].attach_process("r")
    inbox = rx.alloc_buffer(4096)
    inbox.fill(0)
    src = tx.alloc_buffer(4096)
    src.fill(0x5A)

    def app():
        yield rx.export(inbox, "inbox")
        imported = yield tx.import_buffer("node1", "inbox")
        yield tx.send(src, imported, 1024)

    env.run(until=env.process(app()))
    env.run(until=env.now + 2_000_000)
    lossy_links = [l for l in cluster.fabric.links if l.errors_injected]
    assert lossy_links, "no link corrupted anything at error_rate=1.0"
    assert cluster.nodes[1].lcp.crc_drops >= 1
    # Dropped means dropped: the receive buffer never changed.
    assert bytes(inbox.read(0, 1024)) == b"\x00" * 1024


@pytest.mark.parametrize("campaign, params", [
    ("lossy-link", {}),
    ("chaos", {"scenario": "error-burst"}),
])
def test_every_verdict_of_a_lossy_run_is_the_full_recompute(
        monkeypatch, campaign, params):
    """Each received packet's syndrome verdict is held to ``crc8`` over
    the bytes it carries against the CRC sealed, XOR any flips of the
    CRC field — tracked here, apart from the packet."""
    wire_crc, verdicts, flips = {}, [], []
    real_seal, real_flip = MyrinetPacket.seal, MyrinetPacket.flip
    real_check = MyrinetPacket.crc_ok

    def carried(packet):
        return crc8(packet.payload, initial=crc8(packet.image))

    def seal(packet):
        real_seal(packet)
        wire_crc[packet] = carried(packet)

    def flip(packet, bit):
        flips.append(bit)
        if packet in wire_crc and bit >= 8 * (len(packet.image)
                                              + packet.payload_bytes):
            wire_crc[packet] ^= 1 << bit % 8
        real_flip(packet, bit)

    def crc_ok(packet):
        verdict = real_check(packet)
        verdicts.append((verdict, wire_crc[packet] == carried(packet)))
        return verdict

    for name, wrapper in (("seal", seal), ("flip", flip), ("crc_ok", crc_ok)):
        monkeypatch.setattr(MyrinetPacket, name, wrapper)
    spec = get_campaign(campaign)
    report = spec.trial({**spec.fixed, **params}, 0)
    assert all(report["gates"].values())
    assert [got for got, _ in verdicts] == [want for _, want in verdicts]
    drops = sum(v for k, v in report["metrics"].items() if "crc_drops" in k)
    assert flips and drops > 0 and verdicts.count((False, False)) >= drops
