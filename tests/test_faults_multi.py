"""Composed fault injection.

Overlapping faults compose in the hardware and daemon hooks, not in the
schedule: a composed scenario is one campaign whose events overlap (or
several campaigns run side by side), and a target stays faulted until
its *last* clear.  Overlapping daemon crashes nest, and cold dominates
warm; a campaign's event times are offsets from ``FaultInjector.run()``,
so the chaos scenarios place every fault at workload start + its offset.
"""

import json

import pytest

from repro import Cluster, TestbedConfig
from repro.faults import (
    DAEMON_COLD_CRASH,
    DAEMON_CRASH,
    FaultCampaign,
    FaultEvent,
    FaultInjector,
    LINK_DOWN,
    LINK_ERROR_BURST,
)
from repro.obs.metrics import MetricsRegistry


def small_cluster(**overrides):
    return Cluster.build(TestbedConfig(nnodes=2, memory_mb=8, **overrides))


# ------------------------------------------------ daemon crashes, composed
def _crashes(*crashes):
    """One campaign of ``(kind, node, at_ns, duration_ns)`` crashes."""
    return FaultCampaign.of("crashes", [
        FaultEvent(at_ns=at_ns, kind=kind, target=node,
                   duration_ns=duration_ns)
        for kind, node, at_ns, duration_ns in crashes])


def _counter(registry, name, node):
    return registry.counter(name, node=node).value


@pytest.mark.parametrize("first, second", [
    (DAEMON_CRASH, DAEMON_COLD_CRASH),
    (DAEMON_COLD_CRASH, DAEMON_CRASH),
])
def test_warm_and_cold_crash_on_one_node_restart_once_cold(first, second):
    """A warm and a cold crash overlap on node1 in one campaign: the
    daemon stays down until the last clear, then restarts exactly once,
    and cold, whichever of the two clears last."""
    cluster = small_cluster()
    env = cluster.env
    registry = MetricsRegistry().install(env)
    t0 = env.now
    daemon = cluster.nodes[1].daemon
    epoch = daemon.epoch
    campaign = _crashes((first, "node1", 1_000, 2_000),        # [1000, 3000)
                        (second, "node1", 2_000, 2_000))       # [2000, 4000)
    done = FaultInjector(cluster).run(campaign)
    env.run(until=t0 + 2_500)
    assert daemon.crashed and daemon.crash_depth == 2
    env.run(until=t0 + 3_500)                   # first cleared: still down
    assert daemon.crashed and daemon.crash_depth == 1
    assert _counter(registry, "daemon.restarts", "node1") == 0
    stats = env.run(until=done)                 # last clear at t0 + 4000
    assert not daemon.crashed and daemon.crash_depth == 0
    assert _counter(registry, "daemon.restarts_deferred", "node1") == 1
    assert _counter(registry, "daemon.restarts", "node1") == 1
    assert _counter(registry, "daemon.cold_restarts", "node1") == 1
    assert daemon.cold_restarts == 1 and daemon.epoch == epoch + 1
    assert stats.log == [(first, "node1", t0 + 1_000),
                         (second, "node1", t0 + 2_000)]
    # Each raise is charged its own span: the overlap counts twice.
    assert stats.fault_ns_by_target == {"node1": 4_000}


def test_permanent_crash_holds_the_daemon_past_an_overlapping_cold_crash():
    """A cold crash inside a permanent warm crash's window never brings
    the daemon back: its clear is deferred, and nothing clears the
    permanent one."""
    cluster = small_cluster()
    env = cluster.env
    t0 = env.now
    daemon = cluster.nodes[1].daemon
    campaign = _crashes((DAEMON_CRASH, "node1", 1_000, None),
                        (DAEMON_COLD_CRASH, "node1", 5_000, 1_000))
    stats = env.run(until=FaultInjector(cluster).run(campaign))
    env.run(until=t0 + 10_000)
    assert daemon.crashed and daemon.crash_depth == 1
    assert daemon.cold_restarts == 0
    assert stats.faults_raised == 2 and stats.faults_cleared == 1
    assert stats.open_faults == 1


def test_same_kind_crashes_compose_without_conflict():
    """Two warm crashes overlapping on one node nest: one warm restart,
    at the last clear."""
    cluster = small_cluster()
    env = cluster.env
    registry = MetricsRegistry().install(env)
    t0 = env.now
    daemon = cluster.nodes[1].daemon
    epoch = daemon.epoch
    campaign = _crashes((DAEMON_CRASH, "node1", 1_000, 2_000),
                        (DAEMON_CRASH, "node1", 2_000, 2_000))
    done = FaultInjector(cluster).run(campaign)
    env.run(until=t0 + 3_500)
    assert daemon.crashed and daemon.crash_depth == 1
    env.run(until=done)
    assert not daemon.crashed
    assert _counter(registry, "daemon.restarts_deferred", "node1") == 1
    assert _counter(registry, "daemon.restarts", "node1") == 1
    assert daemon.cold_restarts == 0 and daemon.epoch == epoch


def test_incompatible_on_different_nodes_is_fine():
    """A warm crash on node0 and a cold crash on node1, overlapping in
    time: each daemon restarts at its own clear, in its own way."""
    cluster = small_cluster()
    env = cluster.env
    registry = MetricsRegistry().install(env)
    t0 = env.now
    warm, cold = cluster.nodes[0].daemon, cluster.nodes[1].daemon
    campaign = _crashes((DAEMON_CRASH, "node0", 1_000, 2_000),
                        (DAEMON_COLD_CRASH, "node1", 2_000, 2_000))
    done = FaultInjector(cluster).run(campaign)
    env.run(until=t0 + 3_500)
    assert not warm.crashed and cold.crashed
    env.run(until=done)
    assert not cold.crashed
    assert (warm.cold_restarts, cold.cold_restarts) == (0, 1)
    for node in ("node0", "node1"):
        assert _counter(registry, "daemon.restarts", node) == 1
        assert _counter(registry, "daemon.restarts_deferred", node) == 0


# --------------------------------------------- campaigns run side by side
def test_concurrent_campaigns_overlapping_link_down_no_early_clear():
    """Two campaigns hold one link down in overlapping windows: the link
    must stay down until the *last* clear, and each campaign's stats
    charge its own window."""
    cluster = small_cluster()
    env = cluster.env
    t0 = env.now
    link = cluster.fabric.find_link("sw0->node1")
    a = FaultCampaign.of("a", [
        FaultEvent(at_ns=1_000, kind=LINK_DOWN, target="sw0->node1",
                   duration_ns=4_000)], seed=1)   # [1000, 5000)
    b = FaultCampaign.of("b", [
        FaultEvent(at_ns=3_000, kind=LINK_DOWN, target="sw0->node1",
                   duration_ns=5_000)], seed=2)   # [3000, 8000)
    injector = FaultInjector(cluster)
    done_a, done_b = injector.run(a), injector.run(b)
    env.run(until=t0 + 4_000)
    assert not link.is_up and link.down_depth == 2            # both hold
    env.run(until=t0 + 6_000)
    assert not link.is_up and link.down_depth == 1            # a cleared —
    env.run(until=t0 + 9_000)                                 # no early up
    assert link.is_up and link.down_depth == 0                # last clear
    assert done_a.value.campaign == "a"
    assert done_a.value.fault_ns_by_target == {"sw0->node1": 4_000}
    assert done_b.value.fault_ns_by_target == {"sw0->node1": 5_000}


def test_disjoint_targets_match_solo_runs():
    """With disjoint targets, each campaign's stats from a side-by-side
    run equal its stats from a solo run on a fresh cluster."""
    def campaigns():
        a = FaultCampaign.of("bursts", [
            FaultEvent(at_ns=1_000, kind=LINK_ERROR_BURST,
                       target="node0->sw0", duration_ns=2_000,
                       params={"rate": 0.4}),
            FaultEvent(at_ns=5_000, kind=LINK_ERROR_BURST,
                       target="node0->sw0", duration_ns=1_000,
                       params={"rate": 0.7})], seed=1)
        b = FaultCampaign.of("flaps", [
            FaultEvent(at_ns=2_000, kind=LINK_DOWN, target="sw0->node1",
                       duration_ns=3_000)], seed=2)
        return a, b

    together = small_cluster()
    inj = FaultInjector(together)
    procs = [inj.run(c) for c in campaigns()]
    concurrent = {}
    for proc in procs:
        stats = together.env.run(until=proc)
        concurrent[stats.campaign] = stats.as_dict()

    solo = {}
    for pick in (0, 1):
        cluster = small_cluster()
        campaign = campaigns()[pick]
        injector = FaultInjector(cluster)
        stats = cluster.env.run(until=injector.run(campaign))
        solo[campaign.name] = stats.as_dict()

    assert concurrent == solo


# ------------------------------------------------------- chaos scenarios
def test_multi_campaign_trial_bit_identical_across_reruns():
    from repro.bench.chaos import run_multi_campaign_trial

    first = run_multi_campaign_trial(7, messages=24)
    second = run_multi_campaign_trial(7, messages=24)
    assert json.dumps(first, sort_keys=True) == \
        json.dumps(second, sort_keys=True)
    # The reliable layer still delivers exactly once under compound chaos.
    assert first["delivered_intact"] == 24
    assert first["send_failures"] == 0
    # The canonical campaign really overlaps: two faults held sw0->node1
    # at once.
    spans = sorted(first["fault_stats"]["intervals_by_target"]["sw0->node1"])
    assert any(later[0] < earlier[1]
               for earlier, later in zip(spans, spans[1:]))


def test_chaos_faults_fire_at_workload_start_plus_authored_offset():
    """Every chaos scenario starts its campaign the moment the channel is
    up: each raise lands at that one start + its offset.  (Error bursts
    drawn before the channel opened used to fire together the moment it
    did.)"""
    from repro.bench import chaos

    scenarios = (
        (chaos.run_error_burst_trial(0, messages=8),
         chaos.burst_campaign(chaos.data_path_links(), seed=0)),
        (chaos.run_multi_campaign_trial(0, messages=8),
         chaos.default_multi_campaigns(0)),
    )
    starts = set()
    for report, campaign in scenarios:
        raised = sorted(at for _kind, _target, at
                        in report["fault_stats"]["log"])
        authored = sorted(event.at_ns for event in campaign)
        start = raised[0] - authored[0]
        assert raised == [at + start for at in authored]
        starts.add(start)
    _, cold_stats, _ = chaos.run_cold_crash_point(0, messages=8)
    cold = chaos.cold_crash_campaign(0)
    start = cold_stats.log[0][2] - cold.events[0].at_ns
    assert [at for _, _, at in cold_stats.log] == \
        [event.at_ns + start for event in cold]
    starts.add(start)
    assert len(starts) == 1 and starts.pop() > 0
