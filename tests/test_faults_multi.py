"""Concurrent multi-campaign fault injection.

The acceptance suite for the orchestration layer: several seeded
campaigns driven concurrently on one cluster with overlapping
same-target faults (no early clears), merged :class:`FaultStats`
bit-identical across same-seed re-runs, per-campaign stats equal to
solo runs when targets are disjoint, and a conflict guard that fires
deterministically on semantically incompatible raises.
"""

import json

import pytest

from repro import Cluster, TestbedConfig
from repro.faults import (
    CampaignConflictError,
    CampaignSet,
    DAEMON_COLD_CRASH,
    DAEMON_CRASH,
    FaultCampaign,
    FaultEvent,
    FaultInjector,
    FaultStats,
    LINK_DOWN,
    LINK_ERROR_BURST,
    union_ns,
)


def small_cluster(**overrides):
    return Cluster.build(TestbedConfig(nnodes=2, memory_mb=8, **overrides))


# ------------------------------------------------------------ union_ns
def test_union_ns_counts_overlaps_once():
    assert union_ns([]) == 0
    assert union_ns([(0, 10)]) == 10
    assert union_ns([(0, 10), (20, 30)]) == 20
    assert union_ns([(0, 10), (5, 15)]) == 15          # overlap
    assert union_ns([(0, 20), (5, 10)]) == 20          # nested
    assert union_ns([(0, 10), (10, 20)]) == 20         # touching, half-open
    assert union_ns([(5, 15), (0, 10), (12, 13)]) == 15  # unsorted input


# ------------------------------------------------------- FaultStats.merge
def _stats(name, seed, intervals_by_target, by_kind, log):
    s = FaultStats(campaign=name, seed=seed)
    s.by_kind = dict(by_kind)
    s.intervals_by_target = {t: list(v)
                             for t, v in intervals_by_target.items()}
    s.fault_ns_by_target = {
        t: sum(e - b for b, e in v) for t, v in intervals_by_target.items()}
    s.faults_raised = sum(by_kind.values())
    s.faults_cleared = s.faults_raised
    s.log = list(log)
    return s


def test_merge_unions_intervals_and_reports_overlap():
    a = _stats("a", 1, {"sw0->node1": [(0, 100)]},
               {LINK_DOWN: 1}, [(LINK_DOWN, "sw0->node1", 0)])
    b = _stats("b", 2, {"sw0->node1": [(50, 150)], "node0->sw0": [(10, 20)]},
               {LINK_DOWN: 1, LINK_ERROR_BURST: 1},
               [(LINK_DOWN, "sw0->node1", 50),
                (LINK_ERROR_BURST, "node0->sw0", 10)])
    merged = FaultStats.merge([b, a])   # order-insensitive
    assert [s.campaign for s in merged.campaigns] == ["a", "b"]
    assert merged.faults_raised == 3
    assert merged.by_kind == {LINK_DOWN: 2, LINK_ERROR_BURST: 1}
    # [0,100) ∪ [50,150) = 150 ns, of which [50,100) was double-covered.
    assert merged.fault_ns_by_target["sw0->node1"] == 150
    assert merged.overlap_ns_by_target["sw0->node1"] == 50
    assert merged.fault_ns_by_target["node0->sw0"] == 10
    assert merged.overlap_ns_by_target["node0->sw0"] == 0
    # Canonical timeline, sorted by raise time.
    assert merged.log == [(0, "a", LINK_DOWN, "sw0->node1"),
                          (10, "b", LINK_ERROR_BURST, "node0->sw0"),
                          (50, "b", LINK_DOWN, "sw0->node1")]
    assert merged.stats_for("b") is merged.campaigns[1]
    with pytest.raises(KeyError):
        merged.stats_for("nope")


def test_merge_rejects_duplicate_campaign_names():
    a1 = _stats("a", 1, {}, {}, [])
    a2 = _stats("a", 2, {}, {}, [])
    with pytest.raises(ValueError, match="duplicate campaign names"):
        FaultStats.merge([a1, a2])


# ------------------------------------------------------------ CampaignSet
def _crash(name, seed, kind, at_ns, duration_ns, node="node1"):
    return FaultCampaign.of(name, [
        FaultEvent(at_ns=at_ns, kind=kind, target=node,
                   duration_ns=duration_ns)], seed=seed)


def test_campaign_set_validates_names():
    a = _crash("a", 1, DAEMON_CRASH, 0, 100)
    with pytest.raises(ValueError, match="unique"):
        CampaignSet.of([a, _crash("a", 2, DAEMON_CRASH, 500, 100)])
    with pytest.raises(ValueError, match="empty campaign set"):
        CampaignSet.of([])


def test_conflict_guard_serializes_deterministically():
    """A cold crash overlapping a warm crash on one node is shifted to
    1 ns past the winner's clear — and the decision is pure schedule
    arithmetic, identical on every resolve()."""
    warm = _crash("a-warm", 1, DAEMON_CRASH, 1_000, 2_000)     # [1000,3000)
    cold = _crash("b-cold", 2, DAEMON_COLD_CRASH, 2_000, 2_000)
    cset = CampaignSet.of([cold, warm])      # canonical order: a-warm first
    plan, conflicts = cset.resolve()
    assert len(conflicts) == 1
    c = conflicts[0]
    assert (c.campaign, c.kind, c.at_ns) == ("b-cold", DAEMON_COLD_CRASH,
                                             2_000)
    assert (c.blocking_campaign, c.blocking_kind) == ("a-warm", DAEMON_CRASH)
    assert c.action == "serialized"
    assert c.resolved_at_ns == 3_001         # winner clears at 3000
    shifted = plan[[p.name for p in plan].index("b-cold")]
    assert shifted.events[0].at_ns == 3_001
    # The winner is untouched.
    untouched = plan[[p.name for p in plan].index("a-warm")]
    assert untouched == warm
    # Deterministic: resolving again yields the identical plan.
    plan2, conflicts2 = cset.resolve()
    assert plan2 == plan
    assert conflicts2 == conflicts


def test_permanent_incompatible_overlap_always_rejected():
    """Nothing serializes after a permanent crash — the one overlap the
    guard rejects."""
    perm = _crash("a-perm", 1, DAEMON_CRASH, 1_000, None)
    cold = _crash("b-cold", 2, DAEMON_COLD_CRASH, 5_000, 1_000)
    with pytest.raises(CampaignConflictError, match="rejected"):
        CampaignSet.of([perm, cold]).resolve()


def test_same_kind_crashes_compose_without_conflict():
    """Two warm crashes on one node nest in the daemon hook — the guard
    only fires on *incompatible* kinds."""
    a = _crash("a", 1, DAEMON_CRASH, 1_000, 2_000)
    b = _crash("b", 2, DAEMON_CRASH, 2_000, 2_000)
    plan, conflicts = CampaignSet.of([a, b]).resolve()
    assert conflicts == []
    assert plan == (a, b)


def test_incompatible_on_different_nodes_is_fine():
    a = _crash("a", 1, DAEMON_CRASH, 1_000, 2_000, node="node0")
    b = _crash("b", 2, DAEMON_COLD_CRASH, 1_000, 2_000, node="node1")
    plan, conflicts = CampaignSet.of([a, b]).resolve()
    assert conflicts == []
    assert plan == (a, b)


# --------------------------------------------- concurrent end-to-end runs
def test_concurrent_campaigns_overlapping_link_down_no_early_clear():
    """Two campaigns hold one link down in overlapping windows: the link
    must stay down until the *last* clear, and the merged stats charge
    the union once."""
    cluster = small_cluster()
    env = cluster.env
    t0 = env.now
    link = cluster.fabric.find_link("sw0->node1")
    a = FaultCampaign.of("a", [
        FaultEvent(at_ns=1_000, kind=LINK_DOWN, target="sw0->node1",
                   duration_ns=4_000)], seed=1).shifted(t0)   # [1000, 5000)
    b = FaultCampaign.of("b", [
        FaultEvent(at_ns=3_000, kind=LINK_DOWN, target="sw0->node1",
                   duration_ns=5_000)], seed=2).shifted(t0)   # [3000, 8000)
    injector = FaultInjector(cluster)
    done = injector.run_all([a, b])
    env.run(until=t0 + 4_000)
    assert not link.is_up and link.down_depth == 2            # both hold
    env.run(until=t0 + 6_000)
    assert not link.is_up and link.down_depth == 1            # a cleared —
    env.run(until=t0 + 9_000)                                 # no early up
    assert link.is_up and link.down_depth == 0                # last clear
    merged = env.run(until=done)
    assert merged is injector.merged_stats
    # Union [1000,8000) = 7000 ns charged once; [3000,5000) deduplicated.
    assert merged.fault_ns_by_target["sw0->node1"] == 7_000
    assert merged.overlap_ns_by_target["sw0->node1"] == 2_000
    # Per-campaign stats survive, uncorrupted, in the injector.
    assert injector.stats_by_campaign["a"].fault_ns_by_target == {
        "sw0->node1": 4_000}
    assert injector.stats_by_campaign["b"].fault_ns_by_target == {
        "sw0->node1": 5_000}
    assert injector.stats_by_campaign["a"].campaign == "a"


def test_disjoint_targets_match_solo_runs():
    """With disjoint targets, each campaign's stats from a concurrent
    run equal its stats from a solo run on a fresh cluster."""
    def campaigns(t0):
        a = FaultCampaign.of("bursts", [
            FaultEvent(at_ns=1_000, kind=LINK_ERROR_BURST,
                       target="node0->sw0", duration_ns=2_000,
                       params={"rate": 0.4}),
            FaultEvent(at_ns=5_000, kind=LINK_ERROR_BURST,
                       target="node0->sw0", duration_ns=1_000,
                       params={"rate": 0.7})], seed=1).shifted(t0)
        b = FaultCampaign.of("flaps", [
            FaultEvent(at_ns=2_000, kind=LINK_DOWN, target="sw0->node1",
                       duration_ns=3_000)], seed=2).shifted(t0)
        return a, b

    together = small_cluster()
    a, b = campaigns(together.env.now)
    inj = FaultInjector(together)
    together.env.run(until=inj.run_all([a, b]))
    concurrent = {name: s.as_dict()
                  for name, s in inj.stats_by_campaign.items()}

    solo = {}
    for pick in (0, 1):
        cluster = small_cluster()
        campaign = campaigns(cluster.env.now)[pick]
        injector = FaultInjector(cluster)
        stats = cluster.env.run(until=injector.run(campaign))
        solo[campaign.name] = stats.as_dict()

    assert concurrent == solo


def test_run_all_accepts_iterable_and_rejects_bad_sets():
    cluster = small_cluster()
    injector = FaultInjector(cluster)
    warm = _crash("a-warm", 1, DAEMON_CRASH, 1_000, None)
    cold = _crash("b-cold", 2, DAEMON_COLD_CRASH, 2_000, 1_000)
    with pytest.raises(CampaignConflictError):
        injector.run_all([warm, cold])        # synchronous, nothing ran
    assert injector.stats_by_campaign == {}


def test_run_all_serialized_plan_drives_shifted_schedule():
    """End to end: an incompatible cold crash is shifted past the warm
    window, both recoveries happen, and the daemon ends healthy with one
    cold restart."""
    cluster = small_cluster()
    env = cluster.env
    t0 = env.now
    daemon = cluster.nodes[1].daemon
    warm = _crash("a-warm", 1, DAEMON_CRASH, 1_000, 2_000).shifted(t0)
    cold = _crash("b-cold", 2, DAEMON_COLD_CRASH, 2_000, 2_000).shifted(t0)
    merged = env.run(until=FaultInjector(cluster).run_all([cold, warm]))
    assert daemon.crash_depth == 0
    assert merged.faults_raised == 2
    assert merged.faults_cleared == 2
    # Serialized: cold ran [t0+3001, t0+5001) after warm [t0+1000, t0+3000).
    assert merged.log == [
        (t0 + 1_000, "a-warm", DAEMON_CRASH, "node1"),
        (t0 + 3_001, "b-cold", DAEMON_COLD_CRASH, "node1")]
    assert merged.fault_ns_by_target["node1"] == 4_000
    assert merged.overlap_ns_by_target["node1"] == 0


# ------------------------------------------------ determinism acceptance
def test_multi_campaign_trial_bit_identical_across_reruns():
    from repro.bench.chaos import run_multi_campaign_trial

    first = run_multi_campaign_trial(7, messages=24)
    second = run_multi_campaign_trial(7, messages=24)
    assert json.dumps(first, sort_keys=True) == \
        json.dumps(second, sort_keys=True)
    # The reliable layer still delivers exactly once under compound chaos.
    assert first["delivered_intact"] == 24
    assert first["send_failures"] == 0
    # The canonical set really overlaps: dedup removed >0 ns somewhere.
    assert sum(first["merged_fault_stats"]
               ["overlap_ns_by_target"].values()) > 0
