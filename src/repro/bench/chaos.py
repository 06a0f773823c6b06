"""Chaos/reliability measurement drivers (extension beyond the paper).

The experiment the paper could not run: sweep the per-packet link error
rate and compare **baseline VMMC** (section 4.2: CRC errors detected,
counted, dropped — never recovered) against the
:mod:`repro.vmmc.reliable` retransmission layer, on identical simulated
hardware.  The other drivers run reliable traffic *under one seeded
fault campaign* (error bursts, daemon cold crashes, or overlapping
bursts and LANai stalls) to demonstrate that chaos here is
deterministic: same seed, same drops, same retransmit counts, byte for
byte.  Every campaign is started the moment the channel is up, so each
fault fires at workload start + its offset.

Used by the ``chaos`` and ``lossy-link`` campaigns
(:mod:`repro.campaign.trials`; ``python -m repro chaos`` is an alias of
the former).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.cluster import Cluster, TestbedConfig
from repro.hw.myrinet.link import LinkParams
from repro.faults import (DAEMON_COLD_CRASH, FaultCampaign, FaultEvent,
                          FaultInjector, FaultStats, LANAI_STALL,
                          LINK_ERROR_BURST)
from repro.vmmc.reliable import HEADER_BYTES, open_channel

#: Settle time after the last send before the delivered count is read:
#: generous enough for any in-flight DMA/ACK to land.
DRAIN_NS = 5_000_000


def _pattern(index: int, size: int) -> bytes:
    """Deterministic, per-message payload (detects corruption *and*
    cross-message misdelivery)."""
    return bytes((index * 7 + j * 13 + 5) % 256 for j in range(size))


@dataclass(frozen=True)
class ChaosPoint:
    """One (error rate, protocol) cell of the chaos sweep."""

    error_rate: float
    mode: str                 # "baseline" or "reliable"
    messages: int
    size: int
    delivered_intact: int
    crc_drops: int
    retransmits: int
    acks_resent: int
    duplicates_suppressed: int
    send_failures: int
    elapsed_ns: int

    @property
    def goodput_mbps(self) -> float:
        """Intact payload bytes per second of simulated time, in MB/s."""
        if self.elapsed_ns <= 0:
            return 0.0
        return (self.delivered_intact * self.size) / (self.elapsed_ns / 1e3)


def _two_node_cluster(error_rate: float) -> Cluster:
    return Cluster.build(TestbedConfig(
        nnodes=2, memory_mb=32,
        link=LinkParams(error_rate=error_rate)))


def run_baseline_point(error_rate: float, messages: int = 100,
                       size: int = 1024) -> ChaosPoint:
    """Plain VMMC sends over a lossy fabric: whatever the CRC kills is
    gone; the receiver's buffer simply never changes."""
    cluster = _two_node_cluster(error_rate)
    env = cluster.env
    _, ep_tx = cluster.nodes[0].attach_process("chaos_tx")
    _, ep_rx = cluster.nodes[1].attach_process("chaos_rx")
    inbox = ep_rx.alloc_buffer(messages * size)
    inbox.fill(0)
    src = ep_tx.alloc_buffer(size)
    result: dict[str, int] = {}

    def app():
        yield ep_rx.export(inbox, "chaos_inbox")
        imported = yield ep_tx.import_buffer("node1", "chaos_inbox")
        start = env.now
        for i in range(messages):
            src.write(_pattern(i, size))
            yield ep_tx.send(src, imported, size, dest_offset=i * size)
        result["elapsed"] = env.now - start

    done = env.process(app())
    env.run(until=done)
    # Let in-flight DMAs land before auditing the receive buffer; the
    # drain window is *not* charged to goodput (a real receiver has no
    # way to know when the stream ended — that is the point).
    env.run(until=env.now + DRAIN_NS)

    intact = sum(
        1 for i in range(messages)
        if inbox.read(i * size, size).tobytes() == _pattern(i, size))
    return ChaosPoint(
        error_rate=error_rate, mode="baseline", messages=messages,
        size=size, delivered_intact=intact,
        crc_drops=cluster.nodes[1].lcp.crc_drops,
        retransmits=0, acks_resent=0, duplicates_suppressed=0,
        send_failures=0, elapsed_ns=result["elapsed"])


def _attach_probe(tx) -> dict:
    """Wrap the sender's state mutators to record invariant evidence:
    the RTO's observed min/max, the congestion-window peak, and the
    in-flight peak.  Purely observational — the wrapped calls delegate to
    the originals, so the run's behaviour is unchanged."""
    probe = dict(rto_min=tx.rto_ns, rto_max=tx.rto_ns,
                 cwnd_peak=tx.cwnd, inflight_peak=tx.inflight,
                 min_rto_ns=tx.timeout_ns, max_timeout_ns=tx.max_timeout_ns,
                 nslots=tx.nslots)

    def record() -> None:
        probe["rto_min"] = min(probe["rto_min"], tx.rto_ns)
        probe["rto_max"] = max(probe["rto_max"], tx.rto_ns)
        probe["cwnd_peak"] = max(probe["cwnd_peak"], tx.cwnd)
        probe["inflight_peak"] = max(probe["inflight_peak"], tx.inflight)

    def wrap(mutator):
        def wrapped(*args, **kwargs) -> None:
            mutator(*args, **kwargs)
            record()
        return wrapped

    for name in ("_set_rto", "_set_cwnd", "_set_inflight"):
        setattr(tx, name, wrap(getattr(tx, name)))
    return probe


def _reliable_transfer(error_rate: float, messages: int, size: int,
                       campaign: Optional[FaultCampaign] = None):
    """The one reliable-transfer experiment behind every driver below:
    build the 2-node cluster, open the channel, start the campaign,
    issue ``messages`` patterned payloads up front (the AIMD window
    pipelines them), drain, audit.

    ``campaign`` is started the moment the channel is up, before the
    workload clock starts (its event offsets count from there), and
    awaited after the last delivery and before the drain.  Returns
    ``(point, evidence, tx, rx, cluster, fault_stats)``: ``evidence`` is
    the invariant probe plus both ends' raw stat dicts (what
    :func:`check_trial_invariants` reads), ``fault_stats`` the campaign's
    :class:`FaultStats` (None without a campaign)."""
    cluster = _two_node_cluster(error_rate)
    env = cluster.env
    _, ep_tx = cluster.nodes[0].attach_process("chaos_tx")
    _, ep_rx = cluster.nodes[1].attach_process("chaos_rx")
    tx, rx = env.run(until=open_channel(
        ep_tx, ep_rx, "chaos", slot_bytes=HEADER_BYTES + size))
    probe = _attach_probe(tx)
    faults_done = (None if campaign is None else
                   FaultInjector(cluster).run(campaign))

    def receiver():
        got = []
        for _ in range(messages):
            got.append((yield rx.recv()))
        end = env.now
        # Stay posted: if the final ACK is lost, only a live recv() can
        # re-ACK the sender's retransmission of the last message.
        rx.recv()
        return got, end

    def sender():
        sends = [tx.send(_pattern(i, size)) for i in range(messages)]
        for proc in sends:
            yield proc

    start = env.now
    rx_proc = env.process(receiver())
    env.process(sender())
    got, end = env.run(until=rx_proc)
    fault_stats = None if faults_done is None else env.run(until=faults_done)
    env.run(until=env.now + DRAIN_NS)

    point = ChaosPoint(
        error_rate=error_rate, mode="reliable",
        messages=messages, size=size,
        delivered_intact=sum(1 for i, g in enumerate(got)
                             if g == _pattern(i, size)),
        crc_drops=(cluster.nodes[0].lcp.crc_drops
                   + cluster.nodes[1].lcp.crc_drops),
        retransmits=tx.stats.retransmits,
        acks_resent=rx.stats.acks_resent,
        duplicates_suppressed=rx.stats.duplicates_suppressed,
        send_failures=tx.stats.send_failures,
        elapsed_ns=end - start)
    evidence = {"probe": probe, "tx_stats": tx.stats.as_dict(),
                "rx_stats": rx.stats.as_dict()}
    return point, evidence, tx, rx, cluster, fault_stats


def run_reliable_point(error_rate: float, messages: int = 100,
                       size: int = 1024) -> ChaosPoint:
    """Reliable-VMMC transfer over the same lossy fabric."""
    return _reliable_transfer(error_rate, messages, size)[0]


def burst_campaign(cluster_links: list[str], seed: int,
                   nbursts: int = 3, rate: float = 0.4,
                   burst_ns: int = 300_000) -> FaultCampaign:
    """The canonical chaos-bench campaign: clustered error bursts on the
    data path, deterministically placed by ``seed``."""
    return FaultCampaign.random_link_bursts(
        cluster_links, seed=seed, nbursts=nbursts, rate=rate,
        start_ns=20_000, window_ns=3_000_000, burst_ns=burst_ns,
        name=f"bursts.seed{seed}")


def data_path_links() -> list[str]:
    """Link names on the node0→node1 data path of the 2-node testbed
    (data packets and ACKs traverse these)."""
    return ["node0->sw0", "sw0->node1", "node1->sw0", "sw0->node0"]


def _campaign_trial(build_campaign, seed: int, messages: int,
                    size: int) -> dict:
    """Reliable traffic on a clean fabric under ``build_campaign(seed)``.
    Returns a deterministic, JSON-serialisable report — two calls with
    the same arguments must produce *identical* reports (the ``chaos``
    campaign keeps it as its cells' evidence, so the committed cell
    fingerprints pin it)."""
    point, evidence, _, _, _, fault_stats = _reliable_transfer(
        0.0, messages, size, build_campaign(seed))
    return {
        "seed": seed,
        "messages": messages,
        "size": size,
        "delivered_intact": point.delivered_intact,
        "crc_drops": point.crc_drops,
        "retransmits": point.retransmits,
        "duplicates_suppressed": point.duplicates_suppressed,
        "send_failures": point.send_failures,
        "elapsed_ns": point.elapsed_ns,
        "goodput_mbps": round(point.goodput_mbps, 6),
        **evidence,
        "fault_stats": fault_stats.as_dict(),
    }


def run_error_burst_trial(seed: int, messages: int = 60,
                          size: int = 1024) -> dict:
    """One error-burst run: seeded bursts on the data path."""
    return _campaign_trial(
        lambda s: burst_campaign(data_path_links(), seed=s),
        seed, messages, size)


def check_trial_invariants(report: dict) -> list[str]:
    """Protocol invariants a trial report (its delivery counts plus the
    ``evidence`` of :func:`_reliable_transfer`) must satisfy; returns
    human-readable violation strings (empty == pass).  Mirrors the
    property harness in ``tests/test_reliable_properties.py`` so the
    ``chaos`` campaign and the test suite enforce the same contract."""
    tx, probe = report["tx_stats"], report["probe"]
    karn = tx["rtt_samples"] + tx["retransmitted_deliveries"]
    checks = (
        (report["delivered_intact"] == report["messages"],
         f"delivery: {report['delivered_intact']}/{report['messages']} "
         f"payloads intact"),
        (not report["send_failures"],
         f"delivery: {report['send_failures']} send failures"),
        (probe["rto_min"] >= probe["min_rto_ns"],
         f"rto: observed min {probe['rto_min']} below floor "
         f"{probe['min_rto_ns']}"),
        (probe["rto_max"] <= probe["max_timeout_ns"],
         f"rto: observed max {probe['rto_max']} above ceiling "
         f"{probe['max_timeout_ns']}"),
        (probe["cwnd_peak"] <= probe["nslots"],
         f"cwnd: peak {probe['cwnd_peak']} exceeds ring of "
         f"{probe['nslots']} slots"),
        (probe["inflight_peak"] <= probe["nslots"],
         f"inflight: peak {probe['inflight_peak']} exceeds ring of "
         f"{probe['nslots']} slots"),
        (karn == tx["messages_delivered"],
         f"karn: rtt_samples {tx['rtt_samples']} + retransmitted "
         f"deliveries {tx['retransmitted_deliveries']} != "
         f"{tx['messages_delivered']} delivered"),
    )
    return [violation for holds, violation in checks if not holds]


# -- composed faults ----------------------------------------------------------
def default_multi_campaigns(seed: int) -> FaultCampaign:
    """The canonical composed-chaos campaign: the bursts of two seeds,
    two *guaranteed-overlapping* bursts on one data-path link
    (exercising the error-rate stack) and a LANai stall on each node,
    all in one schedule.  Deterministic per ``seed``."""
    links = data_path_links()
    return FaultCampaign.of(f"multi.seed{seed}", [
        *burst_campaign(links, seed=seed),
        *burst_campaign(links, seed=seed + 1),
        FaultEvent(at_ns=100_000, kind=LINK_ERROR_BURST,
                   target="sw0->node1", duration_ns=300_000,
                   params={"rate": 0.5}),
        FaultEvent(at_ns=250_000, kind=LINK_ERROR_BURST,
                   target="sw0->node1", duration_ns=300_000,
                   params={"rate": 0.3}),
        FaultEvent(at_ns=500_000, kind=LANAI_STALL, target="node1",
                   duration_ns=120_000),
        FaultEvent(at_ns=1_500_000, kind=LANAI_STALL, target="node0",
                   duration_ns=120_000)], seed=seed)


def run_multi_campaign_trial(seed: int, messages: int = 60,
                             size: int = 1024) -> dict:
    """Reliable traffic under :func:`default_multi_campaigns`: the
    composed-faults fixture, whose overlapping faults stack in the
    hardware hooks."""
    return _campaign_trial(default_multi_campaigns, seed, messages, size)


def cold_crash_campaign(seed: int, gap_ns: int = 4_000_000) -> FaultCampaign:
    """Cold daemon crashes for the recovery protocol: first the
    *receiver's* daemon (node1 — the sender's ring import goes stale),
    then the *sender's* (node0 — the receiver's ACK import goes stale),
    in disjoint windows so the cluster never loses both daemons at once.
    Crash times and dead windows are drawn deterministically from
    ``seed``."""
    rng = np.random.default_rng(seed)
    events = []
    for i, node in enumerate(("node1", "node0")):
        at = i * gap_ns + int(rng.integers(100_000, 1_500_000))
        dead_ns = int(rng.integers(300_000, 800_000))
        events.append(FaultEvent(at_ns=at, kind=DAEMON_COLD_CRASH,
                                 target=node, duration_ns=dead_ns))
    return FaultCampaign.of(f"cold_crash.seed{seed}", events, seed=seed)


def run_cold_crash_point(seed: int, messages: int = 200, size: int = 1024
                         ) -> tuple[ChaosPoint, FaultStats, dict]:
    """Reliable transfer while both daemons cold-crash mid-stream.

    The acceptance experiment for the import-lifecycle redesign: every
    payload must arrive intact exactly once (the reliable layer reimports
    stale destinations transparently), and no write may land through a
    dead mapping (``stale_writes_blocked`` counts the incoming page
    table's refusals).  Returns ``(point, fault_stats, recovery)`` where
    ``recovery`` aggregates the protocol's counters plus the transfer's
    invariant evidence — identical across reruns of the same seed."""
    point, evidence, tx, rx, cluster, fault_stats = _reliable_transfer(
        0.0, messages, size, cold_crash_campaign(seed))
    daemons = [node.daemon for node in cluster.nodes]
    recovery = {
        "cold_restarts": sum(d.cold_restarts for d in daemons),
        "invalidations_rx": sum(d.invalidations_rx for d in daemons),
        "imports_invalidated": sum(d.imports_invalidated for d in daemons),
        "exports_reestablished":
            sum(d.exports_reestablished for d in daemons),
        "reimports": tx.stats.reimports + rx.stats.reimports,
        "stale_transmits":
            tx.stats.stale_transmits + rx.stats.stale_transmits,
        "stale_sends_blocked":
            tx.ep.stale_sends_blocked + rx.ep.stale_sends_blocked,
        "stale_writes_blocked":
            sum(node.lcp.protection_violations for node in cluster.nodes),
        **evidence,
    }
    return point, fault_stats, recovery
