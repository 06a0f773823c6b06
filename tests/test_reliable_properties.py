"""Property-based fault-schedule harness for the reliable layer.

The whole stack is a deterministic discrete-event simulation, so the
right acceptance test for congestion control is *behavioural*: generate
seeded fault schedules (loss bursts, CRC corruption, dropped ACKs, a
daemon cold crash mid-stream), sweep them across ring/window geometries,
and assert the protocol invariants hold on **every** run:

1. **Exactly-once in-order delivery** — the receiver applies precisely
   the sent payload sequence, byte-exact, no duplicates, no holes.
2. **RTO bounds** — ``rto_ns`` stays within
   ``[timeout_ns, max_timeout_ns]`` at *every* assignment (the sole
   mutator is wrapped, so a transient violation cannot hide).
3. **Window bounds** — ``cwnd`` and the in-flight count never exceed
   the slot ring (a violation would let a live slot be overwritten).
4. **Karn's rule** — no RTT sample is ever taken from a sequence that
   was retransmitted (the estimator mutators are wrapped and
   cross-checked against the timeout log), and the structural identity
   ``rtt_samples + retransmitted_deliveries == messages_delivered``
   holds.
5. **Determinism** — re-running the same seed yields byte-identical
   ``ReliableStats`` on both ends, the same fault stats, and the same
   end-of-stream timestamp.

The schedule is started the moment the channel is up, so every fault
lands at that moment + its authored offset (checked on every run).  The
sender offers one message every ``SEND_GAP_NS``, so the 16–20 message
stream spans the schedule's 20 µs–2.5 ms window and the faults land
mid-stream.

The schedule *generator* uses ``numpy``'s seeded Generator (test-side
only); the protocol itself is RNG-free, which is exactly why (5) can be
asserted.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.cluster import Cluster, TestbedConfig
from repro.faults import (
    DAEMON_COLD_CRASH,
    FaultCampaign,
    FaultEvent,
    FaultInjector,
    LINK_ERROR_BURST,
)
from repro.vmmc.reliable import HEADER_BYTES, open_channel

#: The node0->node1 data path; the last two carry ACKs, so bursts there
#: are the "dropped ACK" case.
DATA_PATH_LINKS = ["node0->sw0", "sw0->node1", "node1->sw0", "sw0->node0"]

#: Ring/window geometries the sweep cycles through (selected by seed).
GEOMETRIES = [
    {"nslots": 2, "slot_bytes": HEADER_BYTES + 256},
    {"nslots": 3, "slot_bytes": HEADER_BYTES + 256},
    {"nslots": 4, "slot_bytes": HEADER_BYTES + 256},
    {"nslots": 8, "slot_bytes": HEADER_BYTES + 256},
]

SEEDS = range(56)          # >= 50-seed sweep (acceptance floor)
PAYLOAD = 200
DRAIN_NS = 5_000_000
#: Open-loop gap between the sender's messages.
SEND_GAP_NS = 150_000


def _pattern(index: int) -> bytes:
    return bytes((index * 11 + j * 7 + 3) % 256 for j in range(PAYLOAD))


def build_schedule(seed: int) -> FaultCampaign:
    """Seeded fault schedule: 1–3 error bursts (full corruption = loss
    burst, partial = CRC corruption; ACK-path links = dropped ACKs) and,
    on every fourth seed, a daemon cold crash mid-stream."""
    rng = np.random.default_rng(seed)
    events = []
    for _ in range(int(rng.integers(1, 4))):
        link = DATA_PATH_LINKS[int(rng.integers(0, len(DATA_PATH_LINKS)))]
        events.append(FaultEvent(
            at_ns=int(rng.integers(20_000, 2_500_000)),
            kind=LINK_ERROR_BURST,
            target=link,
            duration_ns=int(rng.integers(100_000, 400_000)),
            params={"rate": float(rng.choice([0.3, 0.6, 1.0]))}))
    if seed % 4 == 0:
        node = ("node0", "node1")[int(rng.integers(0, 2))]
        events.append(FaultEvent(
            at_ns=int(rng.integers(200_000, 1_500_000)),
            kind=DAEMON_COLD_CRASH,
            target=node,
            duration_ns=int(rng.integers(300_000, 700_000))))
    return FaultCampaign.of(f"prop.seed{seed}", events, seed=seed)


def _instrument(tx) -> dict:
    """Wrap the sender's sole state mutators so every assignment is
    checked; returns the violation log (empty == invariants held)."""
    log = {"violations": [], "timed_out": set(), "sampled": set()}
    orig_rto, orig_cwnd = tx._set_rto, tx._set_cwnd
    orig_inflight = tx._set_inflight
    orig_timeout, orig_clean = tx._on_timeout, tx._on_clean_ack

    def set_rto(value):
        orig_rto(value)
        if not tx.timeout_ns <= tx.rto_ns <= tx.max_timeout_ns:
            log["violations"].append(
                f"rto {tx.rto_ns} outside "
                f"[{tx.timeout_ns}, {tx.max_timeout_ns}]")

    def set_cwnd(value, reason):
        orig_cwnd(value, reason=reason)
        if not 1 <= tx.cwnd <= tx.nslots:
            log["violations"].append(
                f"cwnd {tx.cwnd} outside [1, {tx.nslots}]")

    def set_inflight(value):
        orig_inflight(value)
        if not 0 <= tx.inflight <= tx.nslots:
            log["violations"].append(
                f"inflight {tx.inflight} outside [0, {tx.nslots}]")

    def on_timeout(seq):
        log["timed_out"].add(seq)
        orig_timeout(seq)

    def on_clean_ack(seq, rtt_ns):
        log["sampled"].add(seq)
        if seq in log["timed_out"]:
            log["violations"].append(
                f"karn: RTT sample taken from retransmitted seq {seq}")
        orig_clean(seq, rtt_ns)

    tx._set_rto = set_rto
    tx._set_cwnd = set_cwnd
    tx._set_inflight = set_inflight
    tx._on_timeout = on_timeout
    tx._on_clean_ack = on_clean_ack
    return log


def run_case(seed: int, messages: int | None = None,
             **channel_overrides) -> dict:
    """One full scenario run; returns a JSON-serialisable summary whose
    byte-identity across re-runs is itself an asserted property."""
    geometry = dict(GEOMETRIES[seed % len(GEOMETRIES)])
    geometry.update(channel_overrides)
    if messages is None:
        messages = 16 + seed % 5
    cluster = Cluster.build(TestbedConfig(nnodes=2, memory_mb=16))
    env = cluster.env
    _, ep_tx = cluster.nodes[0].attach_process("prop_tx")
    _, ep_rx = cluster.nodes[1].attach_process("prop_rx")
    tx, rx = env.run(until=open_channel(ep_tx, ep_rx, "prop", **geometry))
    log = _instrument(tx)

    up_ns = env.now
    schedule = build_schedule(seed)
    campaign_done = FaultInjector(cluster).run(schedule)

    got: list[bytes] = []
    end = {}

    def receiver():
        for _ in range(messages):
            payload = yield rx.recv()
            got.append(payload)
        end["at"] = env.now
        # Stay posted after the last expected message: if the final ACK
        # was lost in a burst, only a live recv() can re-ACK the
        # retransmission (a real receiver never stops listening).
        rx.recv()

    def sender():
        sends = []
        for i in range(messages):
            if i:
                yield env.timeout(SEND_GAP_NS)
            sends.append(tx.send(_pattern(i)))
        for proc in sends:
            yield proc

    rx_proc = env.process(receiver())
    env.process(sender())
    env.run(until=rx_proc)
    fault_stats = env.run(until=campaign_done)
    env.run(until=env.now + DRAIN_NS)

    # -- the schedule ran on the channel's clock -------------------------
    assert sorted(fault_stats.log) == sorted(
        (e.kind, e.target, up_ns + e.at_ns) for e in schedule), (
        f"seed {seed}: a fault fired off its authored offset")

    # -- invariant 1: exactly-once, in-order, byte-exact ---------------
    assert len(got) == messages
    for i, payload in enumerate(got):
        assert payload == _pattern(i), (
            f"seed {seed}: message {i} corrupted or misordered")
    assert rx.stats.messages_delivered == messages
    assert tx.stats.messages_delivered == messages
    assert tx.stats.send_failures == 0

    # -- invariants 2–4: bounds + Karn, checked at every mutation ------
    assert log["violations"] == [], f"seed {seed}: {log['violations']}"
    stats = tx.stats
    assert stats.rtt_samples + stats.retransmitted_deliveries \
        == stats.messages_delivered
    assert stats.cwnd_max <= tx.nslots
    assert tx.timeout_ns <= tx.rto_ns <= tx.max_timeout_ns

    digest = hashlib.sha256(b"".join(got)).hexdigest()
    return {
        "seed": seed,
        "geometry": {k: geometry[k] for k in sorted(geometry)},
        "messages": messages,
        "end_ns": end["at"],
        "digest": digest,
        "tx_stats": tx.stats.as_dict(),
        "rx_stats": rx.stats.as_dict(),
        "fault_stats": fault_stats.as_dict(),
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_fault_schedule_properties(seed):
    """The 56-seed sweep: every invariant, plus byte-identical stats on
    an immediate same-seed re-run (invariant 5)."""
    first = run_case(seed)
    second = run_case(seed)
    assert json.dumps(first, sort_keys=True) \
        == json.dumps(second, sort_keys=True), (
        f"seed {seed}: re-run diverged")


def test_sweep_covers_every_failure_mode():
    """The generator actually produces the advertised fault mix across
    the sweep: data-loss bursts, partial (CRC) corruption, ACK-path
    bursts, and cold crashes."""
    kinds = set()
    targets = set()
    rates = set()
    for seed in SEEDS:
        for event in build_schedule(seed).events:
            kinds.add(event.kind)
            targets.add(event.target)
            if event.kind == LINK_ERROR_BURST:
                rates.add(event.params["rate"])
    assert kinds == {LINK_ERROR_BURST, DAEMON_COLD_CRASH}
    assert set(DATA_PATH_LINKS) <= targets          # incl. ACK path
    assert {"node0", "node1"} <= targets            # both crash sides
    assert 1.0 in rates and min(rates) < 1.0        # loss + corruption


def test_rto_bounds_hold_for_nondefault_timeouts():
    """Invariant 2 with a non-default ``[timeout_ns, max_timeout_ns]``
    range — the bounds the RTO must respect are the *configured* ones."""
    summary = run_case(16, timeout_ns=60_000, max_timeout_ns=700_000)
    assert summary["tx_stats"]["retransmits"] > 0   # bursts were felt


def test_retransmission_rich_seed_exercises_adaptation():
    """At least one seed in the sweep drives the full adaptive arsenal:
    timeouts, window cuts, pacing, and Karn-excluded deliveries."""
    totals = {"retransmits": 0, "cwnd_cuts": 0, "paced_ns": 0,
              "retransmitted_deliveries": 0, "duplicates": 0}
    for seed in (1, 9, 16, 28):
        summary = run_case(seed)
        tx_stats = summary["tx_stats"]
        totals["retransmits"] += tx_stats["retransmits"]
        totals["cwnd_cuts"] += tx_stats["cwnd_cuts"]
        totals["paced_ns"] += tx_stats["paced_ns"]
        totals["retransmitted_deliveries"] += \
            tx_stats["retransmitted_deliveries"]
        totals["duplicates"] += summary["rx_stats"]["duplicates_suppressed"]
    assert totals["retransmits"] > 0
    assert totals["cwnd_cuts"] > 0
    assert totals["paced_ns"] > 0
    assert totals["retransmitted_deliveries"] > 0
