"""Tests for the DSM subsystem (repro.dsm) and its supporting pieces:
the directory state machine, the wire codec, the SC checker itself,
barriers and locks on the coherence mesh, and the seeded multi-node
coherence sweep (clean and under chaos campaigns)."""

import json

import pytest

from repro import Cluster, TestbedConfig
from repro.dsm import (
    DirectoryError,
    DsmError,
    DsmOp,
    PageDirectory,
    build_dsm_world,
    check_sequential_consistency,
    run_dsm_trial,
)
from repro.dsm import wire
from repro.dsm.directory import DOWNGRADE, FLUSH, INVALIDATE, PUSH
from repro.obs.metrics import MetricsRegistry
from repro.sim.census import census


# ---------------------------------------------------------------------------
# directory state machine (pure, no cluster)
# ---------------------------------------------------------------------------

def test_directory_initial_state():
    directory = PageDirectory(rank=1, nranks=4, npages=16)
    assert sorted(directory.entries) == [1, 5, 9, 13]
    entry = directory.entry(5)
    assert entry.owner == 1 and entry.mode == "shared"
    assert entry.copyset == {1}
    directory.check_invariants()
    with pytest.raises(DirectoryError):
        directory.entry(2)  # homed at rank 2, not here


def test_directory_read_fault_joins_copyset():
    directory = PageDirectory(rank=0, nranks=2, npages=2)
    supplier, action = directory.begin_read(0, requester=1)
    assert supplier == 0 and action == PUSH  # shared owner just pushes
    directory.commit_read(0, 1)
    assert directory.entry(0).copyset == {0, 1}
    assert directory.entry(0).mode == "shared"


def test_directory_write_fault_invalidates_and_migrates():
    directory = PageDirectory(rank=0, nranks=2, npages=2)
    directory.commit_read(0, 1)                   # reader joined
    plan, needs_data = directory.begin_write(0, requester=1)
    # Requester already holds a copy: no data, just invalidate the owner.
    assert needs_data is False
    assert plan == [(0, INVALIDATE)]
    directory.commit_write(0, 1)
    entry = directory.entry(0)
    assert entry.owner == 1 and entry.mode == "exclusive"
    assert entry.copyset == {1}


def test_directory_write_fault_without_copy_flushes_owner():
    directory = PageDirectory(rank=0, nranks=4, npages=4)
    plan, needs_data = directory.begin_write(0, requester=2)
    assert needs_data is True
    assert plan == [(0, FLUSH)]  # owner supplies then drops
    directory.commit_write(0, 2)
    # Exclusive owner downgrades when a reader faults in.
    supplier, action = directory.begin_read(0, requester=3)
    assert supplier == 2 and action == DOWNGRADE
    directory.commit_read(0, 3)
    entry = directory.entry(0)
    assert entry.mode == "shared" and entry.copyset == {2, 3}


def test_directory_owner_read_fault_is_a_bug():
    directory = PageDirectory(rank=0, nranks=2, npages=2)
    with pytest.raises(DirectoryError):
        directory.begin_read(0, requester=0)


def test_directory_write_plan_is_sorted_and_complete():
    directory = PageDirectory(rank=0, nranks=4, npages=4)
    for reader in (1, 2, 3):
        directory.commit_read(0, reader)
    plan, needs_data = directory.begin_write(0, requester=3)
    assert needs_data is False
    assert plan == [(0, INVALIDATE), (1, INVALIDATE), (2, INVALIDATE)]


# ---------------------------------------------------------------------------
# wire codec
# ---------------------------------------------------------------------------

def test_wire_roundtrip():
    frame = wire.encode(wire.OP_FLUSH, req_id=7, src=2,
                        ints=(5, 1, 42), blob=b"\x01\x02\x03")
    assert wire.decode(frame) == (wire.OP_FLUSH, 7, 2, (5, 1, 42),
                                  b"\x01\x02\x03")
    empty = wire.encode(wire.OP_READ_FAULT, 1, 0, (9,))
    assert wire.decode(empty) == (wire.OP_READ_FAULT, 1, 0, (9,), b"")


# ---------------------------------------------------------------------------
# the SC checker itself (it guards everything else — test its teeth)
# ---------------------------------------------------------------------------

def _op(node, index, kind, value, commit, page=0, offset=0,
        start=None, end=None):
    return DsmOp(node=node, index=index, kind=kind, page=page,
                 offset=offset, value=value,
                 start_ns=commit if start is None else start,
                 commit_ns=commit,
                 end_ns=commit if end is None else end)


def test_checker_accepts_serial_history():
    ops = [
        _op(0, 0, "w", 11, 100),
        _op(1, 0, "r", 11, 200),
        _op(1, 1, "w", 22, 300),
        _op(0, 1, "r", 22, 400),
    ]
    assert check_sequential_consistency(ops) == []


def test_checker_catches_stale_read():
    ops = [
        _op(0, 0, "w", 11, 100),
        _op(1, 0, "w", 22, 200),
        _op(2, 0, "r", 11, 300),  # stale: 22 overwrote 11
    ]
    violations = check_sequential_consistency(ops)
    assert len(violations) == 1 and "stale" in violations[0]


def test_checker_catches_lost_write():
    ops = [
        _op(0, 0, "w", 11, 100),
        _op(1, 0, "r", 0, 200),  # read zero after a committed write
    ]
    assert len(check_sequential_consistency(ops)) == 1


def test_checker_catches_future_and_phantom_reads():
    future = [_op(0, 0, "r", 11, 100), _op(1, 0, "w", 11, 200)]
    assert any("before its write" in v
               for v in check_sequential_consistency(future))
    phantom = [_op(0, 0, "r", 99, 100)]
    assert any("never written" in v
               for v in check_sequential_consistency(phantom))


def test_checker_catches_program_order_and_interval_violations():
    unordered = [_op(0, 0, "w", 1, 200), _op(0, 1, "w", 2, 100)]
    assert any("not after" in v
               for v in check_sequential_consistency(unordered))
    outside = [_op(0, 0, "w", 1, 300, start=100, end=200)]
    assert any("outside" in v
               for v in check_sequential_consistency(outside))


# ---------------------------------------------------------------------------
# barriers and locks on the coherence mesh
# ---------------------------------------------------------------------------

def test_dsm_world_is_one_mesh():
    """Sync rides the coherence channels: a 4-rank world is the 12
    reliable channels (ring + ACK word each) and nothing else."""
    cluster = Cluster.build(TestbedConfig(nnodes=4, memory_mb=32))
    env = cluster.env
    registry = MetricsRegistry().install(env)
    booted_ns, booted_events = env.now, env.events_processed
    build_dsm_world(cluster)

    def total(metric):
        return sum(value for key, value in registry.snapshot().items()
                   if key.startswith(metric + "{"))

    assert total("daemon.exports") == total("daemon.imports") == 24
    assert not [name for node in cluster.nodes
                for name in node.daemon.exports
                if name.startswith("dsm.mp")]
    assert env.now - booted_ns <= 17_000_000
    assert env.events_processed - booted_events == 1_007


def test_dsm_locked_counter_survives_cold_crashes():
    """Mutual exclusion and barriers under faults: 4 ranks increment one
    shared word under a lock, a barrier per round, while rank 0's
    daemon (the sync server) and then a client's daemon cold-restart."""
    rounds = 8
    cluster = Cluster.build(TestbedConfig(nnodes=4, memory_mb=32))
    env = cluster.env
    segments = build_dsm_world(cluster, npages=8, page_bytes=128)

    def app(seg):
        for _ in range(rounds):
            yield from seg.barrier()
            yield from seg.lock(1)
            value = yield from seg.read_u32(0)
            yield from seg.write_u32(0, value + 1)
            yield from seg.unlock(1)
        yield from seg.barrier()
        return (yield from seg.read_u32(0))

    def chaos():
        yield env.timeout(150_000)
        cluster.nodes[0].daemon.crash()
        yield env.timeout(300_000)
        cluster.nodes[0].daemon.restart(cold=True)
        yield env.timeout(400_000)
        cluster.nodes[2].daemon.crash()
        yield env.timeout(250_000)
        cluster.nodes[2].daemon.restart(cold=True)

    apps = [env.process(app(seg)) for seg in segments]
    crashes = env.process(chaos())
    finals = [env.run(until=proc) for proc in apps]
    assert crashes.triggered                 # both windows hit the loop
    assert finals == [4 * rounds] * 4
    history = [op for seg in segments for op in seg.node.history]
    assert check_sequential_consistency(history) == []
    # The crash windows actually exercised the recovery paths.
    ends = [seg.node.channel_stats() for seg in segments]
    assert sum(stats.reimports
               for tx, rx in ends for stats in tx + rx) > 0


def test_dsm_unlock_without_holding_raises_at_the_caller():
    """Regression: a remote ``unlock`` of a lock the rank did not hold
    returned silently and then raised out of rank 0's server process,
    killing the simulation where the caller could not catch it."""
    cluster = Cluster.build(TestbedConfig(nnodes=2, memory_mb=32))
    env = cluster.env
    segments = build_dsm_world(cluster, npages=8, page_bytes=128)

    def offender():
        seg = segments[1]
        with pytest.raises(DsmError, match="rank 1 released lock 5 "
                                           "without holding it"):
            yield from seg.unlock(5)
        yield from seg.lock(5)               # rank 0 is still serving
        yield from seg.unlock(5)
        return "ok"

    assert env.run(until=env.process(offender())) == "ok"


@pytest.mark.parametrize("rank", [0, 1])
def test_dsm_alloc_of_no_pages_raises_at_the_caller(rank):
    """Regression: rank 0 served ``alloc(-3)`` in place and moved the
    bump allocator back, so the next ``alloc`` handed out pages a second
    time; any other rank failed in the frame codec instead, as it did
    for a count past 32 bits.  Now every rank refuses a count outside
    ``[1, npages]`` before sending anything."""
    cluster = Cluster.build(TestbedConfig(nnodes=2, memory_mb=32))
    env = cluster.env
    node = build_dsm_world(cluster, npages=8, page_bytes=128)[rank].node
    senders, _ = node.channel_stats()

    def app():
        first = yield from node.alloc(4)
        sent = [tx.messages_sent for tx in senders]
        for bad in (0, -3, 9, 2**32):
            with pytest.raises(DsmError, match=f"alloc of {bad} pages"):
                yield from node.alloc(bad)
        assert [tx.messages_sent for tx in senders] == sent
        return first, (yield from node.alloc(2))

    assert env.run(until=env.process(app())) == (0, 4)


def test_dsm_requests_to_the_own_rank_are_served_in_place():
    """Rank 0 serves its own alloc, lock, unlock and the write fault on a
    page homed and owned only there: no frame leaves it and no process
    starts beyond the four ops."""
    cluster = Cluster.build(TestbedConfig(nnodes=2, memory_mb=32))
    env = cluster.env
    node = build_dsm_world(cluster, npages=8, page_bytes=128)[0].node
    senders, _ = node.channel_stats()
    sent = [tx.messages_sent for tx in senders]
    with census() as counts:
        for op in (node.alloc(2), node.lock(3), node.unlock(3),
                   node.write_u32(0, 0, 9)):
            env.run(until=env.process(op))
    assert [tx.messages_sent for tx in senders] == sent
    assert counts.processes == ["alloc", "lock", "unlock", "write_u32"]
    assert (node.write_faults, node.access[0]) == (1, "write")


# ---------------------------------------------------------------------------
# DSM integration: segment API, sync primitives, lifecycle downgrade
# ---------------------------------------------------------------------------

def test_dsm_segment_cross_rank_visibility_and_sync():
    cluster = Cluster.build(TestbedConfig(nnodes=2, memory_mb=32))
    env = cluster.env
    segments = build_dsm_world(cluster, npages=8, page_bytes=128)
    results = {}

    def writer():
        seg = segments[0]
        base = yield from seg.alloc(256)         # two pages
        yield from seg.write_u32(base, 0xCAFE)
        yield from seg.write(base + 100, b"spans-a-page-boundary-here!")
        yield from seg.lock(3)
        yield from seg.write_u32(base + 4, 0xBEEF)
        yield from seg.unlock(3)
        results["base"] = base
        yield from seg.barrier()

    def reader():
        seg = segments[1]
        yield from seg.barrier()                 # writer finished
        base = results["base"]
        results["word"] = yield from seg.read_u32(base)
        results["span"] = yield from seg.read(base + 100, 27)
        yield from seg.lock(3)
        results["locked_word"] = yield from seg.read_u32(base + 4)
        yield from seg.unlock(3)

    a = env.process(writer())
    b = env.process(reader())
    env.run(until=a)
    env.run(until=b)
    assert results["word"] == 0xCAFE
    assert results["span"] == b"spans-a-page-boundary-here!"
    assert results["locked_word"] == 0xBEEF
    history = (segments[0].node.history + segments[1].node.history)
    assert check_sequential_consistency(history) == []


def test_dsm_cold_crash_triggers_lifecycle_downgrade():
    report = run_dsm_trial(2, scenario="daemon-cold-crash")
    assert report["sc_violations"] == []
    assert report["faults"]["faults_raised"] == 1
    # The campaign starts with the mixed phase: the crash fires at its
    # offset from that moment.
    [(_kind, _node, raised_at)] = report["faults"]["log"]
    assert raised_at == report["phases"]["mixed"] + 25_000
    # The crashed daemon's import invalidations reached the DSM layer
    # and pages were conservatively dropped, then re-fetched cleanly.
    assert report["counters"]["downgrades"] > 0


# ---------------------------------------------------------------------------
# the seeded property sweep (the acceptance gate)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scenario",
                         ["clean", "error-burst", "daemon-cold-crash"])
def test_dsm_sc_sweep(scenario):
    """16 seeds x 4 nodes x 64 pages per scenario: the coherence
    checker must pass on every trial."""
    for seed in range(16):
        report = run_dsm_trial(seed, nnodes=4, npages=64,
                               page_bytes=256, ops_per_node=24,
                               scenario=scenario)
        assert report["sc_violations"] == [], (
            f"seed {seed} scenario {scenario}: "
            f"{report['sc_violations'][:3]}")
        assert report["ops_total"] == 4 * 24 + 64


@pytest.mark.parametrize("scenario, seed",
                         [("clean", 3), ("daemon-cold-crash", 2)])
def test_dsm_no_write_lost_during_flush(scenario, seed):
    """Long runs where a local write used to hit while the page was
    being pushed out for a FLUSH/DOWNGRADE and was dropped with the
    copy: the right is revoked before the page is read for the push."""
    report = run_dsm_trial(seed, nnodes=4, npages=64, page_bytes=256,
                           ops_per_node=200, scenario=scenario)
    assert report["sc_violations"] == []


def test_dsm_trial_reports_are_byte_identical():
    for seed in (0, 11):
        first = json.dumps(run_dsm_trial(seed), sort_keys=True)
        again = json.dumps(run_dsm_trial(seed), sort_keys=True)
        assert first == again
