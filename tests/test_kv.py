"""Tests for the sharded KV serving tier (repro.kv): the consistent
hash ring, the open-loop workload generator and its static
read-your-writes oracle, the reliable RPC layer it serves over, and the
seeded end-to-end trial (clean and under chaos scenarios)."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.kv import HashRing, KVStore, WorkloadSpec, generate_schedule
from repro.kv.bench import SCENARIOS, run_kv_trial
from repro.kv.hashing import point_for
from repro.kv.store import (
    PROC_GET,
    PROC_PUT,
    decode_get_reply,
    decode_put_reply,
    encode_get_args,
    encode_put_args,
)
from repro.kv.workload import read_your_writes_oracle
from repro.rpc.reliable import connect_reliable_rpc
from repro.rpc.sunrpc import RPCError, RPCProgram
from repro.rpc.xdr import XdrEncoder


# ---------------------------------------------------------------------------
# consistent hashing (pure, no cluster)
# ---------------------------------------------------------------------------

def test_hash_ring_deterministic_and_total():
    ring = HashRing(["a", "b", "c"])
    again = HashRing(["a", "b", "c"])
    for key in range(500):
        owner = ring.route(key)
        assert owner in ("a", "b", "c")
        assert again.route(key) == owner


def test_hash_ring_balance_and_spread():
    ring = HashRing(["s0", "s1", "s2", "s3"])
    counts = ring.spread(range(4000))
    assert sum(counts.values()) == 4000
    # Virtual nodes bound the spread: no shard wildly over/under-loaded.
    assert max(counts.values()) < 2.0 * min(counts.values())


def test_hash_ring_minimal_remap_on_shard_removal():
    ring4 = HashRing(["s0", "s1", "s2", "s3"])
    ring3 = HashRing(["s0", "s1", "s2"])
    keys = range(2000)
    moved = sum(1 for k in keys
                if ring4.route(k) != "s3" and ring4.route(k) != ring3.route(k))
    # Keys not owned by the removed shard overwhelmingly stay put.
    assert moved < 0.05 * 2000


def test_hash_ring_validation():
    with pytest.raises(ValueError):
        HashRing([])
    with pytest.raises(ValueError):
        HashRing(["a", "a"])
    with pytest.raises(ValueError):
        HashRing(["a"], vnodes=0)
    assert isinstance(point_for(b"x"), int)


_SHARDS = st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=8,
                   unique=True)
_KEYS = st.lists(st.integers(0, (1 << 64) - 1), min_size=1, max_size=40)


@settings(max_examples=200, deadline=None)
@given(shards=_SHARDS, vnodes=st.integers(1, 16), keys=_KEYS,
       data=st.data())
def test_hash_ring_routing_under_arbitrary_membership(shards, vnodes, keys,
                                                      data):
    ring = HashRing(shards, vnodes=vnodes)
    routed = {key: ring.route(key) for key in keys}
    # Every key routes to a member.
    assert set(routed.values()) <= set(shards)
    # The order the shards are listed in does not matter.
    shuffled = data.draw(st.permutations(shards))
    assert {key: HashRing(shuffled, vnodes=vnodes).route(key)
            for key in keys} == routed
    # Removing a shard moves only that shard's keys.
    if len(shards) > 1:
        gone = data.draw(st.sampled_from(shards))
        smaller = HashRing([s for s in shards if s != gone], vnodes=vnodes)
        for key, owner in routed.items():
            if owner != gone:
                assert smaller.route(key) == owner
    # Adding a shard moves keys only onto it.
    extra = data.draw(st.text(min_size=1, max_size=6).filter(
        lambda name: name not in shards))
    larger = HashRing([*shards, extra], vnodes=vnodes)
    for key, owner in routed.items():
        assert larger.route(key) in (owner, extra)


# ---------------------------------------------------------------------------
# workload generator + oracle (pure, no cluster)
# ---------------------------------------------------------------------------

def test_schedule_deterministic_per_seed():
    spec = WorkloadSpec(requests=300, load="diurnal")
    assert generate_schedule(spec, 7) == generate_schedule(spec, 7)
    assert generate_schedule(spec, 7) != generate_schedule(spec, 8)


def test_schedule_arrivals_monotone_integer_ns():
    for load in ("steady", "diurnal"):
        spec = WorkloadSpec(requests=400, load=load, base_gap_ns=5_000)
        sched = generate_schedule(spec, 0)
        assert len(sched) == 400
        assert all(isinstance(r.at_ns, int) for r in sched)
        assert all(b.at_ns > a.at_ns for a, b in zip(sched, sched[1:]))


def test_schedule_zipf_skew_concentrates_keys():
    uniform = generate_schedule(WorkloadSpec(requests=2000, skew=0.0), 0)
    skewed = generate_schedule(WorkloadSpec(requests=2000, skew=1.2), 0)

    def top_share(sched):
        counts = {}
        for r in sched:
            counts[r.key] = counts.get(r.key, 0) + 1
        return max(counts.values()) / len(sched)

    assert top_share(skewed) > 3 * top_share(uniform)


def test_schedule_diurnal_gaps_vary():
    spec = WorkloadSpec(requests=400, load="diurnal", base_gap_ns=10_000)
    sched = generate_schedule(spec, 0)
    gaps = {b.at_ns - a.at_ns for a, b in zip(sched, sched[1:])}
    assert len(gaps) > 10          # the envelope actually modulates
    steady = generate_schedule(
        WorkloadSpec(requests=400, base_gap_ns=10_000), 0)
    assert {b.at_ns - a.at_ns
            for a, b in zip(steady, steady[1:])} == {10_000}


def test_workload_spec_validation():
    with pytest.raises(ValueError):
        WorkloadSpec(requests=0)
    with pytest.raises(ValueError):
        WorkloadSpec(get_fraction=1.5)
    with pytest.raises(ValueError):
        WorkloadSpec(load="bursty")
    with pytest.raises(ValueError):
        WorkloadSpec(skew=-0.1)


def test_read_your_writes_oracle_tracks_last_put():
    sched = generate_schedule(WorkloadSpec(requests=600, nkeys=16), 3)
    expected = read_your_writes_oracle(sched)
    last = {}
    for req in sched:
        if req.op == "put":
            last[req.key] = req.value
        else:
            assert expected[req.index] == last.get(req.key)
    assert set(expected) == {r.index for r in sched if r.op == "get"}


# ---------------------------------------------------------------------------
# store + XDR marshalling (pure)
# ---------------------------------------------------------------------------

def test_store_versions_are_per_key_monotone():
    store = KVStore("s")
    assert store.get(1) == (False, b"", 0)
    assert store.put(1, b"a") == 1
    assert store.put(1, b"b") == 2
    assert store.put(2, b"z") == 1
    assert store.get(1) == (True, b"b", 2)
    assert len(store) == 2
    assert store.gets == 2 and store.puts == 3


def test_store_program_round_trips_xdr():
    from repro.rpc.xdr import XdrDecoder

    store = KVStore("s")
    prog = store.program()
    put_reply = prog.lookup(PROC_PUT)(XdrDecoder(
        encode_put_args(42, b"hello")))
    assert decode_put_reply(XdrDecoder(put_reply)) == 1
    get_reply = prog.lookup(PROC_GET)(XdrDecoder(encode_get_args(42)))
    assert decode_get_reply(XdrDecoder(get_reply)) == (True, b"hello", 1)


# ---------------------------------------------------------------------------
# reliable RPC layer (cluster)
# ---------------------------------------------------------------------------

def _echo_program():
    prog = RPCProgram(0x20000999, 1)
    prog.register(7, lambda dec: XdrEncoder()
                  .pack_opaque(dec.unpack_opaque()[::-1]).getvalue())
    return prog


def test_reliable_rpc_round_trip():
    from repro import Cluster, TestbedConfig

    cluster = Cluster.build(TestbedConfig(nnodes=2, memory_mb=16))
    env = cluster.env
    results = []

    def main():
        _, cli_ep = cluster.nodes[0].attach_process("cli")
        _, srv_ep = cluster.nodes[1].attach_process("srv")
        client, _server = yield connect_reliable_rpc(
            cli_ep, srv_ep, "echo", _echo_program())
        enc = XdrEncoder().pack_opaque(b"abcdef")
        dec = yield client.call(7, enc.getvalue())
        results.append(dec.unpack_opaque())
        with pytest.raises(RPCError):
            yield client.call(99, b"")       # unregistered procedure

    env.run(until=env.process(main()))
    assert results == [b"fedcba"]


# ---------------------------------------------------------------------------
# end-to-end trials (cluster; small request counts)
# ---------------------------------------------------------------------------

def test_kv_trial_clean_delivers_and_reads_its_writes():
    trial = run_kv_trial(0, shards=2, requests=120, nkeys=64)
    assert trial["completed"] == 120 and trial["failed"] == 0
    assert trial["ryw_violations_total"] == 0
    assert trial["gets"] + trial["puts"] == 120
    snap = trial["latency_ns"]
    assert {"p50", "p90", "p99", "p999"} <= set(snap)
    assert snap["count"] == 120
    routed = sum(s["routed"] for s in trial["per_shard"].values())
    served = sum(s["served"] for s in trial["per_shard"].values())
    assert routed == served == 120
    assert trial["imbalance"] >= 1.0


@pytest.mark.parametrize("scenario", [s for s in SCENARIOS if s != "clean"])
def test_kv_trial_rides_out_chaos(scenario):
    trial = run_kv_trial(0, shards=2, requests=120, nkeys=64,
                         skew=1.1, load="diurnal", scenario=scenario)
    assert trial["completed"] == 120 and trial["failed"] == 0
    assert trial["ryw_violations_total"] == 0
    # The scenario actually bit: the transport had to recover.
    transport = trial["transport"]
    assert transport["retransmits"] + transport["reimports"] > 0
    # The campaign starts with the replay: no fault fires before it.
    assert all(at >= trial["phases"]["replay"]
               for _kind, _target, at in trial["faults"]["log"])


def test_kv_trial_spreads_frontends_past_sram_budget():
    # 8 shards need 2 front-end nodes (NIC SRAM fits ~6 attachments);
    # the trial must pick a dual-switch topology and still deliver.
    trial = run_kv_trial(1, shards=8, requests=80, nkeys=64)
    assert trial["frontends"] == 2
    assert trial["completed"] == 80 and trial["failed"] == 0
    assert trial["ryw_violations_total"] == 0


def test_kv_trial_report_byte_identical_across_reruns():
    kwargs = dict(shards=2, requests=100, nkeys=64, load="diurnal",
                  scenario="error-burst")
    first = json.dumps(run_kv_trial(5, **kwargs), sort_keys=True)
    again = json.dumps(run_kv_trial(5, **kwargs), sort_keys=True)
    assert first == again


def test_kv_campaign_trial_adapter_gates():
    from repro.campaign.trials import kv_trial

    result = kv_trial({"shards": 2, "requests": 100, "skew": 0.9,
                       "load": "steady", "scenario": "clean"}, seed=0)
    assert result["gates"] == {"delivered": True, "read_your_writes": True}
    metrics = result["metrics"]
    assert metrics["p50_us"] > 0
    assert metrics["p99_us"] >= metrics["p50_us"]
    assert metrics["p999_us"] >= metrics["p99_us"]
