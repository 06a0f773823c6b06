"""One seeded KV serving-tier trial (the ``kv`` campaign's trial).

One trial = one cluster, one seed, one chaos scenario:

* a front-end tier (enough nodes to fit one client process per shard
  under the NIC's SRAM budget) runs the open-loop driver; the remaining
  nodes run one shard each (a :class:`~repro.kv.store.KVStore` served
  over :mod:`repro.rpc.reliable`);
* keys route to shards through a deterministic consistent-hash ring, so
  the schedule's shard assignment is known before the simulation runs;
* every request is fired at its precomputed arrival time (open loop —
  the driver never waits for the service), end-to-end latency =
  completion − scheduled arrival, recorded into :mod:`repro.obs`
  histograms end-to-end and per shard;
* chaos scenarios start their campaign as the replay begins, so fault
  windows are offsets from ``run()`` (the start of replay):
  ``error-burst`` drops
  every frame on the victim shard's links twice mid-replay,
  ``daemon-cold-crash`` cold-restarts the victim shard's daemon;
* after the run every GET is checked against the static
  read-your-writes oracle — the serving tier's consistency gate.

Trials are deterministic (integer-ns simulation, all randomness from
the seed), so a report is byte-identical across re-runs.
"""

from __future__ import annotations

import random

from repro.cluster import Cluster, TestbedConfig
from repro.obs.metrics import MetricsRegistry, count, quantile_key
from repro.faults import (DAEMON_COLD_CRASH, FaultCampaign, FaultEvent,
                          FaultInjector, LINK_ERROR_BURST)
from repro.kv.hashing import HashRing
from repro.kv.store import (KVStore, PROC_GET, PROC_PUT, decode_get_reply,
                            decode_put_reply, encode_get_args,
                            encode_put_args)
from repro.kv.workload import (WorkloadSpec, generate_schedule,
                               read_your_writes_oracle)
from repro.rpc.reliable import connect_reliable_rpc
from repro.rpc.sunrpc import RPCError
from repro.vmmc.errors import RetriesExhausted

SCENARIOS = ("clean", "error-burst", "daemon-cold-crash")

#: Cold-crash outage length: long enough that in-flight slots hit the
#: stale import and recover, short enough that the channels' reimport
#: backoff budget rides it out (same shape the DSM bench uses).
_CRASH_OUTAGE_NS = 250_000

#: Client processes hosted per front-end node.  Each attached process
#: costs ~29 KB of the NIC's 256 KB SRAM (section 6), so a node tops
#: out at ~7 attachments; 6 leaves headroom.
_CLIENTS_PER_FRONTEND = 6


def _campaign_for(scenario: str, seed: int, cluster: Cluster,
                  shard_nodes: list[str], span_ns: int):
    """The scenario's fault schedule, as offsets from the start of replay.

    The victim shard is seeded; fault windows scale with the replay
    span so they land mid-workload for any request count.  Link names
    come from the booted fabric, so the schedule is valid on any
    topology the trial runs on.
    """
    if scenario == "clean":
        return None
    rng = random.Random(seed * 7919 + 29)
    victim = rng.choice(shard_nodes)
    if scenario == "error-burst":
        burst_ns = max(50_000, span_ns // 16)
        events = []
        for start in (span_ns // 8, span_ns // 2):
            for link in cluster.fabric.links_of(victim):
                events.append(FaultEvent(
                    at_ns=start, kind=LINK_ERROR_BURST,
                    target=link.name, duration_ns=burst_ns,
                    params={"rate": 1.0}))
        return FaultCampaign(name=f"kv-burst-s{seed}", seed=seed,
                             events=tuple(events))
    if scenario == "daemon-cold-crash":
        return FaultCampaign(
            name=f"kv-coldcrash-s{seed}", seed=seed,
            events=(FaultEvent(
                at_ns=span_ns // 4,
                kind=DAEMON_COLD_CRASH, target=victim,
                duration_ns=_CRASH_OUTAGE_NS),))
    raise ValueError(f"unknown scenario {scenario!r} "
                     f"(have: {', '.join(SCENARIOS)})")


def _tail(snapshot: dict) -> dict:
    """count/p50/p99/p999 extract of a histogram snapshot (0s if empty)."""
    return {
        "count": int(snapshot.get("count", 0)),
        "p50": snapshot.get(quantile_key(0.5), 0),
        "p99": snapshot.get(quantile_key(0.99), 0),
        "p999": snapshot.get(quantile_key(0.999), 0),
    }


def run_kv_trial(seed: int, *, shards: int = 4, requests: int = 400,
                 nkeys: int = 512, skew: float = 0.9,
                 get_fraction: float = 0.8, load: str = "steady",
                 base_gap_ns: int = 20_000, value_bytes: int = 64,
                 scenario: str = "clean") -> dict:
    """One seeded KV trial; returns a JSON-serialisable report."""
    spec = WorkloadSpec(requests=requests, nkeys=nkeys, skew=skew,
                        get_fraction=get_fraction, base_gap_ns=base_gap_ns,
                        load=load, value_bytes=value_bytes)
    schedule_reqs = generate_schedule(spec, seed)
    expected = read_your_writes_oracle(schedule_reqs)
    span_ns = schedule_reqs[-1].at_ns

    # NIC SRAM bounds attached processes per node (~29 KB each, the
    # section-6 resource cost), so the front-end tier spreads its client
    # processes across enough nodes to stay under that limit.
    frontends = (shards + _CLIENTS_PER_FRONTEND - 1) // _CLIENTS_PER_FRONTEND
    nnodes = shards + frontends
    topology = None if nnodes <= 8 else f"dual:{nnodes}"
    cluster = Cluster.build(TestbedConfig(nnodes=nnodes, memory_mb=32),
                            topology=topology)
    env = cluster.env
    registry = MetricsRegistry().install(env)
    shard_nodes = [f"node{i}"
                   for i in range(frontends, frontends + shards)]
    ring = HashRing(shard_nodes)
    shard_of = {req.index: ring.route(req.key) for req in schedule_reqs}

    # phase name → ns at which the driver entered it.
    phases: dict[str, int] = {}
    campaign = _campaign_for(scenario, seed, cluster, shard_nodes, span_ns)
    fault_proc = None

    stores = {name: KVStore(name) for name in shard_nodes}
    clients: dict[str, object] = {}
    servers: dict[str, object] = {}
    outcome = {"failed": 0}
    ryw_violations: list[dict] = []

    def wire():
        for j, name in enumerate(shard_nodes):
            front = cluster.nodes[j % frontends]
            _, cli_ep = front.attach_process(f"kv.cli.{name}")
            _, srv_ep = cluster.nodes[frontends + j].attach_process(
                f"kv.srv.{name}")
            client, server = yield connect_reliable_rpc(
                cli_ep, srv_ep, f"kv.{name}", stores[name].program())
            clients[name] = client
            servers[name] = server

    # The driver's tallies of completed requests (read by the registry).
    e2e_ns: list[int] = []
    shard_ns: dict[str, list[int]] = {name: [] for name in shard_nodes}
    served = {(name, op): 0 for name in shard_nodes for op in ("get", "put")}

    def collect():
        yield "histogram", "kv.e2e_ns", {}, e2e_ns
        for name, samples in shard_ns.items():
            yield "histogram", "kv.shard_ns", {"shard": name}, samples
        for (name, op), n in served.items():
            yield "counter", "kv.requests", {"shard": name, "op": op}, n

    env.collectors.append(collect)

    def do_request(req, arrival_ns):
        shard = shard_of[req.index]
        client = clients[shard]
        try:
            if req.op == "put":
                dec = yield client.call(PROC_PUT,
                                        encode_put_args(req.key, req.value))
                decode_put_reply(dec)
            else:
                dec = yield client.call(PROC_GET, encode_get_args(req.key))
                found, value, _version = decode_get_reply(dec)
                want = expected[req.index]
                got = value if found else None
                if got != want:
                    ryw_violations.append({
                        "index": req.index, "key": req.key, "shard": shard,
                        "found": found})
        except (RetriesExhausted, RPCError):
            outcome["failed"] += 1
            count(env, "kv.failures", shard=shard)
            return
        latency = env.now - arrival_ns
        e2e_ns.append(latency)
        shard_ns[shard].append(latency)
        served[shard, req.op] += 1

    def driver():
        # Open-loop replay: wire the tier, then fire every request at
        # its scheduled arrival (rebased past wiring) without ever
        # waiting for the service.
        nonlocal fault_proc
        yield env.process(wire())
        phases["replay"] = env.now
        if campaign is not None:
            fault_proc = FaultInjector(cluster).run(campaign)
        t0 = env.now
        pending = []
        for req in schedule_reqs:
            arrival = t0 + req.at_ns
            wait = arrival - env.now
            if wait > 0:
                yield env.timeout(wait)
            pending.append(env.process(do_request(req, arrival),
                                       name=f"kv.req{req.index}"))
        for proc in pending:
            yield proc
        phases["drain"] = env.now

    env.run(until=env.process(driver(), name="kv.driver"))
    elapsed_ns = env.now
    workload_ns = phases["drain"] - phases["replay"]
    fault_stats = None if fault_proc is None else env.run(until=fault_proc)

    shard_counts = {name: 0 for name in shard_nodes}
    for shard in shard_of.values():
        shard_counts[shard] += 1
    mean_count = len(schedule_reqs) / len(shard_nodes)
    registry.uninstall()
    per_shard = {}
    for name in shard_nodes:
        shard_snap = registry.histogram("kv.shard_ns", shard=name).snapshot()
        per_shard[name] = dict(_tail(shard_snap), routed=shard_counts[name],
                               served=stores[name].gets + stores[name].puts)

    transport = {"retransmits": 0, "timeouts": 0, "reimports": 0,
                 "reply_failures": 0}
    for name in shard_nodes:
        for stats in (clients[name].sender.stats,
                      servers[name].sender.stats):
            transport["retransmits"] += stats.retransmits
            transport["timeouts"] += stats.timeouts
            transport["reimports"] += stats.reimports
        transport["reply_failures"] += servers[name].reply_failures

    # Hot-key pressure: the most popular key's share of the schedule.
    key_counts: dict[int, int] = {}
    for req in schedule_reqs:
        key_counts[req.key] = key_counts.get(req.key, 0) + 1

    completed = sum(served.values())
    gets = sum(n for (_name, op), n in served.items() if op == "get")
    report = {
        "bench": "kv",
        "scenario": scenario,
        "seed": seed,
        "shards": shards,
        "frontends": frontends,
        "requests": requests,
        "nkeys": nkeys,
        "skew": skew,
        "load": load,
        "get_fraction": get_fraction,
        "base_gap_ns": base_gap_ns,
        "elapsed_ns": elapsed_ns,
        "workload_ns": workload_ns,
        "completed": completed,
        "failed": outcome["failed"],
        "gets": gets,
        "puts": completed - gets,
        "latency_ns": registry.histogram("kv.e2e_ns").snapshot(),
        "per_shard": per_shard,
        "imbalance": round(max(shard_counts.values()) / mean_count, 4),
        "hot_key_fraction": round(
            max(key_counts.values()) / len(schedule_reqs), 4),
        "requests_per_sec": (
            round(completed * 1e9 / workload_ns, 3)
            if workload_ns else 0.0),
        "transport": transport,
        "ryw_violations": ryw_violations[:10],
        "ryw_violations_total": len(ryw_violations),
        "phases": dict(sorted(phases.items())),
        "faults": None if fault_stats is None else fault_stats.as_dict(),
    }
    return report

