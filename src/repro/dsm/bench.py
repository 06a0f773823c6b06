"""Seeded multi-node DSM workload driver (the ``dsm`` campaign's trial).

One trial = one cluster, one seed, one chaos scenario:

* **warmup** — every rank writes its home pages (unique values);
* **mixed** — every rank runs a seeded 60/40 read/write stream over the
  whole page space, values unique per (rank, op);
* **drain** — barrier, protocol tails settle.

Rank 0 records when each phase starts and starts the chaos campaign as
it enters the mixed phase, so fault times are offsets from ``run()``
(the start of the mixed phase) and land inside it regardless of how
long wiring and warmup took.

Every op is recorded with its commit time and the whole run is fed to
:func:`~repro.dsm.checker.check_sequential_consistency`; the report
carries the violations list (empty ⇔ coherent), per-fault fetch-latency
percentiles, pages/sec, invalidations/write, and the fault campaign's
stats.  Trials are deterministic — integer-ns simulation, all
randomness from the seed — so a clean trial's report is byte-identical
across repeated invocations.
"""

from __future__ import annotations

import random

from repro.cluster import Cluster, TestbedConfig
from repro.obs.metrics import MetricsRegistry
from repro.faults import (DAEMON_COLD_CRASH, FaultCampaign, FaultEvent,
                          FaultInjector, LINK_ERROR_BURST)
from repro.dsm.checker import check_sequential_consistency
from repro.dsm.sync import build_dsm_world

SCENARIOS = ("clean", "error-burst", "daemon-cold-crash")

#: Fraction of mixed-phase ops that are reads.
READ_FRACTION = 0.6


def _pct(values: list[int], q: float) -> int:
    if not values:
        return 0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1,
                       int(q * (len(ordered) - 1) + 0.5))]


def _campaign_for(scenario: str, seed: int, nnodes: int):
    """The scenario's fault schedule, as offsets from the start of the
    mixed phase.  The victim node is seeded, so the sweep exercises
    different corners."""
    if scenario == "clean":
        return None
    rng = random.Random(seed * 9176 + 13)
    victim = rng.randrange(nnodes)
    if scenario == "error-burst":
        events = []
        for burst in range(2):
            start = 15_000 + 90_000 * burst
            for link in (f"node{victim}->sw0", f"sw0->node{victim}"):
                events.append(FaultEvent(
                    at_ns=start, kind=LINK_ERROR_BURST, target=link,
                    duration_ns=50_000, params={"rate": 1.0}))
        return FaultCampaign(name=f"dsm-burst-s{seed}", seed=seed,
                             events=tuple(events))
    if scenario == "daemon-cold-crash":
        return FaultCampaign(
            name=f"dsm-coldcrash-s{seed}", seed=seed,
            events=(FaultEvent(
                at_ns=25_000, kind=DAEMON_COLD_CRASH,
                target=f"node{victim}", duration_ns=250_000),))
    raise ValueError(f"unknown scenario {scenario!r} "
                     f"(have: {', '.join(SCENARIOS)})")


def run_dsm_trial(seed: int, *, nnodes: int = 4, npages: int = 64,
                  page_bytes: int = 256, ops_per_node: int = 24,
                  scenario: str = "clean") -> dict:
    """One seeded DSM trial; returns a JSON-serialisable report."""
    cluster = Cluster.build(TestbedConfig(nnodes=nnodes, memory_mb=32))
    env = cluster.env
    registry = MetricsRegistry().install(env)
    segments = build_dsm_world(cluster, npages=npages,
                               page_bytes=page_bytes)
    # phase name → ns at which rank 0 entered it.
    phases: dict[str, int] = {}
    campaign = _campaign_for(scenario, seed, nnodes)
    fault_proc = None

    def app(rank: int):
        nonlocal fault_proc
        segment = segments[rank]
        node = segment.node
        writes = 0

        def next_value():
            nonlocal writes
            writes += 1
            return rank * 1_000_000 + writes

        if rank == 0:
            phases["warmup"] = env.now
        for page in range(npages):
            if page % nnodes == rank:
                yield from node.write_u32(page, 0, next_value())
        yield from segment.barrier()
        if rank == 0:
            phases["mixed"] = env.now
            if campaign is not None:
                fault_proc = FaultInjector(cluster).run(campaign)
        rng = random.Random(seed * 1_000_003 + rank * 7919)
        for _ in range(ops_per_node):
            page = rng.randrange(npages)
            offset = 4 * rng.randrange(page_bytes // 4)
            if rng.random() < READ_FRACTION:
                yield from node.read_u32(page, offset)
            else:
                yield from node.write_u32(page, offset, next_value())
        yield from segment.barrier()
        if rank == 0:
            phases["drain"] = env.now

    apps = [env.process(app(rank), name=f"dsm.app{rank}")
            for rank in range(nnodes)]
    for proc in apps:
        env.run(until=proc)
    elapsed_ns = env.now
    # Active window, wiring excluded — the denominator for rates.
    workload_ns = phases["drain"] - phases["warmup"]
    fault_stats = None if fault_proc is None else env.run(until=fault_proc)

    nodes = [segment.node for segment in segments]
    for node in nodes:
        node.directory.check_invariants()
    ops = [op for node in nodes for op in node.history]
    violations = check_sequential_consistency(ops)

    counters: dict[str, int] = {}
    for node in nodes:
        for key, value in node.counters().items():
            counters[key] = counters.get(key, 0) + value
    fetches = [ns for node in nodes for ns in node.fetch_ns]
    total_writes = sum(1 for op in ops if op.kind == "w")
    ends = [node.channel_stats() for node in nodes]
    senders = [stats for tx, _ in ends for stats in tx]
    receivers = [stats for _, rx in ends for stats in rx]
    report = {
        "bench": "dsm",
        "scenario": scenario,
        "seed": seed,
        "nnodes": nnodes,
        "npages": npages,
        "page_bytes": page_bytes,
        "ops_per_node": ops_per_node,
        "ops_total": len(ops),
        "elapsed_ns": elapsed_ns,
        "workload_ns": workload_ns,
        "counters": counters,
        "fetch_ns": {
            "n": len(fetches),
            "p50": _pct(fetches, 0.50),
            "p99": _pct(fetches, 0.99),
            "max": max(fetches) if fetches else 0,
        },
        "pages_per_sec": (
            round(counters["pages_fetched"] * 1e9 / workload_ns, 3)
            if workload_ns else 0.0),
        "invalidations_per_write": (
            round(counters["invalidations_sent"] / total_writes, 4)
            if total_writes else 0.0),
        # Recovery work on the mesh's reliable channels, under the names
        # perfbench's ``dsm-chaos`` digest reads (BENCHMARK.json ``mp.*``).
        "mp": {
            "redeliveries": sum(s.retransmits for s in senders),
            "stale_recoveries": sum(s.reimports
                                    for s in senders + receivers),
            "credit_reacks": sum(s.acks_resent for s in receivers),
        },
        "phases": dict(sorted(phases.items())),
        "sc_violations": violations,
        "faults": None if fault_stats is None else fault_stats.as_dict(),
    }
    registry.uninstall()
    return report

