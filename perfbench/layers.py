"""Per-layer metrics of a traced run, derived from outside the program.

Three sources, one per metric kind:

* **count / sim** — the ``repro.obs`` registry snapshots of every unit
  (each unit has the registry :func:`tracing.install_tracing` injected at
  ``Cluster.build`` plus, for KV and DSM, the trial's own), the public
  stats of captured objects, and the call counters;
* **span** — summed self-times of the recorded spans;
* **probe** — :mod:`probes`.

Workload-specific statistics (``kv.*``, ``dsm.*``, ``fig3.*``) come from
the workload's own ``summarise``.  A layer the workload does not
exercise reports 0.
"""

from __future__ import annotations

from workloads import histogram_samples, quantile, series

#: additive count metric -> registry counter it sums
COUNTERS = {
    "hw.bus.dma_transactions": "bus.dma.transactions",
    "hw.bus.dma_bytes": "bus.dma.bytes",
    "hw.bus.pio_words": "bus.pio.words",
    "hw.lanai.hostdma_bytes": "hostdma.bytes",
    "hw.lanai.stalls": "lanai.stalls",
    "hw.lanai.stall_ns": "lanai.stall_ns",
    "hw.myrinet.link_packets": "link.packets",
    "hw.myrinet.link_bytes": "link.bytes",
    "hw.myrinet.link_busy_ns": "link.busy_ns",
    "hw.myrinet.switch_forwarded": "switch.forwarded",
    "hw.myrinet.switch_drops": "switch.drops",
    "hw.myrinet.crc_errors": "net.crc_errors",
    "hostos.interrupts": "kernel.interrupts",
    "hostos.signals": "kernel.signals",
    "hostos.ether_frames": "ether.frames",
    "hostos.ether_bytes": "ether.bytes",
    "vmmc.sends_posted": "vmmc.sends_posted",
    "vmmc.lcp_sends": "lcp.sends",
    "vmmc.lcp_chunks": "lcp.chunks",
    "vmmc.lcp_packets_delivered": "lcp.packets_delivered",
    "vmmc.lcp_tlb_miss_interrupts": "lcp.tlb_miss_interrupts",
    "vmmc.daemon_imports": "daemon.imports",
    "vmmc.daemon_exports": "daemon.exports",
    "vmmc.daemon_cold_restarts": "daemon.cold_restarts",
    "reliable.retransmits": "rel.retransmits",
    "reliable.timeouts": "rel.timeouts",
    "reliable.duplicates": "rel.duplicates",
    "reliable.stale_transmits": "rel.stale_transmits",
    "reliable.reimports": "rel.reimports",
    "faults.raised": "faults.raised",
    "faults.cleared": "faults.cleared",
}
#: additive metric -> histogram whose sample sum it is
HISTOGRAM_SUMS = {
    "hw.bus.dma_busy_ns": "bus.dma.duration_ns",
    "faults.duration_ns": "faults.duration_ns",
}
#: high-water metric -> gauge whose maximum it is
GAUGE_MAXIMA = {
    "hw.bus.dma_queue_depth_max": "bus.dma.queue_depth",
    "hw.lanai.hostdma_queue_depth_max": "hostdma.queue_depth",
    "reliable.inflight_max": "rel.inflight",
}
#: median metric -> histogram pooled over series and units
HISTOGRAM_MEDIANS = {
    "vmmc.lcp_send_service_ns_p50": "lcp.send.service_ns",
    "vmmc.send_sync_ns_p50": "vmmc.send.sync_ns",
    "reliable.rtt_ns_p50": "rel.rtt_ns",
}
#: median metric -> gauge whose final values are pooled over channels
GAUGE_MEDIANS = {
    "reliable.rto_ns_p50": "rel.rto_ns",
    "reliable.cwnd_p50": "rel.cwnd",
}
#: span metric (seconds) -> span name
SPANS = {
    "sim.run_s": "sim.run",
    "mem.physical_init_s": "mem.physical_init",
    "hw.myrinet.topology_build_s": "hw.myrinet.topology_build",
    "hw.myrinet.deadlock_check_s": "hw.myrinet.deadlock_check",
    "dsm.checker_s": "dsm.checker",
    "kv.workload_gen_s": "kv.workload_gen",
    "host.gc_s": "host.gc",
}


def unit_counts(capture, snapshots: list, calls: dict) -> dict:
    """One unit's raw layer numbers (added or maxed over units later).

    ``snapshots`` is the unit's ``(registry, snapshot)`` list; ``calls``
    the call counters as they stood when the unit's timed call returned.
    """

    def each(name: str):
        for _registry, snapshot in snapshots:
            for key, labels in series(snapshot, name):
                yield snapshot[key], labels

    add = {metric: sum(v for v, _ in each(name))
           for metric, name in COUNTERS.items()}
    for metric, name in HISTOGRAM_SUMS.items():
        add[metric] = sum(v["sum"] for v, _ in each(name))
    add.update({
        "sim.events": sum(env.events_processed for env in capture.envs),
        "cluster.boot_events": capture.boot_events,
        "vmmc.mapping_probes": sum(c.mapping.probes_sent
                                   for c in capture.clusters),
        "reliable.messages_delivered": sum(
            s.stats.messages_delivered for s in capture.senders),
        "reliable.paced_ns": sum(s.stats.paced_ns
                                 for s in capture.senders),
        "obs.series": sum(len(snapshot) for _, snapshot in snapshots),
        "net.tx_packets": sum(v for v, labels in each("net.packets")
                              if labels.get("dir") == "tx"),
        "obs.records": calls.get("obs.records", 0),
        "mem.translate_calls": calls.get("mem.translate", 0),
        "mem.notify_write_calls": calls.get("mem.notify_write", 0),
    })
    peak = {metric: max((v["max"] for v, _ in each(name)), default=0)
            for metric, name in GAUGE_MAXIMA.items()}
    pooled = {metric: [s for registry, snapshot in snapshots
                       for s in histogram_samples(registry, snapshot, name)]
              for metric, name in HISTOGRAM_MEDIANS.items()}
    for metric, name in GAUGE_MEDIANS.items():
        pooled[metric] = [v["value"] for v, _ in each(name)]
    return {"add": add, "peak": peak, "pooled": pooled}


def combine(units: list[dict], ops: float, wall_s: float,
            span_self: dict[str, float]) -> dict[str, float]:
    """Fold per-unit numbers into the run's count, sim and span metrics.

    ``ops`` is the run's completed work (the workload's own unit of
    work) and ``wall_s`` the traced units' summed wall time.
    """
    add: dict[str, float] = {}
    peak: dict[str, float] = {}
    pooled: dict[str, list] = {}
    for unit in units:
        for key, value in unit["add"].items():
            add[key] = add.get(key, 0) + value
        for key, value in unit["peak"].items():
            peak[key] = max(peak.get(key, 0), value)
        for key, values in unit["pooled"].items():
            pooled.setdefault(key, []).extend(values)

    out = {k: v for k, v in add.items()
           if k in COUNTERS or k in HISTOGRAM_SUMS}
    out.update(peak)
    for metric, values in pooled.items():
        out[metric] = quantile(sorted(values), 0.5) if values else 0
    delivered = add["reliable.messages_delivered"]
    ops = max(ops, 1e-9)
    out.update({
        "sim.events": add["sim.events"],
        "sim.events_per_op": add["sim.events"] / ops,
        "cluster.boot_events": add["cluster.boot_events"],
        "vmmc.mapping_probes": add["vmmc.mapping_probes"],
        "reliable.messages_delivered": delivered,
        "reliable.paced_ns": add["reliable.paced_ns"],
        # Share of transmissions that were not repeats.
        "reliable.useful_ratio": (
            delivered / (delivered + add["reliable.retransmits"])
            if delivered else 0),
        "hw.myrinet.hops_per_packet": (
            add["hw.myrinet.switch_forwarded"] / add["net.tx_packets"]
            if add["net.tx_packets"] else 0),
        "obs.series": add["obs.series"],
        "obs.records_per_op": add["obs.records"] / ops,
        "mem.translate_calls_per_op": add["mem.translate_calls"] / ops,
        "mem.notify_write_calls_per_op":
            add["mem.notify_write_calls"] / ops,
    })
    for metric, name in SPANS.items():
        out[metric] = span_self.get(name, 0.0)
    build_s = (span_self.get("cluster.build", 0.0)
               + span_self.get("cluster.boot", 0.0))
    out.update({
        "cluster.build_s": build_s,
        "cluster.build_share": build_s / wall_s,
        "sim.run_share": out["sim.run_s"] / wall_s,
        "host.gc_share": out["host.gc_s"] / wall_s,
        "obs.snapshot_ms": span_self.get("obs.snapshot", 0.0) * 1e3,
    })
    return out
