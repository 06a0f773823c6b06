"""The four benchmark workloads, driven through public entry points only.

Every workload is a list of *units* (one trial, boot or stream cell); a
unit's wall time is what the harness times.  Unit ``i`` of a run uses
seed ``S + i``, so a run never repeats an input.  Four methods per
workload:

* ``units(seed, shape)`` — the unit list; ``shape`` is ``full`` (the
  benchmark), ``warm`` (the one untimed set-up unit) or ``check`` (the
  tiny determinism-check shape);
* ``run(unit)`` — the timed call; returns whatever the entry point does;
* ``digest(unit, raw, snapshots)`` — untimed: simulated outputs
  (JSON-able, integer-ns deterministic), work done, operations attempted
  and failed, and latency samples; ``snapshots`` is the unit's
  ``(registry, snapshot)`` list, the trial's own registry last;
* ``summarise(digests)`` — pooled simulated statistics of the run.

Simulated outputs never contain host time; host time never enters a
fingerprint.  See README.md for why each workload is here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bench.microbench import (VmmcPair, spin_until_stamp,
                                    vmmc_bidirectional_bandwidth,
                                    vmmc_oneway_bandwidth,
                                    vmmc_pingpong_latency)
from repro.cluster import Cluster, TestbedConfig
from repro.dsm.bench import run_dsm_trial
from repro.dsm.directory import DirectoryError
from repro.kv.bench import run_kv_trial
from repro.obs.breakdown import STAGE_KEYS, measure_stage_breakdown
from repro.rpc import RPCProgram, VRPCClient, VRPCServer

#: Request-latency limit of the KV serving tier (p99, failures count
#: as misses).
KV_LATENCY_LIMIT_NS = 250_000

#: Paper reference values for the three anchors (sections 5.3, 5.4).
PAPER = {"one_way_us": 9.8, "peak_mbps": 98.4, "null_rpc_us": 66.0}


@dataclass(frozen=True)
class Unit:
    label: str
    seed: int
    params: dict = field(default_factory=dict)


class Workload:
    """What the harness calls on every workload (see the module text)."""

    name: str
    work_name: str

    def finish(self):
        """Untimed tail after the timed units; its simulated outputs
        join the fingerprint.  Nothing by default."""
        return None


def _seeded(cells: list[tuple[str, dict]], seed: int) -> list[Unit]:
    return [Unit(label, seed + i, params)
            for i, (label, params) in enumerate(cells)]


# -- sample handling ---------------------------------------------------------
def quantile(ordered: list, q: float) -> float:
    """Rank-interpolated quantile, the rule ``repro.obs`` histograms use."""
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac


def supports(nsamples: int, q: float) -> bool:
    """The percentile rule: at least ten samples lie beyond ``q``."""
    return nsamples * (1.0 - q) >= 10.0


def series(snapshot: dict, name: str):
    """``(key, labels)`` of every labelled series of base metric ``name``."""
    for key in snapshot:
        base, _, rest = key.partition("{")
        if base == name:
            labels = (dict(item.split("=", 1)
                           for item in rest[:-1].split(",")) if rest else {})
            yield key, labels


def histogram_samples(registry, snapshot: dict, name: str) -> list[int]:
    """Every sample of every series of histogram ``name``, sorted.

    ``Histogram`` publishes quantiles, not its sample list; asking for
    the quantile at each rank returns the samples themselves (integer
    ns, so rounding removes the interpolation's float fuzz).
    """
    out: list[int] = []
    for _key, labels in series(snapshot, name):
        hist = registry.histogram(name, **labels)
        n = hist.count
        if n == 1:
            out.append(round(hist.quantile(0.0)))
        elif n > 1:
            out.extend(round(hist.quantile(i / (n - 1))) for i in range(n))
    out.sort()
    return out


def _tail_us(samples: list[int]) -> dict:
    ordered = sorted(samples)
    return {"n": len(ordered),
            "p50_us": quantile(ordered, 0.50) / 1000.0,
            "p95_us": quantile(ordered, 0.95) / 1000.0,
            "p99_us": quantile(ordered, 0.99) / 1000.0}


def _timed_digest(raw: dict, **fields) -> dict:
    """A digest whose simulated outputs are ``raw`` with the per-message
    latencies folded to their sum (the samples travel separately)."""
    sim = dict(raw)
    latencies = sim.pop("latency_ns", [])
    sim["latency_sum_ns"] = sum(latencies)
    return dict(fields, sim=sim, samples={"latency_ns": latencies})


def _pool(digests: list[dict], key: str = "latency_ns") -> list[int]:
    return [v for d in digests for v in d["samples"].get(key, ())]


# -- kv-serve ----------------------------------------------------------------
class KvServe(Workload):
    """Open-loop sharded KV serving at 25 k, 50 k (three seeds, pooled)
    and 100 k req/s offered."""

    name = "kv-serve"
    work_name = "requests"
    #: offered rate label -> inter-arrival gap (ns)
    RATES = {"r25k": 40_000, "r50k": 20_000, "r100k": 10_000}

    def units(self, seed: int, shape: str) -> list[Unit]:
        if shape == "warm":
            cells = [("r50k", 40)]
        elif shape == "check":
            cells = [("r25k", 40), ("r50k", 40), ("r100k", 40)]
        else:
            cells = [("r25k", 1000), ("r50k", 1000), ("r50k", 1000),
                     ("r50k", 1000), ("r100k", 1000)]
        return _seeded([(rate, {"rate": rate, "requests": n})
                        for rate, n in cells], seed)

    def run(self, unit: Unit) -> dict:
        return run_kv_trial(
            unit.seed, shards=4, requests=unit.params["requests"],
            nkeys=512, skew=0.9, get_fraction=0.8, load="steady",
            scenario="clean", base_gap_ns=self.RATES[unit.params["rate"]])

    def digest(self, unit: Unit, report: dict, snapshots) -> dict:
        registry, snapshot = snapshots[-1]
        requests = report["requests"]
        unfinished = requests - report["completed"] - report["failed"]
        return {
            "sim": report,
            "work": report["completed"],
            "attempted": requests,
            "failed": (report["failed"] + unfinished
                       + report["ryw_violations_total"]),
            "samples": {"latency_ns": histogram_samples(
                registry, snapshot, "kv.e2e_ns")},
        }

    def summarise(self, digests: list[dict]) -> dict:
        by_rate: dict[str, list[dict]] = {}
        for d in digests:
            by_rate.setdefault(d["unit"].params["rate"], []).append(d)
        layer: dict[str, float] = {}
        tails: dict[str, dict] = {}
        slo_rate = 0
        for rate, group in by_rate.items():
            pooled = _pool(group)
            tails[rate] = _tail_us(pooled)
            layer[f"kv.{rate}.p50_us"] = tails[rate]["p50_us"]
            layer[f"kv.{rate}.p99_us"] = tails[rate]["p99_us"]
            # A failed or unfinished request misses the limit, so the
            # p99 rule is "at least 99 % of *attempted* within it".
            within = sum(1 for v in pooled if v <= KV_LATENCY_LIMIT_NS)
            if within >= 0.99 * sum(d["attempted"] for d in group):
                slo_rate = max(slo_rate, 10**9 // self.RATES[rate])
        layer.pop("kv.r100k.p50_us", None)  # overloaded: only its tail counts
        served, overload = by_rate["r50k"], by_rate["r100k"]
        tail = tails["r50k"]
        reports = [d["sim"] for d in digests]
        layer.update({
            "kv.slo_rate_rps": slo_rate,
            # Last completion minus last arrival: grows with the run
            # length when the queue is not stable.
            "kv.r100k.backlog_ns": max(
                d["sim"]["workload_ns"]
                - d["sim"]["requests"] * d["sim"]["base_gap_ns"]
                for d in overload),
            # The open-loop driver fires in simulated time, where it
            # cannot fall behind its schedule.
            "kv.generator_lag_ns": 0,
            "kv.shard_p99_us_max": max(
                shard["p99"] for d in served
                for shard in d["sim"]["per_shard"].values()) / 1000.0,
            "kv.requests": sum(r["completed"] for r in reports),
            "kv.failures": sum(r["failed"] for r in reports),
            "kv.ryw_violations": sum(r["ryw_violations_total"]
                                     for r in reports),
            "kv.imbalance": max(r["imbalance"] for r in reports),
            "kv.hot_key_fraction": max(r["hot_key_fraction"]
                                       for r in reports),
            "rpc.calls_sent": sum(r["requests"] for r in reports),
            "rpc.calls_served": sum(s["served"] for r in reports
                                    for s in r["per_shard"].values()),
            "rpc.reply_failures": sum(r["transport"]["reply_failures"]
                                      for r in reports),
        })
        return {
            "sim_p50_us": tail["p50_us"], "sim_p95_us": tail["p95_us"],
            "latency_samples": tail["n"],
            "sim_work_per_s": (sum(d["sim"]["completed"] for d in overload)
                               * 1e9
                               / sum(d["sim"]["workload_ns"]
                                     for d in overload)),
            "layer": layer,
        }


# -- dsm-chaos ---------------------------------------------------------------
class DsmChaos(Workload):
    """Closed-loop 4-rank DSM under loss and a daemon cold restart."""

    name = "dsm-chaos"
    work_name = "ops"
    SCENARIOS = ("clean", "error-burst", "daemon-cold-crash")

    def units(self, seed: int, shape: str) -> list[Unit]:
        if shape == "warm":
            cells = [("clean", 6)]
        elif shape == "check":
            cells = [(s, 8) for s in self.SCENARIOS]
        else:
            cells = [(s, 200) for s in self.SCENARIOS for _ in range(2)]
        return _seeded([(s, {"scenario": s, "ops_per_node": n})
                        for s, n in cells], seed)

    def run(self, unit: Unit):
        try:
            return run_dsm_trial(
                unit.seed, nnodes=4, npages=64, page_bytes=256,
                ops_per_node=unit.params["ops_per_node"],
                scenario=unit.params["scenario"])
        except DirectoryError as exc:
            return exc

    def digest(self, unit: Unit, report, snapshots) -> dict:
        if isinstance(report, DirectoryError):
            # The trial stops at the broken invariant: every op of the
            # unit (64 warm-up writes, then the mixed phase) is
            # unaccounted for, so every op counts as failed.
            ops = 64 + 4 * unit.params["ops_per_node"]
            return {"sim": {"directory_error": str(report)}, "work": 0,
                    "attempted": ops, "failed": ops, "samples": {},
                    "writes": 0}
        registry, snapshot = snapshots[-1]
        return {
            "writes": sum(snapshot[key]
                          for key, labels in series(snapshot, "dsm.ops")
                          if labels["kind"] == "write"),
            "sim": report,
            "work": report["ops_total"],
            "attempted": report["ops_total"],
            "failed": len(report["sc_violations"]),
            "samples": {"latency_ns": histogram_samples(
                registry, snapshot, "dsm.fault.fetch_ns")},
        }

    def summarise(self, digests: list[dict]) -> dict:
        reports = [d["sim"] for d in digests
                   if "directory_error" not in d["sim"]]
        tail = _tail_us(_pool(digests))

        def total(key: str) -> int:
            return sum(r["counters"][key] for r in reports)

        faults = total("read_faults") + total("write_faults")
        writes = sum(d["writes"] for d in digests)
        layer = {
            "dsm.read_faults": total("read_faults"),
            "dsm.write_faults": total("write_faults"),
            "dsm.local_hits": total("local_hits"),
            "dsm.pages_fetched": total("pages_fetched"),
            "dsm.invalidations_sent": total("invalidations_sent"),
            "dsm.hit_ratio": total("local_hits")
            / max(1, total("local_hits") + faults),
            "dsm.invalidations_per_write": total("invalidations_sent")
            / max(1, writes),
            "dsm.sc_violations": sum(len(r["sc_violations"])
                                     for r in reports),
            "mp.redeliveries": sum(r["mp"]["redeliveries"]
                                   for r in reports),
            "mp.stale_recoveries": sum(r["mp"]["stale_recoveries"]
                                       for r in reports),
            "mp.credit_reacks": sum(r["mp"]["credit_reacks"]
                                    for r in reports),
        }
        return {
            "sim_p50_us": tail["p50_us"], "sim_p95_us": tail["p95_us"],
            "latency_samples": tail["n"],
            "sim_work_per_s": (total("pages_fetched") * 1e9
                               / sum(r["workload_ns"] for r in reports)),
            "layer": layer,
        }


# -- shared VMMC helpers -----------------------------------------------------
def _stamp(buffer, size: int, seq: int) -> None:
    """Sequence number into the message's last word (``size`` >= 4)."""
    buffer.write(np.frombuffer(np.uint32(seq).tobytes(), dtype=np.uint8),
                 offset=size - 4)


def _stratified_sizes(rng, n: int, lo: int, hi: int) -> list[int]:
    """``n`` message sizes covering ``[lo, hi]`` evenly in log space: one
    per stratum, placed inside it and shuffled by the seed.  Every seed
    sees the same size *distribution* (so medians barely move) but never
    the same sizes.  Sizes are multiples of 4, at least 4."""
    edges = np.linspace(np.log(lo), np.log(hi), n + 1)
    picks = np.exp(edges[:-1] + rng.uniform(0.0, 1.0, n) * np.diff(edges))
    rng.shuffle(picks)
    return [max(4, int(size) // 4 * 4) for size in picks]


def _payload(seed: int, nbytes: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(
        0, 256, size=nbytes, dtype=np.uint8)


# -- fabric-boot -------------------------------------------------------------
class FabricBoot(Workload):
    """Boot a 64-node fabric at default memory, then seeded pair traffic."""

    name = "fabric-boot"
    work_name = "nodes"
    #: message sizes of the pair phase (bytes): up to two pages
    SIZES = (256, 8192)

    def units(self, seed: int, shape: str) -> list[Unit]:
        if shape in ("warm", "check"):
            topologies = (["fattree:4,h=2"] if shape == "warm"
                          else ["fattree:4,h=2", "mesh:3x3"])
            cells = [(t, 4, 5) for t in topologies]
        else:
            cells = [(t, 16, 25) for t in ("fattree:8,h=2", "mesh:8x8")
                     for _ in range(2)]
        return _seeded([(t.split(":")[0],
                         {"topology": t, "pairs": p, "messages": m})
                        for t, p, m in cells], seed)

    def run(self, unit: Unit) -> dict:
        cluster = Cluster.build(TestbedConfig(),
                                topology=unit.params["topology"])
        env = cluster.env
        boot_events, boot_ns = env.events_processed, env.now
        traffic = self._pair_traffic(cluster, unit)
        return dict(traffic, nodes=len(cluster.nodes),
                    boot_events=boot_events, boot_ns=boot_ns,
                    mapping_probes=cluster.mapping.probes_sent,
                    deadlock_report=cluster.mapping.deadlock is not None,
                    elapsed_ns=env.now)

    def _pair_traffic(self, cluster: Cluster, unit: Unit) -> dict:
        """``pairs`` seeded disjoint pairs, each sending ``messages``
        seeded payloads of seeded sizes one at a time; a message's
        latency runs from the send call to the receiver observing its
        last word."""
        env = cluster.env
        messages = unit.params["messages"]
        rng = np.random.default_rng(unit.seed)
        perm = [int(i) for i in rng.permutation(len(cluster.nodes))]
        pairs = [(perm[2 * i], perm[2 * i + 1])
                 for i in range(unit.params["pairs"])]
        sizes = [_stratified_sizes(rng, messages, *self.SIZES)
                 for _ in pairs]
        routes = cluster.fabric.route_table
        latencies: list[int] = []
        delivered = []
        span = {"t0": None, "t1": 0}

        def stream(i: int, s: int, d: int):
            _, ep_rx = cluster.nodes[d].attach_process(f"rx.p{i}")
            _, ep_tx = cluster.nodes[s].attach_process(f"tx.p{i}")
            inbox = ep_rx.alloc_buffer(self.SIZES[1])
            yield ep_rx.export(inbox, f"in.p{i}")
            imported = yield ep_tx.import_buffer(f"node{d}", f"in.p{i}")
            src = ep_tx.alloc_buffer(self.SIZES[1])
            src.write(_payload(unit.seed * 1000 + i, self.SIZES[1]))
            if span["t0"] is None:
                span["t0"] = env.now
            for seq, size in enumerate(sizes[i], start=1):
                _stamp(src, size, seq)
                start = env.now
                yield ep_tx.send(src, imported.at(0), size)
                yield spin_until_stamp(ep_rx, inbox, size, seq)
                latencies.append(env.now - start)
                delivered.append(bool(np.array_equal(
                    inbox.read(0, size), src.read(0, size))))
            span["t1"] = max(span["t1"], env.now)

        procs = [env.process(stream(i, s, d))
                 for i, (s, d) in enumerate(pairs)]
        env.run(until=env.all_of(procs))
        return {
            "pairs": pairs,
            "hops": [len(routes[(f"node{s}", f"node{d}")])
                     for s, d in pairs],
            "latency_ns": latencies,
            "messages": len(pairs) * messages,
            "delivered": sum(delivered),
            "bytes": sum(map(sum, sizes)),
            "traffic_ns": span["t1"] - span["t0"],
        }

    def digest(self, unit: Unit, raw: dict, snapshots) -> dict:
        return _timed_digest(
            raw, work=raw["nodes"],
            # One deadlock-freedom proof per boot plus every message.
            attempted=raw["messages"] + 1,
            failed=(raw["messages"] - raw["delivered"]
                    + (not raw["deadlock_report"])))

    def summarise(self, digests: list[dict]) -> dict:
        tail = _tail_us(_pool(digests))
        sims = [d["sim"] for d in digests]
        return {
            "sim_p50_us": tail["p50_us"], "sim_p95_us": tail["p95_us"],
            "latency_samples": tail["n"],
            # bytes/ns is GB/s; the metric is delivered bytes per second.
            "sim_work_per_s": (sum(s["bytes"] for s in sims) * 1e9
                               / sum(s["traffic_ns"] for s in sims)),
            "layer": {},
        }


# -- fig3-stream -------------------------------------------------------------
def anchors() -> dict:
    """The paper's three headline numbers, simulated (untimed step).

    4-byte one-way latency (Figure 2), the 256 KB one-way peak (Figure
    3; streaming bandwidth does not depend on the iteration count), a
    null vRPC round trip with the ``vrpc`` campaign's shape (section
    5.4) and the section-5.2 stage table; shapes match the committed
    ``BENCH_*.json`` baselines.
    """
    pair = VmmcPair(TestbedConfig(nnodes=2, memory_mb=16),
                    buffer_bytes=4096)
    one_way_us = vmmc_pingpong_latency(pair, 4, iterations=50).one_way_us
    pair = VmmcPair(TestbedConfig(nnodes=2, memory_mb=32),
                    buffer_bytes=262144)
    peak_mbps = vmmc_oneway_bandwidth(pair, 262144, 8).mbps

    cluster = Cluster.build(TestbedConfig(nnodes=2, memory_mb=32))
    env = cluster.env
    _, client_ep = cluster.nodes[0].attach_process("client")
    _, server_ep = cluster.nodes[1].attach_process("server")
    program = RPCProgram(0x20000001, 1)
    program.register(0, lambda dec: b"")
    server = VRPCServer(server_ep, "node1", program)
    calls = 10
    result = {}

    def app():
        channel = yield server.accept(client_ep, "node0", "cli")
        client = VRPCClient(channel, program.number, program.version)
        yield client.call(0)                    # warm the path
        t0 = env.now
        for _ in range(calls):
            yield client.call(0)
        result["ns"] = env.now - t0

    env.run(until=env.process(app()))
    stages = measure_stage_breakdown(4)
    return {
        "one_way_us": one_way_us,
        "peak_mbps": peak_mbps,
        "null_rpc_us": result["ns"] / calls / 1000.0,
        "stages_ns": {key: ns for key, (_label, ns)
                      in zip(STAGE_KEYS, stages.stages)},
        "stages_total_ns": stages.total_ns,
    }


def paper_err_pct(anchor: dict) -> float:
    """Largest relative distance of an anchor from the paper, in %."""
    return max(abs(anchor[key] - ref) / ref
               for key, ref in PAPER.items()) * 100.0


class Fig3Stream(Workload):
    """The paper's bandwidth experiment plus a seeded message-size mix."""

    name = "fig3-stream"
    work_name = "MB"
    MIX_MAX = 256 * 1024

    def units(self, seed: int, shape: str) -> list[Unit]:
        if shape == "warm":
            cells = [("oneway", 4096, 20)]
        elif shape == "check":
            cells = [("oneway", 4096, 8), ("oneway", 65536, 4),
                     ("oneway", 262144, 3), ("bidir", 65536, 3),
                     ("mix", self.MIX_MAX, 12)]
        else:
            cells = [("oneway", 4096, 4000), ("oneway", 65536, 600),
                     ("oneway", 262144, 160), ("bidir", 65536, 320),
                     ("mix", self.MIX_MAX, 1300)]
        return _seeded(
            [(f"{pattern}-{size // 1024}k",
              {"pattern": pattern, "size": size, "iters": iters})
             for pattern, size, iters in cells], seed)

    def run(self, unit: Unit) -> dict:
        pattern, size, iters = (unit.params[k]
                                for k in ("pattern", "size", "iters"))
        pair = VmmcPair(TestbedConfig(nnodes=2, memory_mb=32),
                        buffer_bytes=max(size, 65536))
        # Seeded payloads: the link CRC runs over real bytes, and the
        # check below compares what arrived with what was sent.
        pair.src_a.write(_payload(unit.seed, size))
        pair.src_b.write(_payload(unit.seed + 1, size))
        if pattern == "mix":
            return self._mix(pair, unit)
        if pattern == "oneway":
            mbps = vmmc_oneway_bandwidth(pair, size, iters).mbps
            moved = size * iters
            checks = [(pair.inbox_b, pair.src_a)]
        else:
            mbps = vmmc_bidirectional_bandwidth(pair, size, iters).mbps
            moved = 2 * size * iters
            checks = [(pair.inbox_b, pair.src_a), (pair.inbox_a, pair.src_b)]
        # The last message (stamp included) must sit intact in the inbox.
        mismatches = sum(
            not np.array_equal(inbox.read(0, size), src.read(0, size))
            for inbox, src in checks)
        return {"mbps": mbps, "bytes": moved, "messages": moved // size,
                "mismatches": mismatches, "elapsed_ns": pair.env.now}

    def _mix(self, pair: VmmcPair, unit: Unit) -> dict:
        """``iters`` messages of seeded sizes spread over Figure 3's x
        axis (4 B .. 256 KB), sent one at a time; each is timed from the
        send call to the receiver observing its last word."""
        env = pair.env
        sizes = _stratified_sizes(np.random.default_rng(unit.seed),
                                  unit.params["iters"], 4,
                                  unit.params["size"])
        latencies: list[int] = []
        mismatches = 0

        def app():
            nonlocal mismatches
            for seq, size in enumerate(sizes, start=1):
                _stamp(pair.src_a, size, seq)
                start = env.now
                yield pair.ep_a.send(pair.src_a, pair.to_b, size)
                yield spin_until_stamp(pair.ep_b, pair.inbox_b, size, seq)
                latencies.append(env.now - start)
                mismatches += not np.array_equal(
                    pair.inbox_b.read(0, size), pair.src_a.read(0, size))

        pair.run(app())
        return {"sizes": sizes, "latency_ns": latencies,
                "bytes": sum(sizes), "messages": len(sizes),
                "mismatches": mismatches, "elapsed_ns": env.now}

    def digest(self, unit: Unit, raw: dict, snapshots) -> dict:
        return _timed_digest(raw, work=raw["bytes"] / 1e6,
                             attempted=raw["messages"],
                             failed=raw["mismatches"])

    def finish(self) -> dict:
        """The untimed anchor step, run once after the timed units."""
        return anchors()

    def summarise(self, digests: list[dict]) -> dict:
        mix = [d for d in digests if d["unit"].params["pattern"] == "mix"]
        tail = _tail_us(_pool(mix))
        layer = {}
        for d in digests:
            params = d["unit"].params
            if params["pattern"] != "mix":
                layer[f"fig3.{params['pattern']}_mbps_"
                      f"{params['size'] // 1024}k"] = d["sim"]["mbps"]
        return {
            "sim_p50_us": tail["p50_us"], "sim_p95_us": tail["p95_us"],
            "latency_samples": tail["n"],
            # bytes/ns is GB/s; the metric is delivered bytes per second.
            "sim_work_per_s": (sum(d["sim"]["bytes"] for d in mix) * 1e9
                               / sum(d["sim"]["latency_sum_ns"]
                                     for d in mix)),
            "layer": layer,
        }


WORKLOADS = {w.name: w for w in (KvServe(), DsmChaos(), FabricBoot(),
                                 Fig3Stream())}
