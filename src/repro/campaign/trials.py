"""Trial functions behind the registered campaigns.

Each function is a **top-level, picklable** entry point with the
campaign-trial signature ``trial(params, seed) -> {"metrics": ...,
"gates": ...}``; the runner fans them out across a process pool.  They
are thin adapters over the measurement drivers
(:mod:`repro.bench.microbench`, :mod:`repro.bench.chaos`,
:mod:`repro.dsm.bench`, :mod:`repro.kv.bench`,
:mod:`repro.obs.breakdown`) and the **only** place an experiment is run
from: ``campaign run`` and the legacy CLI names (``repro.cli.ALIASES``)
both call these.

It is also the only place a paper claim is checked.  Each anchor the
paper states (9.8 us one-word latency, 98.4 MB/s, 66 us null vRPC, the
section 5.2 rows, the section 6/7 orderings, the ablation factors) is a
``paper_*`` entry in the trial's ``gates`` dict, so ``campaign run``,
``campaign diff`` and every alias fail on drift from the paper, not only
on drift from the committed baseline (docs/BENCHMARKS.md, "Paper
gates").  When the claim is a comparison the trial measures the whole
table, so one cell holds both sides.

The microbenchmark simulations are deterministic and seed-free; their
campaigns run a single seed 0 and the trial ignores it.  The chaos and
DSM trials are seeded — the seed drives the fault schedule and the
workload stream.

A trial may also return ``evidence``: simulated output no metric shows
(event counts, final times, protocol counters, trace digests), with
nothing wall-clock in it.  It is folded into the cell's fingerprint, so
``campaign diff`` fails when it moves (docs/BENCHMARKS.md).
"""

from __future__ import annotations

from repro.cluster import Cluster, TestbedConfig


def _fresh_pair(buffer_bytes: int, memory_mb: int = 32):
    from repro.bench.microbench import VmmcPair

    return VmmcPair(TestbedConfig(nnodes=2, memory_mb=memory_mb),
                    buffer_bytes=buffer_bytes)


def _near(value: float, paper: float, *, rel: float = 0.0,
          abs_: float = 0.0) -> bool:
    """A paper-anchor gate: ``value == pytest.approx(paper, rel=, abs=)``."""
    return abs(value - paper) <= max(rel * abs(paper), abs_)


def latency_trial(params: dict, seed: int) -> dict:
    """Figure 2: ping-pong one-way latency at one message size.

    Gate: one word takes the paper's 9.8 us (within 3 %)."""
    from repro.bench.microbench import vmmc_pingpong_latency

    size, iters = params["size"], params["iters"]
    pair = _fresh_pair(max(size * 4, 4096), memory_mb=16)
    point = vmmc_pingpong_latency(pair, size, iterations=iters)
    gates = {}
    if size == 4:
        gates["paper_9.8us"] = _near(point.one_way_us, 9.8, rel=0.03)
    return {"metrics": {"one_way_us": point.one_way_us}, "gates": gates}


def bandwidth_trial(params: dict, seed: int) -> dict:
    """Figure 3: streaming / bidirectional bandwidth at one size.

    Gates (from 64 KB up, where per-message costs have amortised):
    one-way sits at the paper's 98.4 MB/s peak (within 1 %), i.e. at
    least 97 % of the 100 MB/s 4 KB-DMA limit; the bidirectional total
    is the paper's 91 MB/s (within 3 %)."""
    from repro.bench.microbench import (vmmc_bidirectional_bandwidth,
                                        vmmc_oneway_bandwidth)

    size, iters = params["size"], params["iters"]
    pair = _fresh_pair(max(size, 65536))
    gates = {}
    if params["pattern"] == "oneway":
        point = vmmc_oneway_bandwidth(pair, size, iters)
        if size >= 65536:
            gates["paper_98.4mbps"] = _near(point.mbps, 98.4, rel=0.01)
            gates["paper_97pct_of_limit"] = point.mbps / 100.0 >= 0.97
    elif params["pattern"] == "bidir":
        point = vmmc_bidirectional_bandwidth(pair, size, max(3, iters // 2))
        if size >= 65536:
            gates["paper_91mbps_total"] = _near(point.mbps, 91.0, rel=0.03)
    else:
        raise ValueError(f"unknown pattern {params['pattern']!r}")
    return {"metrics": {"mbps": point.mbps}, "gates": gates,
            "evidence": {"events_processed": pair.env.events_processed,
                         "now": pair.env.now}}


def overhead_trial(params: dict, seed: int) -> dict:
    """Figure 4: host CPU cost of the send call itself.

    Gate: a one-word synchronous send costs "a few microseconds"."""
    from repro.bench.microbench import vmmc_send_overhead

    size, iters = params["size"], params["iters"]
    pair = _fresh_pair(max(size, 16384), memory_mb=16)
    point = vmmc_send_overhead(pair, size,
                               synchronous=params["mode"] == "sync",
                               iterations=iters)
    gates = {}
    if size == 4 and params["mode"] == "sync":
        gates["paper_few_us"] = 2.0 <= point.overhead_us <= 4.0
    return {"metrics": {"overhead_us": point.overhead_us}, "gates": gates}


def dma_trial(params: dict, seed: int) -> dict:
    """Figure 1: host<->LANai DMA bandwidth at one block size.

    Gates: the paper's anchors — about 100 MB/s at the 4 KB page unit,
    about 128 MB/s at 64 KB (both within 3 %), and 64-byte blocks far
    below the peak (the reason short sends use PIO)."""
    from repro.hw.bus.pci import PCIParams

    size = params["size"]
    mbps = PCIParams().dma_bandwidth_mbps(size)
    gates = {}
    if size == 4096:
        gates["paper_100mbps_at_4k"] = _near(mbps, 100.0, rel=0.03)
    elif size == 65536:
        gates["paper_128mbps_at_64k"] = _near(mbps, 128.0, rel=0.03)
    elif size == 64:
        gates["paper_small_blocks_slow"] = mbps < 30
    return {"metrics": {"mbps": mbps}, "gates": gates}


def breakdown_trial(params: dict, seed: int) -> dict:
    """Section 5.2: trace-derived per-stage latency of one short send.

    Gates: the stages must telescope to the end-to-end latency exactly
    (integer ns; 1 % is the declared bar, the decomposition gives 0);
    for one word, the total is the paper's 9.8 us, software on the two
    LANais is more than half of it and the wire is about 1 us."""
    from repro.obs.breakdown import (STAGE_KEYS, breakdown_from_trace,
                                     traced_oneway_send)
    from repro.obs.metrics import MetricsRegistry
    from repro.sim.fingerprint import (trace_fingerprint,
                                       trace_multiset_fingerprint,
                                       value_fingerprint)

    registry = MetricsRegistry()
    tracer, marks, _pair = traced_oneway_send(params["size"],
                                              registry=registry)
    report = breakdown_from_trace(tracer, marks, params["size"])
    stages = {key: ns for key, (_, ns) in zip(STAGE_KEYS, report.stages)}
    gates = {"stages_telescope":
             report.total_ns > 0 and report.sum_ns == report.total_ns}
    if params["size"] == 4:
        gates["paper_9.8us"] = _near(report.total_ns / 1000, 9.8, abs_=0.3)
        gates["paper_lanai_dominates"] = (
            stages["lanai_send"] + stages["lanai_recv"]
            > report.total_ns / 2)
        gates["paper_wire_1us"] = stages["wire"] < 1_500
    metrics = {f"{key}_us": ns / 1000.0 for key, ns in stages.items()}
    metrics["total_us"] = report.total_ns / 1000.0
    return {"metrics": metrics, "gates": gates, "evidence": {
        "trace_fingerprint": trace_fingerprint(tracer),
        # Order-insensitive: moves only if a record's time or payload
        # does, so a same-nanosecond reorder shows as this one staying.
        "trace_multiset_fingerprint": trace_multiset_fingerprint(tracer),
        "metrics_fingerprint": value_fingerprint(registry.snapshot()),
    }}


#: Section 5.4's bulk-transfer size (one 128 KB argument per call).
VRPC_BULK = 128 * 1024


def vrpc_trial(params: dict, seed: int) -> dict:
    """Section 5.4: vRPC null round trip and bulk bandwidth, against the
    same program over stock SunRPC/UDP.

    Gates: the paper's 66 us round trip (within 8 %); bulk bandwidth
    copy-limited in the ~33 MB/s band by a ~50 MB/s library bcopy; vRPC
    beats the commodity stack on both axes."""
    from repro.hostos.ethernet import EthernetNetwork
    from repro.hw.bus.membus import MemoryBusParams
    from repro.rpc import (RPCProgram, SunRPCServer, UDPRPCClient,
                           VRPCClient, VRPCServer, XdrEncoder)
    from repro.sim import Environment

    def program() -> RPCProgram:
        prog = RPCProgram(0x20000001, 1)
        prog.register(0, lambda dec: b"")
        prog.register(1, lambda dec: XdrEncoder().pack_uint(
            dec.unpack_uint()).getvalue())
        return prog

    iters = params["iters"]
    out = {"bcopy_mbps": MemoryBusParams().bcopy_bandwidth_mbps(VRPC_BULK)}
    cluster = Cluster.build(TestbedConfig(nnodes=2, memory_mb=32))
    env = cluster.env
    _, client_ep = cluster.nodes[0].attach_process("client")
    _, server_ep = cluster.nodes[1].attach_process("server")
    server = VRPCServer(server_ep, "node1", program())

    def app():
        chan = yield server.accept(client_ep, "node0", "cli")
        client = VRPCClient(chan, 0x20000001, 1)
        yield client.call(0)                    # warm the path
        t0 = env.now
        for _ in range(iters):
            yield client.call(0)
        out["null_rtt_us"] = (env.now - t0) / iters / 1000
        bulk = client_ep.alloc_buffer(VRPC_BULK)
        args = XdrEncoder().pack_uint(VRPC_BULK).getvalue()
        yield client.call(1, args=args, bulk=bulk, bulk_nbytes=VRPC_BULK)
        t0 = env.now
        for _ in range(5):
            yield client.call(1, args=args, bulk=bulk,
                              bulk_nbytes=VRPC_BULK)
        out["bulk_mbps"] = 5 * VRPC_BULK / (env.now - t0) * 1000

    env.run(until=env.process(app()))

    # The commodity baseline: same program over UDP/Ethernet.
    env2 = Environment()
    ether = EthernetNetwork(env2)
    SunRPCServer(env2, ether, "srv", program())
    udp = UDPRPCClient(env2, ether, "cli", "srv", 0x20000001, 1)

    def baseline():
        yield udp.call(0)
        t0 = env2.now
        for _ in range(5):
            yield udp.call(0)
        out["udp_null_us"] = (env2.now - t0) / 5 / 1000
        data = b"x" * 60_000
        # proc 1 echoes a uint; carrying the opaque payload in the same
        # record measures the transport cost of bulk arguments.
        args = XdrEncoder().pack_uint(1).pack_opaque(data).getvalue()
        t0 = env2.now
        for _ in range(3):
            yield udp.call(1, args=args)
        out["udp_mbps"] = 3 * len(data) / (env2.now - t0) * 1000

    env2.run(until=env2.process(baseline()))
    return {"metrics": out, "gates": {
        "paper_66us": _near(out["null_rtt_us"], 66, rel=0.08),
        "paper_bulk_copy_limited": 25 <= out["bulk_mbps"] <= 40,
        "paper_bcopy_50mbps": 40 <= out["bcopy_mbps"] <= 60,
        "paper_beats_udp_latency":
            out["udp_null_us"] > 5 * out["null_rtt_us"],
        "paper_beats_udp_bandwidth": out["udp_mbps"] < out["bulk_mbps"],
    }}


def hw_limits_trial(params: dict, seed: int) -> dict:
    """Section 5.2's hardware-limit table: MMIO read 0.422 us / write
    0.121 us over PCI; posting a send request >= 0.5 us with writes
    only; LANai pickup + packet prep + net DMA + receiving LANai about
    2.5 us; receive-side arbitration + host DMA about 2 us; summing to a
    ~5 us floor, against which the measured 9.8 us quantifies the
    software overhead.  Every row is a gate."""
    from repro.bench.microbench import vmmc_pingpong_latency
    from repro.hw.bus.pci import PCIBus, PCIParams
    from repro.sim import Environment

    out = {}
    env = Environment()
    bus = PCIBus(env)

    def probe():
        t0 = env.now
        yield bus.mmio_read(1)
        out["mmio_read_us"] = (env.now - t0) / 1000
        t0 = env.now
        yield bus.mmio_write(1)
        out["mmio_write_us"] = (env.now - t0) / 1000
        # Posting a one-word send request: 4 control + 1 data word.
        t0 = env.now
        yield bus.mmio_write(5)
        out["post_us"] = (env.now - t0) / 1000

    env.process(probe())
    env.run()
    out["recv_dma_us"] = PCIParams().dma_time_ns(4) / 1000
    pair = _fresh_pair(16 * 1024, memory_mb=8)
    out["one_way_us"] = vmmc_pingpong_latency(pair, 4, 10).one_way_us
    out["min_latency_us"] = out["post_us"] + 2.5 + out["recv_dma_us"]
    return {"metrics": out, "gates": {
        "paper_mmio_read_0.422us": _near(out["mmio_read_us"], 0.422,
                                         abs_=0.001),
        "paper_mmio_write_0.121us": _near(out["mmio_write_us"], 0.121,
                                          abs_=0.001),
        "paper_post_0.5us": out["post_us"] >= 0.5,
        "paper_recv_dma_2us": _near(out["recv_dma_us"], 2.0, abs_=0.15),
        "paper_floor_5us": _near(out["min_latency_us"], 5.0, abs_=0.3),
        "paper_software_4.8us": _near(
            out["one_way_us"] - out["min_latency_us"], 4.8, abs_=0.5),
    }}


#: Sections 6-7's long message: 32 pages.
LONG_SEND = 128 * 1024


def measure_shrimp() -> dict:
    """VMMC on the SHRIMP platform: one-word latency, stream bandwidth,
    host cost of posting one long send."""
    from repro.hw.bus.eisa import EISAParams
    from repro.hw.shrimp import ShrimpParams
    from repro.vmmc.shrimp_impl import ShrimpCluster

    out = {}
    cluster = ShrimpCluster(nnodes=2, memory_mb=8)
    env = cluster.env
    a, b = cluster.endpoint(0), cluster.endpoint(1)

    def app():
        inbox_b = b.alloc_buffer(LONG_SEND)
        inbox_a = a.alloc_buffer(LONG_SEND)
        yield b.export(inbox_b, "ib")
        yield a.export(inbox_a, "ia")
        to_b = yield a.import_buffer(cluster.nodes[1], "ib")
        to_a = yield b.import_buffer(cluster.nodes[0], "ia")
        src_a = a.alloc_buffer(LONG_SEND)
        src_b = b.alloc_buffer(LONG_SEND)
        t0 = env.now
        for i in range(10):
            wa = a.watch(inbox_a, 0, 4)
            yield a.send(src_a, to_b, 4)
            wb = b.watch(inbox_b, 0, 4)
            if not wb.triggered:
                yield wb
            yield b.send(src_b, to_a, 4)
            if not wa.triggered:
                yield wa
        out["latency_us"] = (env.now - t0) / 20 / 1000
        t0 = env.now
        for _ in range(5):
            yield a.send(src_a, to_b, LONG_SEND)
        out["bw_mbps"] = 5 * LONG_SEND / (env.now - t0) * 1000
        # Host-side cost of posting one long send (async).
        t0 = env.now
        yield a.send(src_a, to_b, LONG_SEND, synchronous=False)
        out["long_post_us"] = (env.now - t0) / 1000

    env.run(until=env.process(app()))
    out["init_us"] = ShrimpParams().state_machine_ns / 1000
    out["hw_limit_mbps"] = EISAParams().dma_bandwidth_mbps(LONG_SEND)
    return out


def measure_myrinet() -> dict:
    """The same quantities on Myrinet, plus the NIC SRAM bill."""
    from repro.bench.microbench import (vmmc_oneway_bandwidth,
                                        vmmc_pingpong_latency,
                                        vmmc_send_overhead)

    out = {}
    pair = _fresh_pair(LONG_SEND)
    out["latency_us"] = vmmc_pingpong_latency(pair, 4, 10).one_way_us
    out["bw_mbps"] = vmmc_oneway_bandwidth(pair, LONG_SEND, 6).mbps
    out["long_post_us"] = vmmc_send_overhead(
        pair, LONG_SEND, synchronous=False, iterations=4).overhead_us
    # LCP request-processing time: scan/detect + pickup + translation +
    # proxy lookup + header build + DMA start + completion writeback +
    # main-loop return — everything the LANai spends on one request,
    # in 30 ns cycles (vs SHRIMP's hardware state machine).
    c = pair.cluster.config.lcp
    out["init_us"] = (2 * c.main_loop + c.scan_per_queue + c.pickup
                      + c.tlb_lookup + c.proxy_lookup + c.header_build
                      + c.route_fetch + c.start_dma + c.send_epilogue
                      + c.completion_write) * 30 / 1000
    out["hw_limit_mbps"] = 100.0
    # SRAM demands (the resource-cost side of the tradeoff).
    usage = pair.cluster.nodes[0].nic.sram_usage()
    out["sram_kb"] = sum(usage.values()) / 1024
    out["sram_per_process_kb"] = sum(
        v for k, v in usage.items() if ".pid" in k) / 1024
    return out


def shrimp_trial(params: dict, seed: int) -> dict:
    """Section 6: network-interface design tradeoffs, VMMC on SHRIMP vs
    VMMC on Myrinet — one cell is the whole comparison table.

    Gates: one-word latency ~7 us (SHRIMP) vs 9.8 us (Myrinet) despite
    the slower EISA bus; send initiation 2-3 us in SHRIMP hardware, at
    least twice that in LANai software; SHRIMP posts two MMIO writes per
    page where Myrinet posts one request; SHRIMP reaches its 23 MB/s
    EISA limit, Myrinet 98 % of its 100 MB/s 4 KB-DMA limit; Myrinet
    pays tens of KB of NIC SRAM per attached process."""
    shrimp, myrinet = measure_shrimp(), measure_myrinet()
    metrics = {f"shrimp_{k}": v for k, v in shrimp.items()}
    metrics.update({f"myrinet_{k}": v for k, v in myrinet.items()})
    return {"metrics": metrics, "gates": {
        "paper_shrimp_7us": _near(shrimp["latency_us"], 7.0, rel=0.1),
        "paper_myrinet_9.8us": _near(myrinet["latency_us"], 9.8, rel=0.03),
        "paper_shrimp_latency_wins":
            shrimp["latency_us"] < myrinet["latency_us"],
        "paper_shrimp_init_2_3us": 2.0 <= shrimp["init_us"] <= 3.0,
        "paper_myrinet_init_2x": myrinet["init_us"] >= 2 * 2.0,
        "paper_shrimp_posts_per_page":
            shrimp["long_post_us"] > 3 * myrinet["long_post_us"],
        "paper_shrimp_at_limit":
            shrimp["bw_mbps"] / shrimp["hw_limit_mbps"] > 0.95,
        "paper_myrinet_98pct_of_limit": _near(
            myrinet["bw_mbps"] / myrinet["hw_limit_mbps"], 0.98, abs_=0.01),
        "paper_sram_per_process":
            myrinet["sram_per_process_kb"] > 20,
    }}


def related_work_trial(params: dict, seed: int) -> dict:
    """Section 7: the Myrinet API, FM, PM, AM and VMMC on identical
    hardware — one cell is the whole comparison table.

    Gates: the absolute anchors (API 63 us, FM ~11.7 us, PM 7.2 us, VMMC
    9.8 us); latency ordering PM < VMMC < FM << API; PM's 8 KB units
    beat the page-size limit, VMMC sits at 98 % of it, FM is PIO-bound
    around 33 MB/s; PM capped at page-size units converges with VMMC
    near 100 MB/s; the send copy PM excludes costs real bandwidth."""
    import repro.baselines.pm as pm_mod
    from repro.baselines import (ActiveMessagesPair, FastMessagesPair,
                                 MyrinetAPIPair, PMPair)
    from repro.bench.microbench import (vmmc_oneway_bandwidth,
                                        vmmc_pingpong_latency)

    m = {}
    pair = _fresh_pair(256 * 1024, memory_mb=16)
    m["vmmc_lat_us"] = vmmc_pingpong_latency(pair, 4, 10).one_way_us
    m["vmmc_bw_mbps"] = vmmc_oneway_bandwidth(pair, 256 * 1024, 6).mbps
    for key, cls in [("api", MyrinetAPIPair), ("fm", FastMessagesPair),
                     ("pm", PMPair), ("am", ActiveMessagesPair)]:
        proto = cls(memory_mb=8)
        m[f"{key}_lat_us"] = proto.pingpong_latency_us(
            8 if key != "api" else 4, 8)
        m[f"{key}_bw_mbps"] = proto.oneway_bandwidth_mbps(64 * 1024, 6)
    m["api_pingpong_bw_mbps"] = MyrinetAPIPair(memory_mb=8) \
        .pingpong_bandwidth_mbps(8192, 6)
    # PM with its transfer unit capped at page size (the paper's last
    # comparison: both land near 100 MB/s).
    saved = pm_mod.TRANSFER_UNIT
    pm_mod.TRANSFER_UNIT = 4096
    try:
        m["pm_4k_bw_mbps"] = PMPair(memory_mb=8) \
            .oneway_bandwidth_mbps(64 * 1024, 6)
    finally:
        pm_mod.TRANSFER_UNIT = saved
    # PM with the sender-side copy it normally excludes.
    m["pm_copy_bw_mbps"] = PMPair(memory_mb=8, include_copy=True) \
        .oneway_bandwidth_mbps(64 * 1024, 6)
    return {"metrics": m, "gates": {
        "paper_api_63us": _near(m["api_lat_us"], 63, rel=0.05),
        "paper_fm_11.7us": _near(m["fm_lat_us"], 11.7, rel=0.1),
        "paper_pm_7.2us": _near(m["pm_lat_us"], 7.2, rel=0.1),
        "paper_vmmc_9.8us": _near(m["vmmc_lat_us"], 9.8, rel=0.03),
        "paper_latency_order": (
            m["pm_lat_us"] < m["vmmc_lat_us"] < m["fm_lat_us"]
            and m["api_lat_us"] > 4 * m["fm_lat_us"]),
        "paper_bandwidth_order":
            m["pm_bw_mbps"] > 105 > m["vmmc_bw_mbps"] > 95,
        "paper_fm_pio_bound": 25 <= m["fm_bw_mbps"] <= 34,
        "paper_pm_4k_100mbps": _near(m["pm_4k_bw_mbps"], 100, rel=0.06),
        "paper_pm_copy_costs": m["pm_copy_bw_mbps"] < m["pm_bw_mbps"],
    }}


#: The swept short/long thresholds, and a probe size in the paper's
#: contested region between 64 and 128 bytes.
THRESHOLDS = (32, 64, 128, 256, 512)
PROBE_BYTES = 96


def threshold_trial(params: dict, seed: int) -> dict:
    """Section 5.3's argument for the 128-byte short/long threshold,
    regenerated: the sync overhead and latency of a probe message
    between 64 and 128 bytes under every swept threshold, and the
    send-queue SRAM each threshold costs — one cell is the whole table.

    Gates: threshold 64 forces the probe onto the long path, so sync
    overhead jumps while latency moves much less; raising the threshold
    past 128 buys no overhead but multiplies the per-process SRAM."""
    import repro.vmmc.api as api
    import repro.vmmc.sendqueue as sq
    from repro.bench.microbench import (vmmc_pingpong_latency,
                                        vmmc_send_overhead)

    m = {}
    saved = sq.SHORT_SEND_LIMIT, sq.SLOT_BYTES, api.SHORT_SEND_LIMIT
    try:
        for threshold in THRESHOLDS:
            sq.SHORT_SEND_LIMIT = api.SHORT_SEND_LIMIT = threshold
            sq.SLOT_BYTES = 16 + threshold
            pair = _fresh_pair(32 * 1024, memory_mb=16)
            m[f"overhead_us_t{threshold}"] = vmmc_send_overhead(
                pair, PROBE_BYTES, synchronous=True,
                iterations=6).overhead_us
            m[f"latency_us_t{threshold}"] = vmmc_pingpong_latency(
                pair, PROBE_BYTES, iterations=8).one_way_us
            m[f"queue_sram_kb_t{threshold}"] = (
                sq.QUEUE_SLOTS * (16 + threshold) / 1024)
    finally:
        sq.SHORT_SEND_LIMIT, sq.SLOT_BYTES, api.SHORT_SEND_LIMIT = saved
    lat_ratio = m["latency_us_t64"] / m["latency_us_t128"]
    ovh_ratio = m["overhead_us_t64"] / m["overhead_us_t128"]
    return {"metrics": m, "gates": {
        "paper_overhead_jumps_below_128": ovh_ratio > 1.5,
        "paper_latency_moves_less": lat_ratio < ovh_ratio
                                    and lat_ratio < 1.25,
        "paper_no_gain_above_128": _near(
            m["overhead_us_t512"], m["overhead_us_t128"], rel=0.05),
        "paper_sram_bill_above_128":
            m["queue_sram_kb_t512"] > 3 * m["queue_sram_kb_t128"],
    }}


def pipeline_trial(params: dict, seed: int) -> dict:
    """Section 4.5's long-send optimisations switched off one by one
    (tight loop + host/net DMA pipelining + precomputed headers are what
    section 5.3 credits for 98 % of the limit), plus the cost of cold
    software-TLB state — one cell is the whole table.

    Gates: the full design reaches 98.4 MB/s; header precompute is a
    small real gain; without DMA pipelining bandwidth collapses; a cold
    TLB costs an interrupt per 32-page refill batch."""
    import dataclasses

    from repro.bench.microbench import VmmcPair, vmmc_oneway_bandwidth
    from repro.vmmc.lcp import LCPCosts

    size = 256 * 1024

    def bandwidth(**switches) -> float:
        costs = dataclasses.replace(LCPCosts(), **switches)
        pair = VmmcPair(TestbedConfig(nnodes=2, memory_mb=32, lcp=costs),
                        buffer_bytes=size)
        return vmmc_oneway_bandwidth(pair, size, iterations=6).mbps

    def first_send_us(warm_tlb: bool) -> float:
        """Duration of the very first synchronous send (64 pages): cold
        TLB pays one host interrupt per 32-page refill batch."""
        pair = VmmcPair(TestbedConfig(nnodes=2, memory_mb=32),
                        buffer_bytes=size, warm_tlb=warm_tlb)
        env = pair.env
        out = {}

        def app():
            t0 = env.now
            yield pair.ep_a.send(pair.src_a, pair.to_b, size)
            out["us"] = (env.now - t0) / 1000

        env.run(until=env.process(app()))
        return out["us"]

    m = {
        "full_mbps": bandwidth(),
        "no_precompute_mbps": bandwidth(precompute_headers=False),
        "no_pipeline_mbps": bandwidth(pipeline_dma=False),
        "neither_mbps": bandwidth(pipeline_dma=False,
                                  precompute_headers=False),
        "cold_first_us": first_send_us(warm_tlb=False),
        "warm_first_us": first_send_us(warm_tlb=True),
    }
    return {"metrics": m, "gates": {
        "paper_98.4mbps": _near(m["full_mbps"], 98.4, rel=0.01),
        "paper_precompute_small_gain":
            0.9 * m["full_mbps"] < m["no_precompute_mbps"] < m["full_mbps"],
        "paper_pipelining_big_gain": (
            m["no_pipeline_mbps"] < 0.75 * m["full_mbps"]
            and m["neither_mbps"] <= m["no_pipeline_mbps"]),
        "paper_cold_tlb_costs":
            m["cold_first_us"] > m["warm_first_us"] + 20,
    }}


#: Attached-process counts of the scan-tax table.
PROCESS_COUNTS = (1, 2, 4, 5)


def multiprocess_trial(params: dict, seed: int) -> dict:
    """Sections 4.4/6: the cost of per-process send queues — the scan
    tax on one sender while idle processes are attached, the NIC SRAM
    each attached process consumes, and how many processes a 256 KB
    board holds before attach fails — one cell is the whole table.

    Gates: the scan tax exists, grows with attached processes and stays
    modest (~0.2 us per queue head check); SRAM per process is tens of
    KB; the board caps simultaneous processes in the single digits."""
    from repro.bench.microbench import vmmc_pingpong_latency
    from repro.hw.lanai.sram import SRAMExhausted

    # First: the hard limit.  "The outgoing page table is only limited by
    # the amount of available SRAM on the LANai card and the number of
    # processes simultaneously using a given interface" (section 4.4) —
    # with the full 8 MB import reach per process, a 256 KB board fits
    # only a handful of processes before attach fails.
    probe = _fresh_pair(16 * 1024, memory_mb=16)
    attached = 1  # the benchmark process itself
    try:
        for i in range(32):
            probe.cluster.nodes[0].attach_process(f"filler{i}")
            attached += 1
    except SRAMExhausted:
        pass
    m = {"max_processes": attached}
    for procs in PROCESS_COUNTS:
        pair = _fresh_pair(32 * 1024, memory_mb=16)
        # Attach idle extra processes to the *sender's* NIC: their queues
        # must still be scanned every main-loop iteration.
        for i in range(procs - 1):
            pair.cluster.nodes[0].attach_process(f"idle{i}")
        m[f"latency_us_p{procs}"] = vmmc_pingpong_latency(
            pair, 4, iterations=10).one_way_us
        usage = pair.cluster.nodes[0].nic.sram_usage()
        per_process = sum(v for k, v in usage.items() if ".pid" in k)
        m[f"sram_used_kb_p{procs}"] = sum(usage.values()) / 1024
        m[f"sram_per_proc_kb_p{procs}"] = per_process / procs / 1024
    tax = m["latency_us_p5"] - m["latency_us_p1"]
    return {"metrics": m, "gates": {
        "paper_scan_tax_modest": 0 < tax < 3.0,
        "paper_sram_per_process": 25 <= m["sram_per_proc_kb_p4"] <= 35,
        "paper_board_caps_processes": 3 <= m["max_processes"] <= 8,
    }}


def chaos_trial(params: dict, seed: int) -> dict:
    """One seeded fault scenario against the reliable sender:
    ``error-burst`` (link error bursts on the data path),
    ``daemon-cold-crash`` (both daemons cold-restart mid-stream) or
    ``multi-campaign`` (one campaign of overlapping bursts and LANai
    stalls).

    Gates, on every scenario: ``exactly_once`` — every payload intact,
    no send failure — and ``protocol_invariants``, every invariant of
    :func:`repro.bench.chaos.check_trial_invariants` (RTO/window bounds,
    Karn's rule).  Evidence: the driver's whole trial report."""
    from dataclasses import asdict

    from repro.bench import chaos

    kwargs = dict(messages=params["messages"], size=params["size"])
    if params["scenario"] == "error-burst":
        trial = chaos.run_error_burst_trial(seed, **kwargs)
    elif params["scenario"] == "daemon-cold-crash":
        point, stats, recovery = chaos.run_cold_crash_point(seed, **kwargs)
        trial = {**asdict(point), **recovery,
                 "goodput_mbps": round(point.goodput_mbps, 6),
                 "fault_stats": stats.as_dict()}
    elif params["scenario"] == "multi-campaign":
        trial = chaos.run_multi_campaign_trial(seed, **kwargs)
    else:
        raise ValueError(f"unknown scenario {params['scenario']!r}")
    return {
        "metrics": {name: trial[name] for name in (
            "goodput_mbps", "delivered_intact", "retransmits", "crc_drops",
            "elapsed_ns")},
        "gates": {
            "protocol_invariants": not chaos.check_trial_invariants(trial),
            "exactly_once": (trial["delivered_intact"] == trial["messages"]
                             and trial["send_failures"] == 0),
        },
        "evidence": trial,
    }


#: Per-packet link error rates of the lossy-link table.
LOSS_RATES = (0.0, 1e-6, 1e-4, 1e-3)


def lossy_link_trial(params: dict, seed: int) -> dict:
    """The experiment section 4.2 never ran (a bad-CRC packet is
    dropped, a counter incremented): baseline VMMC vs the reliable layer
    over identical hardware at each link error rate — one cell is the
    whole table.

    Gates: the reliable layer delivers every payload at every rate; the
    lossy rates really drop packets, cost retransmissions and lose
    baseline data silently; on a clean link the reliable layer never
    retransmits and the baseline loses nothing."""
    from repro.bench.chaos import run_baseline_point, run_reliable_point

    messages, size = params["messages"], params["size"]
    m = {}
    points = {}
    for rate in LOSS_RATES:
        base = run_baseline_point(rate, messages=messages, size=size)
        rel = run_reliable_point(rate, messages=messages, size=size)
        points[rate] = base, rel
        for mode, point in (("baseline", base), ("reliable", rel)):
            m[f"{mode}_intact_r{rate:g}"] = point.delivered_intact
            m[f"{mode}_crc_drops_r{rate:g}"] = point.crc_drops
            m[f"{mode}_goodput_mbps_r{rate:g}"] = round(
                point.goodput_mbps, 6)
        m[f"reliable_retransmits_r{rate:g}"] = rel.retransmits
    lossy = [pair for rate, pair in points.items() if rate >= 1e-4]
    clean_base, clean_rel = points[0.0]
    return {"metrics": m, "gates": {
        "reliable_exactly_once": all(
            rel.delivered_intact == messages and rel.send_failures == 0
            for _, rel in points.values()),
        "lossy_retransmits": sum(rel.retransmits for _, rel in lossy) > 0,
        "lossy_crc_drops": sum(base.crc_drops for base, _ in lossy) > 0,
        "baseline_loses_data": any(
            base.delivered_intact < messages for base, _ in lossy),
        "clean_no_retransmits": clean_rel.retransmits == 0,
        "clean_baseline_intact": clean_base.delivered_intact == messages,
    }}


def fabric_trial(params: dict, seed: int) -> dict:
    """Fabric scale-out: seeded random pair traffic on one topology.

    Boots the topology via the declarative spec (the mapping LCP proves
    the routing function deadlock-free at boot), picks ``pairs``
    disjoint sender/receiver pairs from a seeded permutation, streams
    VMMC sends concurrently on all of them, and reports delivered
    aggregate bandwidth plus the fabric's route-length distribution and
    bisection (the README fabric table is generated from these).
    """
    import numpy as np

    from repro.hw.myrinet import topology

    spec = topology.parse(params["topology"])
    cluster = Cluster.build(TestbedConfig(memory_mb=8), topology=spec)
    env = cluster.env
    stats = topology.fabric_stats(cluster.fabric)

    rng = np.random.default_rng(seed)
    perm = [int(i) for i in rng.permutation(spec.nhosts)]
    npairs = min(int(params["pairs"]), spec.nhosts // 2)
    pairs = [(perm[2 * i], perm[2 * i + 1]) for i in range(npairs)]
    size, messages = int(params["size"]), int(params["messages"])

    table = cluster.fabric.route_table
    hops = [len(table[(f"node{s}", f"node{d}")]) for s, d in pairs]
    delivered = {"messages": 0}
    span = {"t0": None, "t1": 0}

    def stream(s: int, d: int, tag: str):
        _, ep_rx = cluster.nodes[d].attach_process(f"rx.{tag}")
        _, ep_tx = cluster.nodes[s].attach_process(f"tx.{tag}")
        inbox = ep_rx.alloc_buffer(size)
        yield ep_rx.export(inbox, f"in.{tag}")
        imported = yield ep_tx.import_buffer(f"node{d}", f"in.{tag}")
        src = ep_tx.alloc_buffer(size)
        if span["t0"] is None:
            span["t0"] = env.now
        for _ in range(messages):
            yield ep_tx.send(src, imported.at(0), size)
            delivered["messages"] += 1
        span["t1"] = max(span["t1"], env.now)

    procs = [env.process(stream(s, d, f"p{i}"))
             for i, (s, d) in enumerate(pairs)]

    def wait_all():
        for proc in procs:
            yield proc

    env.run(until=env.process(wait_all()))
    elapsed_ns = max(1, span["t1"] - span["t0"])
    total_bytes = npairs * messages * size
    return {
        "metrics": {
            # bytes/ns == GB/s, so *1000 gives MB/s.
            "delivered_mbps": total_bytes / elapsed_ns * 1000.0,
            "route_hops_mean": stats.route_hops_mean,
            "route_hops_used_mean": sum(hops) / len(hops),
            "diameter_hops": stats.diameter_hops,
            "bisection_links": stats.bisection_links,
            "nswitches": stats.nswitches,
            "mapping_probes": cluster.mapping.probes_sent,
        },
        "gates": {
            "deadlock_free": cluster.mapping.deadlock is not None,
            "all_delivered": delivered["messages"] == npairs * messages,
        },
        "evidence": {"events_processed": env.events_processed,
                     "now": env.now},
    }


def dsm_trial(params: dict, seed: int) -> dict:
    """Seeded DSM coherence workload under one chaos scenario.

    Gate: the sequential-consistency checker must report no violation
    (coherence must survive the scenario's faults)."""
    from repro.dsm.bench import run_dsm_trial

    trial = run_dsm_trial(
        seed, nnodes=params["nnodes"], npages=params["npages"],
        page_bytes=params["page_bytes"], ops_per_node=params["ops_per_node"],
        scenario=params["scenario"])
    counters = trial["counters"]
    return {
        "metrics": {
            "pages_per_sec": trial["pages_per_sec"],
            "fetch_p50_ns": trial["fetch_ns"]["p50"],
            "fetch_p99_ns": trial["fetch_ns"]["p99"],
            "invalidations_per_write": trial["invalidations_per_write"],
            "faults": counters["read_faults"] + counters["write_faults"],
            "workload_ns": trial["workload_ns"],
        },
        "gates": {"sequential_consistency": not trial["sc_violations"]},
        "evidence": trial,
    }


def kv_trial(params: dict, seed: int) -> dict:
    """Seeded sharded-KV serving trial under one chaos scenario.

    Gates: every request must complete (the reliable layer rides out
    the scenario's faults) and every GET must observe exactly its
    read-your-writes oracle value."""
    from repro.kv.bench import run_kv_trial

    trial = run_kv_trial(
        seed, shards=params["shards"], requests=params["requests"],
        skew=params["skew"], load=params["load"],
        scenario=params["scenario"])
    tail = trial["latency_ns"]
    return {
        "metrics": {
            "p50_us": tail["p50"] / 1000.0,
            "p99_us": tail["p99"] / 1000.0,
            "p999_us": tail["p999"] / 1000.0,
            "requests_per_sec": trial["requests_per_sec"],
            "imbalance": trial["imbalance"],
            "retransmits": trial["transport"]["retransmits"],
        },
        "gates": {
            "delivered": (trial["failed"] == 0
                          and trial["completed"] == trial["requests"]),
            "read_your_writes": trial["ryw_violations_total"] == 0,
        },
        "evidence": trial,
    }
