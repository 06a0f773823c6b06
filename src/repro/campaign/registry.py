"""The registered campaigns — the repo's perf-trajectory surface.

Every entry maps a paper figure/section (or an extension experiment) to
a :class:`~repro.campaign.spec.CampaignSpec`; ``python -m repro campaign
list`` prints this table, CI runs every campaign's smoke shape, and the
committed ``BENCH_<AREA>.json`` baselines at the repo root are the smoke
artifacts.  docs/BENCHMARKS.md is the handbook entry per campaign.

A campaign whose paper claim is a comparison (sections 5.2, 6, 7 and
the ablations) has an empty grid: its single cell is the whole table,
one metric per table entry, so the trial's ``paper_*`` gates can
compare the rows.

Third-party / test campaigns can be added at runtime with
:func:`register`; the fork-based process pool sees them too.
"""

from __future__ import annotations

from repro.campaign import trials
from repro.campaign.spec import CampaignSpec, Metric, SpecError

_REGISTRY: dict[str, CampaignSpec] = {}


def register(spec: CampaignSpec, *, replace: bool = False) -> CampaignSpec:
    """Add a campaign; names and areas must be unique."""
    if not replace:
        if spec.name in _REGISTRY:
            raise SpecError(f"campaign {spec.name!r} already registered")
        taken = {s.area: n for n, s in _REGISTRY.items()}
        if spec.area in taken:
            raise SpecError(
                f"area {spec.area!r} already used by campaign "
                f"{taken[spec.area]!r} (artifacts would collide)")
    _REGISTRY[spec.name] = spec
    return spec


def unregister(name: str) -> None:
    _REGISTRY.pop(name, None)


def get_campaign(name: str) -> CampaignSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SpecError(
            f"unknown campaign {name!r}; registered: "
            f"{', '.join(campaign_names())}") from None


def campaign_names() -> list[str]:
    return sorted(_REGISTRY)


def all_campaigns() -> list[CampaignSpec]:
    return [_REGISTRY[name] for name in campaign_names()]


# -- the built-in table ----------------------------------------------------
register(CampaignSpec(
    name="latency", area="LATENCY",
    title="VMMC one-way latency (ping-pong)",
    paper_ref="Figure 2 / section 5.3",
    trial=trials.latency_trial,
    grid={"size": (4, 16, 64, 128, 256)},
    fixed={"iters": 10},
    seeds=(0,),
    metrics=(
        Metric("one_way_us", "us", "lower", 10.0),
    ),
    expected_runtime="~10 s",
))

register(CampaignSpec(
    name="bandwidth", area="BANDWIDTH",
    title="VMMC bandwidth (one-way + bidirectional)",
    paper_ref="Figure 3 / section 5.3",
    trial=trials.bandwidth_trial,
    grid={"size": (4096, 65536, 262144),
          "pattern": ("oneway", "bidir")},
    fixed={"iters": 8},
    seeds=(0,),
    metrics=(
        Metric("mbps", "MB/s", "higher", 10.0),
    ),
    smoke_grid={"size": (65536,)},
    expected_runtime="~1 min",
))

register(CampaignSpec(
    name="overhead", area="OVERHEAD",
    title="send overhead, sync vs async",
    paper_ref="Figure 4 / section 5.3",
    trial=trials.overhead_trial,
    grid={"size": (4, 64, 128, 256, 1024),
          "mode": ("sync", "async")},
    fixed={"iters": 6},
    seeds=(0,),
    metrics=(
        Metric("overhead_us", "us", "lower", 10.0),
    ),
    smoke_grid={"size": (4, 256)},
    expected_runtime="~30 s",
))

register(CampaignSpec(
    name="dma", area="DMA",
    title="host<->LANai DMA bandwidth curve",
    paper_ref="Figure 1 / section 5.1",
    trial=trials.dma_trial,
    grid={"size": (64, 256, 1024, 4096, 16384, 65536)},
    seeds=(0,),
    metrics=(
        Metric("mbps", "MB/s", "higher", 5.0),
    ),
    expected_runtime="<1 s",
))

register(CampaignSpec(
    name="breakdown", area="BREAKDOWN",
    title="trace-derived per-stage latency of one send",
    paper_ref="section 5.2",
    trial=trials.breakdown_trial,
    grid={"size": (4, 128)},
    seeds=(0,),
    metrics=(
        Metric("total_us", "us", "lower", 10.0),
        Metric("post_us", "us", "info"),
        Metric("lanai_send_us", "us", "info"),
        Metric("wire_us", "us", "info"),
        Metric("lanai_recv_us", "us", "info"),
        Metric("deliver_us", "us", "info"),
    ),
    expected_runtime="~5 s",
))

register(CampaignSpec(
    name="hw-limits", area="HW_LIMITS",
    title="hardware costs and the latency floor",
    paper_ref="section 5.2",
    trial=trials.hw_limits_trial,
    grid={},
    seeds=(0,),
    metrics=(
        Metric("mmio_read_us", "us", "lower", 5.0),
        Metric("mmio_write_us", "us", "lower", 5.0),
        Metric("post_us", "us", "lower", 5.0),
        Metric("recv_dma_us", "us", "lower", 5.0),
        Metric("min_latency_us", "us", "info"),
        Metric("one_way_us", "us", "lower", 10.0),
    ),
    expected_runtime="~1 s",
))

register(CampaignSpec(
    name="vrpc", area="VRPC",
    title="vRPC null round trip + bulk bandwidth vs SunRPC/UDP",
    paper_ref="section 5.4",
    trial=trials.vrpc_trial,
    grid={"iters": (10,)},
    seeds=(0,),
    metrics=(
        Metric("null_rtt_us", "us", "lower", 10.0),
        Metric("bulk_mbps", "MB/s", "higher", 10.0),
        Metric("bcopy_mbps", "MB/s", "info"),
        Metric("udp_null_us", "us", "info"),
        Metric("udp_mbps", "MB/s", "info"),
    ),
    expected_runtime="~5 s",
))

register(CampaignSpec(
    name="shrimp", area="SHRIMP",
    title="VMMC on SHRIMP vs VMMC on Myrinet",
    paper_ref="section 6",
    trial=trials.shrimp_trial,
    grid={},
    seeds=(0,),
    metrics=tuple(
        Metric(f"{platform}_{name}", unit, direction, pct)
        for platform in ("shrimp", "myrinet")
        for name, unit, direction, pct in (
            ("latency_us", "us", "lower", 10.0),
            ("bw_mbps", "MB/s", "higher", 10.0),
            ("long_post_us", "us", "lower", 10.0),
            ("init_us", "us", "info", None),
            ("hw_limit_mbps", "MB/s", "info", None))
    ) + (
        Metric("myrinet_sram_kb", "KB", "info"),
        Metric("myrinet_sram_per_process_kb", "KB", "info"),
    ),
    expected_runtime="~1 s",
))

register(CampaignSpec(
    name="related-work", area="RELATED_WORK",
    title="Myrinet API, FM, PM, AM and VMMC on identical hardware",
    paper_ref="section 7",
    trial=trials.related_work_trial,
    grid={},
    seeds=(0,),
    metrics=tuple(
        Metric(f"{system}_{name}", unit, direction, 10.0)
        for system in ("vmmc", "api", "fm", "pm", "am")
        for name, unit, direction in (("lat_us", "us", "lower"),
                                      ("bw_mbps", "MB/s", "higher"))
    ) + (
        Metric("api_pingpong_bw_mbps", "MB/s", "higher", 10.0),
        Metric("pm_4k_bw_mbps", "MB/s", "info"),
        Metric("pm_copy_bw_mbps", "MB/s", "info"),
    ),
    expected_runtime="~2 s",
))

register(CampaignSpec(
    name="threshold", area="THRESHOLD",
    title="ablation: the 128-byte short/long protocol threshold",
    paper_ref="section 5.3 (threshold argument)",
    trial=trials.threshold_trial,
    grid={},
    seeds=(0,),
    metrics=tuple(
        Metric(f"{name}_t{threshold}", unit, direction, pct)
        for threshold in trials.THRESHOLDS
        for name, unit, direction, pct in (
            ("overhead_us", "us", "lower", 10.0),
            ("latency_us", "us", "lower", 10.0),
            ("queue_sram_kb", "KB", "info", None))
    ),
    expected_runtime="~1 s",
))

register(CampaignSpec(
    name="pipeline", area="PIPELINE",
    title="ablation: long-send optimisations and cold TLB",
    paper_ref="sections 4.5 / 5.3 (98 % of the limit)",
    trial=trials.pipeline_trial,
    grid={},
    seeds=(0,),
    metrics=(
        Metric("full_mbps", "MB/s", "higher", 5.0),
        Metric("no_precompute_mbps", "MB/s", "info"),
        Metric("no_pipeline_mbps", "MB/s", "info"),
        Metric("neither_mbps", "MB/s", "info"),
        Metric("cold_first_us", "us", "lower", 10.0),
        Metric("warm_first_us", "us", "lower", 10.0),
    ),
    expected_runtime="~2 s",
))

register(CampaignSpec(
    name="multiprocess", area="MULTIPROCESS",
    title="per-process send queues: scan tax and NIC SRAM bill",
    paper_ref="sections 4.4 / 6 (supplementary)",
    trial=trials.multiprocess_trial,
    grid={},
    seeds=(0,),
    metrics=(Metric("max_processes", "count", "info"),) + tuple(
        Metric(f"{name}_p{procs}", unit, direction, pct)
        for procs in trials.PROCESS_COUNTS
        for name, unit, direction, pct in (
            ("latency_us", "us", "lower", 10.0),
            ("sram_used_kb", "KB", "info", None),
            ("sram_per_proc_kb", "KB", "info", None))
    ),
    expected_runtime="~1 s",
))

register(CampaignSpec(
    name="chaos", area="CHAOS",
    title="reliable sender under seeded fault scenarios",
    paper_ref="extension of sections 4.1 / 4.2 (E-chaos / E-congestion)",
    trial=trials.chaos_trial,
    grid={"scenario": ("error-burst", "daemon-cold-crash", "multi-campaign")},
    fixed={"messages": 60, "size": 1024},
    seeds=tuple(range(10)),
    metrics=(
        Metric("goodput_mbps", "MB/s", "higher", 10.0),
        Metric("delivered_intact", "messages", "info"),
        Metric("retransmits", "count", "info"),
        Metric("crc_drops", "count", "info"),
        Metric("elapsed_ns", "ns", "info"),
    ),
    smoke_seeds=tuple(range(4)),
    expected_runtime="~1 min",
))

register(CampaignSpec(
    name="lossy-link", area="LOSSY_LINK",
    title="baseline VMMC vs the reliable layer across link error rates",
    paper_ref="extension of section 4.2 (E-chaos)",
    trial=trials.lossy_link_trial,
    grid={},
    fixed={"messages": 150, "size": 1024},
    seeds=(0,),
    metrics=tuple(
        Metric(f"{mode}_{name}_r{rate:g}", unit, direction, pct)
        for rate in trials.LOSS_RATES
        for mode, name, unit, direction, pct in (
            ("baseline", "intact", "messages", "info", None),
            ("baseline", "crc_drops", "count", "info", None),
            ("baseline", "goodput_mbps", "MB/s", "info", None),
            ("reliable", "intact", "messages", "info", None),
            ("reliable", "crc_drops", "count", "info", None),
            ("reliable", "goodput_mbps", "MB/s", "higher", 10.0),
            ("reliable", "retransmits", "count", "info", None))
    ),
    expected_runtime="~2 s",
))

register(CampaignSpec(
    name="fabric", area="FABRIC",
    title="multi-switch fabric scale-out: bandwidth + route distributions",
    paper_ref="extension of section 4.3 (topology generators, E-fabric)",
    trial=trials.fabric_trial,
    grid={"topology": ("single:8", "dual:8", "fattree:4", "mesh:4x4",
                       "torus:4x4", "fattree:8,h=2", "mesh:8x8")},
    fixed={"pairs": 8, "messages": 12, "size": 4096},
    seeds=(0, 1, 2),
    metrics=(
        Metric("delivered_mbps", "MB/s", "higher", 15.0),
        Metric("route_hops_mean", "hops", "info"),
        Metric("route_hops_used_mean", "hops", "info"),
        Metric("diameter_hops", "hops", "info"),
        Metric("bisection_links", "links", "info"),
        Metric("nswitches", "count", "info"),
        Metric("mapping_probes", "count", "info"),
    ),
    smoke_grid={"topology": ("single:4", "dual:8", "fattree:4",
                             "mesh:3x3")},
    smoke_seeds=(0,),
    expected_runtime="~4 min",
))

register(CampaignSpec(
    name="dsm", area="DSM",
    title="DSM coherence workload under chaos scenarios",
    paper_ref="extension of section 1's DSM motivation (E-dsm)",
    trial=trials.dsm_trial,
    grid={"scenario": ("clean", "error-burst", "daemon-cold-crash")},
    fixed={"nnodes": 4, "npages": 64, "page_bytes": 256,
           "ops_per_node": 24},
    seeds=tuple(range(16)),
    metrics=(
        Metric("pages_per_sec", "pages/s", "higher", 10.0),
        Metric("fetch_p50_ns", "ns", "lower", 15.0),
        Metric("fetch_p99_ns", "ns", "lower", 25.0),
        Metric("invalidations_per_write", "ratio", "info"),
        Metric("faults", "count", "info"),
        Metric("workload_ns", "ns", "info"),
    ),
    smoke_seeds=tuple(range(4)),
    expected_runtime="~4 min",
))

register(CampaignSpec(
    name="kv", area="KV",
    title="sharded KV serving tier: open-loop tail latency under chaos",
    paper_ref="extension of section 1's client-server motivation (E-kv)",
    trial=trials.kv_trial,
    grid={"shards": (2, 4, 8), "skew": (0.0, 0.9, 1.2),
          "load": ("steady", "diurnal"),
          "scenario": ("clean", "error-burst", "daemon-cold-crash"),
          "requests": (100_000,)},
    seeds=(0,),
    metrics=(
        Metric("p50_us", "us", "lower", 15.0),
        Metric("p99_us", "us", "lower", 25.0),
        Metric("p999_us", "us", "info"),
        Metric("requests_per_sec", "req/s", "info"),
        Metric("imbalance", "ratio", "info"),
        Metric("retransmits", "count", "info"),
    ),
    smoke_grid={"shards": (2,), "skew": (0.0, 1.2),
                "load": ("steady", "diurnal"),
                "scenario": ("clean", "error-burst", "daemon-cold-crash"),
                "requests": (400,)},
    smoke_seeds=(0,),
    expected_runtime="~1 min smoke; hours at the full 100k-request grid",
))
