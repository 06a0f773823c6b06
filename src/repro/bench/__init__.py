"""Benchmark harness: the section-5 microbenchmarks as reusable drivers.

:mod:`repro.bench.microbench` implements the paper's measurement
methodology (ping-pong, one-way, bidirectional, send-overhead probes) over
a simulated cluster; :mod:`repro.bench.report` renders text tables; the
trial functions in :mod:`repro.campaign.trials` bind them to the paper's
figures and hold the paper's numbers as gates.
"""

from repro.bench.microbench import (
    BandwidthPoint,
    LatencyPoint,
    OverheadPoint,
    VmmcPair,
    vmmc_bidirectional_bandwidth,
    vmmc_oneway_bandwidth,
    vmmc_pingpong_latency,
    vmmc_send_overhead,
)
from repro.bench.report import format_table

__all__ = [
    "BandwidthPoint",
    "LatencyPoint",
    "OverheadPoint",
    "VmmcPair",
    "format_table",
    "vmmc_bidirectional_bandwidth",
    "vmmc_oneway_bandwidth",
    "vmmc_pingpong_latency",
    "vmmc_send_overhead",
]
