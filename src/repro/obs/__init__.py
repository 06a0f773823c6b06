"""Observability: metrics registry, Perfetto export, latency breakdown.

Cross-cutting instrumentation for the whole simulator (DESIGN S18):

* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` of counters, gauges
  and histograms (latency quantiles, retransmit counts, DMA-queue depth,
  link utilisation): statistics the per-packet objects own, read at
  snapshot, and per-call helpers elsewhere, no-ops until a registry is
  installed, like :func:`repro.sim.trace.emit`.  Install one per
  environment with ``MetricsRegistry().install(env)``, at any time.
* :mod:`repro.obs.perfetto` — Chrome trace-event / Perfetto JSON exporter
  over the existing :class:`~repro.sim.trace.Tracer`: pids per node, tids
  per component, so a full simulated run opens in a trace viewer.
* :mod:`repro.obs.breakdown` — the paper's §5.2 per-stage latency table
  regenerated from traces of one actual send; stage sums telescope to the
  end-to-end latency exactly.
* :mod:`repro.obs.contract` — the documented trace-category namespace
  (docs/TRACING.md) and the docs-vs-code diff that keeps it honest.
* :mod:`repro.obs.workload` — the instrumented end-to-end run the
  contract is checked against.

CLI surface: ``python -m repro metrics`` and ``python -m repro trace
--perfetto out.json`` (see README "Observability").
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    count,
    observe,
    registry_of,
    set_gauge,
)
from repro.obs.contract import (
    canonical_category,
    documented_categories,
    documented_metrics,
    undocumented,
)
from repro.obs.perfetto import export_chrome_trace
from repro.obs.breakdown import (
    StageBreakdown,
    breakdown_from_trace,
    measure_stage_breakdown,
    traced_oneway_send,
)
from repro.obs.workload import run_contract_workload

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "StageBreakdown",
    "breakdown_from_trace",
    "canonical_category",
    "count",
    "documented_categories",
    "documented_metrics",
    "export_chrome_trace",
    "measure_stage_breakdown",
    "observe",
    "registry_of",
    "run_contract_workload",
    "set_gauge",
    "traced_oneway_send",
    "undocumented",
]
