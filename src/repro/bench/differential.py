"""Engine-differential workload runners: scalar oracle vs vector engine.

Each runner here replays one of the repo's standing workloads under a
chosen simulation engine and reduces the run to a JSON-serializable
report — simulated times, counters, metrics, trace fingerprints — with
**no wall-clock content**, so two runs are comparable byte for byte.
:func:`diff_engines` runs a workload set on both engines and reports,
per workload, whether the reports are identical and (if not) the first
divergent paths.

This is the machinery behind ``tests/test_sim_differential.py`` and the
``python -m repro engine-diff`` CLI/CI step.  The workload set matches
the issue's acceptance list:

* ``chaos``       — seeded error-burst run of the reliable sender;
* ``fig3``        — paper Figure 3 bandwidth points (one-way + bidir);
* ``dsm-smoke``   — DSM coherence workload, error-burst scenario;
* ``fabric-smoke``— multi-switch fabric pair traffic on a fat-tree;
* ``contract``    — the observability contract workload, fingerprinting
  the full event trace and the metrics snapshot;
* ``chaos-cold-crash`` / ``chaos-multi`` — the reliable channel across
  cold daemon restarts and under concurrent fault campaigns.

The scalar fingerprint of every workload is also pinned in
``tests/golden_fingerprints.json``, which catches drift common to both
engines.

Engine selection happens via ``$REPRO_SIM_ENGINE`` (every runner builds
its environments through the normal constructors), so a runner exercises
exactly the code path a user selecting that engine would hit.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.sim.core import ENGINE_ENV_VAR, resolve_engine
from repro.sim.fingerprint import (diff_values, trace_fingerprint,
                                   trace_multiset_fingerprint, trace_payload,
                                   value_fingerprint)

__all__ = ["WORKLOADS", "engine_env", "run_workload", "diff_engines"]


@contextmanager
def engine_env(engine: str) -> Iterator[None]:
    """Run a block with ``$REPRO_SIM_ENGINE`` forced to ``engine``."""
    resolve_engine(engine)  # fail fast on typos
    saved = os.environ.get(ENGINE_ENV_VAR)
    os.environ[ENGINE_ENV_VAR] = engine
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop(ENGINE_ENV_VAR, None)
        else:
            os.environ[ENGINE_ENV_VAR] = saved


def _error_burst_workload() -> dict[str, Any]:
    from repro.bench.chaos import run_error_burst_trial

    return {f"seed{seed}": run_error_burst_trial(seed, messages=30,
                                                 size=1024)
            for seed in (0, 1)}


def _cold_crash_workload() -> dict[str, Any]:
    from dataclasses import asdict

    from repro.bench.chaos import run_cold_crash_point

    point, stats, recovery = run_cold_crash_point(seed=7, messages=60,
                                                  size=1024)
    return {"point": asdict(point), "faults": stats.as_dict(),
            "recovery": recovery}


def _multi_campaign_workload() -> dict[str, Any]:
    from repro.bench.chaos import run_multi_campaign_trial

    return run_multi_campaign_trial(7, messages=16, size=1024)


def _fig3_workload() -> dict[str, Any]:
    from repro.bench.microbench import (VmmcPair, vmmc_bidirectional_bandwidth,
                                        vmmc_oneway_bandwidth)
    from repro.cluster import TestbedConfig

    pair = VmmcPair(TestbedConfig(nnodes=2, memory_mb=32),
                    buffer_bytes=65536)
    oneway = vmmc_oneway_bandwidth(pair, 65536, iterations=4)
    bidir = vmmc_bidirectional_bandwidth(pair, 16384, iterations=3)
    return {
        "oneway": {"size": oneway.size, "mbps": oneway.mbps},
        "bidir": {"size": bidir.size, "mbps": bidir.mbps},
        "events_processed": pair.env.events_processed,
        "final_time_ns": pair.env.now,
    }


def _dsm_workload() -> dict[str, Any]:
    from repro.dsm.bench import run_dsm_trial

    report = run_dsm_trial(0, nnodes=4, npages=16, page_bytes=256,
                           ops_per_node=12, scenario="error-burst")
    report.pop("wall_clock_s", None)
    return report


def _fabric_workload() -> dict[str, Any]:
    from repro.campaign.trials import fabric_trial

    return fabric_trial({"topology": "fattree:4", "pairs": 4,
                         "messages": 6, "size": 2048}, seed=0)


def _kv_workload() -> dict[str, Any]:
    # Chaos scenario on purpose: error bursts drive the reliable
    # sender's batched retransmit deadlines (Environment.timeout_batch),
    # so this workload is the engine-identity proof for that path.
    from repro.kv.bench import run_kv_trial

    return run_kv_trial(0, shards=2, requests=120, nkeys=64, skew=1.1,
                        load="diurnal", scenario="error-burst")


def _contract_workload() -> dict[str, Any]:
    from repro.obs.workload import run_contract_workload

    tracer, metrics = run_contract_workload()
    return {
        "trace_fingerprint": trace_fingerprint(tracer),
        # Order-insensitive: moves only if a record's time or payload does.
        "trace_multiset_fingerprint": trace_multiset_fingerprint(tracer),
        "trace_records": len(tracer.records),
        "trace_dropped": tracer.dropped,
        "metrics_fingerprint": value_fingerprint(metrics.snapshot()),
        "metrics": metrics.snapshot(),
        # Full trace retained so a divergence names the first differing
        # record, not just two hashes.
        "trace": trace_payload(tracer),
    }


#: name -> zero-argument runner returning a JSON-serializable report.
WORKLOADS: dict[str, Callable[[], dict[str, Any]]] = {
    "chaos": _error_burst_workload,
    "chaos-cold-crash": _cold_crash_workload,
    "chaos-multi": _multi_campaign_workload,
    "fig3": _fig3_workload,
    "dsm-smoke": _dsm_workload,
    "fabric-smoke": _fabric_workload,
    "kv-smoke": _kv_workload,
    "contract": _contract_workload,
}


def run_workload(name: str, engine: str) -> dict[str, Any]:
    """Run workload ``name`` under ``engine``; returns its report plus
    the engine-side bookkeeping the differ uses."""
    from repro.hostos.process import fresh_pid_namespace

    runner = WORKLOADS[name]
    with engine_env(engine), fresh_pid_namespace():
        report = runner()
    return {"workload": name, "engine": engine,
            "fingerprint": value_fingerprint(report), "report": report}


def diff_engines(names: list[str] | None = None,
                 engines: tuple[str, str] = ("scalar", "vector"),
                 ) -> dict[str, Any]:
    """Run each workload on both engines and compare the reports.

    Returns ``{"identical": bool, "workloads": {name: {...}}}`` where a
    non-identical workload entry carries the first divergent paths from
    :func:`repro.sim.fingerprint.diff_values` — the artifact CI uploads
    on failure.
    """
    result: dict[str, Any] = {"engines": list(engines), "workloads": {}}
    identical = True
    for name in names or sorted(WORKLOADS):
        left = run_workload(name, engines[0])
        right = run_workload(name, engines[1])
        same = left["fingerprint"] == right["fingerprint"]
        entry: dict[str, Any] = {
            "identical": same,
            "fingerprints": {engines[0]: left["fingerprint"],
                             engines[1]: right["fingerprint"]},
        }
        if not same:
            identical = False
            entry["divergences"] = [
                {"path": path, engines[0]: a, engines[1]: b}
                for path, a, b in diff_values(left["report"], right["report"])]
        result["workloads"][name] = entry
    result["identical"] = identical
    return result
