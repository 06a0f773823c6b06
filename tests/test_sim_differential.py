"""The scalar-oracle differential harness (the issue's headline gate).

Replays the repo's standing workloads — chaos, fig3 bandwidth,
DSM-smoke, fabric-smoke, and the observability contract workload — on
both simulation engines and asserts the full run reports are
bit-identical: event traces, metrics snapshots, simulated times,
protocol counters, bench artifacts.  The scalar engine is the
correctness oracle; any divergence is a vector-engine bug by
definition.

Every scalar run is also checked against the recorded sha256 in
``tests/golden_fingerprints.json``: engine-vs-engine cannot see drift
common to both engines, a golden value can.  A change that moves a
simulated number on purpose regenerates the file
(``run_workload(name, "scalar")["fingerprint"]`` per workload) and says
so.

Also pins down the fingerprint helper itself (exact-float canonical
form, divergence paths) so a future "identical" verdict can be trusted.
"""

import json
import pathlib

import pytest

from repro.bench.differential import WORKLOADS, diff_engines, run_workload
from repro.sim import Environment, Tracer
from repro.sim.fingerprint import (canonical_json, diff_values,
                                   trace_fingerprint,
                                   trace_multiset_fingerprint,
                                   value_fingerprint)


# -- the fingerprint helper ------------------------------------------------
def test_canonical_json_is_exact_about_floats():
    assert canonical_json(0.1 + 0.2) != canonical_json(0.3)
    assert canonical_json(0.5) == canonical_json(0.5)
    # sorted keys: dict order must not matter
    assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})


def test_value_fingerprint_handles_numpy_types():
    import numpy as np

    plain = value_fingerprint({"n": 3, "xs": [1, 2], "f": 1.5})
    numpied = value_fingerprint({"n": np.int64(3),
                                 "xs": np.array([1, 2]),
                                 "f": np.float64(1.5)})
    assert plain == numpied


def test_diff_values_names_the_divergent_path():
    a = {"metrics": {"mbps": 100.0, "drops": 1}, "trace": [1, 2, 3]}
    b = {"metrics": {"mbps": 100.0, "drops": 2}, "trace": [1, 2, 4]}
    paths = [p for p, _, _ in diff_values(a, b)]
    assert "metrics.drops" in paths
    assert "trace[2]" in paths
    assert diff_values(a, a) == []


def test_trace_fingerprint_covers_order_and_payload():
    def traced(records):
        tracer = Tracer()
        for t, cat, payload in records:
            tracer.record(t, cat, **payload)
        return trace_fingerprint(tracer)

    base = [(0, "a", {"x": 1}), (5, "b", {"x": 2})]
    assert traced(base) == traced(list(base))
    assert traced(base) != traced(list(reversed(base)))
    assert traced(base) != traced([(0, "a", {"x": 1}), (5, "b", {"x": 3})])


def test_trace_multiset_fingerprint_ignores_order_only():
    def traced(records):
        tracer = Tracer()
        for t, cat, payload in records:
            tracer.record(t, cat, **payload)
        return trace_multiset_fingerprint(tracer)

    base = [(5, "a", {"x": 1}), (5, "b", {"x": 2}), (5, "b", {"x": 2})]
    assert traced(base) == traced(list(reversed(base)))
    assert traced(base) != traced(base[:2])             # multiplicity
    assert traced(base) != traced([(6, "a", {"x": 1})] + base[1:])
    assert traced(base) != traced([(5, "a", {"x": 9})] + base[1:])


# -- engine differential on the standing workloads -------------------------
GOLDEN = json.loads(pathlib.Path(__file__).with_name(
    "golden_fingerprints.json").read_text())


def _assert_identical(name):
    scalar = run_workload(name, "scalar")
    vector = run_workload(name, "vector")
    assert scalar["fingerprint"] == GOLDEN[name], (
        f"{name!r} no longer produces its recorded simulation "
        "(tests/golden_fingerprints.json)")
    if scalar["fingerprint"] != vector["fingerprint"]:
        divergences = diff_values(scalar["report"], vector["report"], limit=8)
        pytest.fail(f"engines diverged on {name!r}: "
                    + "; ".join(f"{p}: scalar={a!r} vector={b!r}"
                                for p, a, b in divergences))
    return scalar["report"], vector["report"]


def test_workload_registry_matches_the_issue_acceptance_list():
    assert {"chaos", "fig3", "dsm-smoke", "fabric-smoke",
            "kv-smoke", "contract"} <= set(WORKLOADS)
    assert set(GOLDEN) == set(WORKLOADS)


def test_chaos_workload_bit_identical_across_engines():
    _assert_identical("chaos")


def test_chaos_cold_crash_workload_bit_identical_across_engines():
    _assert_identical("chaos-cold-crash")


def test_chaos_multi_workload_bit_identical_across_engines():
    _assert_identical("chaos-multi")


def test_fig3_workload_bit_identical_across_engines():
    _assert_identical("fig3")


def test_dsm_smoke_workload_bit_identical_across_engines():
    _assert_identical("dsm-smoke")


def test_fabric_smoke_workload_bit_identical_across_engines():
    _assert_identical("fabric-smoke")


def test_kv_smoke_workload_bit_identical_across_engines():
    # The KV chaos trial exercises the reliable sender's batched
    # retransmit deadlines (Environment.timeout_batch) end to end.
    _assert_identical("kv-smoke")


def test_contract_workload_traces_and_metrics_bit_identical():
    scalar, vector = _assert_identical("contract")
    # Spelled out (not just the top-level hash) because these two are
    # the issue's named deliverables: the event trace and the metrics
    # snapshot.
    assert scalar["trace_fingerprint"] == vector["trace_fingerprint"]
    assert scalar["metrics_fingerprint"] == vector["metrics_fingerprint"]
    assert scalar["trace_records"] == vector["trace_records"]
    assert scalar["metrics"] == vector["metrics"]
    # Recorded at the commit before hardware operations became inline
    # generators (which swapped two same-nanosecond records): a change
    # that only reorders within a nanosecond keeps this digest.
    assert scalar["trace_multiset_fingerprint"] == (
        "4eb7d9e8daba09bf12d8b1c322f78c1bdb9214bac6d122cd3de04448ef2971c4")


def test_diff_engines_reports_per_workload_verdicts():
    result = diff_engines(["fig3"])
    assert result["identical"] is True
    entry = result["workloads"]["fig3"]
    assert entry["identical"] is True
    assert entry["fingerprints"]["scalar"] == entry["fingerprints"]["vector"]
    assert "divergences" not in entry


def test_run_workload_report_is_wall_clock_free():
    # Same engine, run twice: reports must be byte-identical, proving
    # no wall-clock (or other ambient) content leaks into what the
    # differ compares.
    first = run_workload("fig3", "scalar")
    again = run_workload("fig3", "scalar")
    assert first["fingerprint"] == again["fingerprint"]


def test_engine_env_restores_prior_value(monkeypatch):
    import os

    from repro.bench.differential import engine_env
    from repro.sim.core import ENGINE_ENV_VAR

    monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
    with engine_env("vector"):
        assert os.environ[ENGINE_ENV_VAR] == "vector"
        assert type(Environment()).__name__ == "VectorEnvironment"
    assert ENGINE_ENV_VAR not in os.environ
    monkeypatch.setenv(ENGINE_ENV_VAR, "scalar")
    with engine_env("vector"):
        pass
    assert os.environ[ENGINE_ENV_VAR] == "scalar"
