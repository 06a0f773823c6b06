"""Golden fingerprints of the standing workloads.

Replays the repo's standing workloads — chaos, fig3 bandwidth,
DSM-smoke, fabric-smoke, KV-smoke and the observability contract
workload — and checks each run report's sha256 (event traces, metrics
snapshots, simulated times, protocol counters, bench artifacts) against
the value recorded in ``tests/golden_fingerprints.json``.  The values
were recorded while a second, vectorized engine was held bit-identical
to this one, hence the ``_across_engines`` test names: each test now
holds the one engine to that record.  A change that moves a simulated
number on purpose regenerates the file
(``run_workload(name)["fingerprint"]`` per workload) and says so.

Also pins down the fingerprint helper itself (exact-float canonical
form, order sensitivity) so an "identical" verdict can be trusted.
"""

import json
import pathlib

from repro.bench.differential import WORKLOADS, run_workload
from repro.sim import Tracer
from repro.sim.fingerprint import (canonical_json, trace_fingerprint,
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


# -- the standing workloads against their recorded fingerprints ---------
GOLDEN = json.loads(pathlib.Path(__file__).with_name(
    "golden_fingerprints.json").read_text())


def _assert_golden(name):
    run = run_workload(name)
    assert run["fingerprint"] == GOLDEN[name], (
        f"{name!r} no longer produces its recorded simulation "
        "(tests/golden_fingerprints.json)")
    return run["report"]


def test_workload_registry_matches_the_issue_acceptance_list():
    assert {"chaos", "fig3", "dsm-smoke", "fabric-smoke",
            "kv-smoke", "contract"} <= set(WORKLOADS)
    assert set(GOLDEN) == set(WORKLOADS)


def test_chaos_workload_bit_identical_across_engines():
    _assert_golden("chaos")


def test_chaos_cold_crash_workload_bit_identical_across_engines():
    _assert_golden("chaos-cold-crash")


def test_chaos_multi_workload_bit_identical_across_engines():
    _assert_golden("chaos-multi")


def test_fig3_workload_bit_identical_across_engines():
    _assert_golden("fig3")


def test_dsm_smoke_workload_bit_identical_across_engines():
    _assert_golden("dsm-smoke")


def test_fabric_smoke_workload_bit_identical_across_engines():
    _assert_golden("fabric-smoke")


def test_kv_smoke_workload_bit_identical_across_engines():
    # The KV chaos trial exercises the reliable sender's retransmit
    # deadlines end to end.
    _assert_golden("kv-smoke")


def test_contract_workload_traces_and_metrics_bit_identical():
    report = _assert_golden("contract")
    # Recorded at the commit before hardware operations became inline
    # generators (which swapped two same-nanosecond records), then
    # re-derived without the one phase-announcement record when fault
    # campaigns got their own clock: a change that only
    # reorders within a nanosecond keeps this digest.
    assert report["trace_multiset_fingerprint"] == (
        "6ee303364c75bec950ff101d4cf295526348206ede9f7b3d7b8a85e8128e7b90")


def test_run_workload_report_is_wall_clock_free():
    # Run twice: reports must be byte-identical, proving no wall-clock
    # (or other ambient) content leaks into what the goldens pin.
    first = run_workload("fig3")
    again = run_workload("fig3")
    assert first["fingerprint"] == again["fingerprint"]
