"""The fingerprint helper behind "did the simulation move".

Every campaign cell carries a ``fingerprint``: the per-seed digests of
its trials' exact metrics, gates and evidence (event counts, final
times, protocol counters, trace digests), and ``campaign diff`` fails
when it moves (tests/test_campaign.py, tests/test_paper_gates.py).
These tests pin the helper itself — exact-float canonical form, order
sensitivity — so an "identical" verdict can be trusted.

They also hold the chaos and Figure 3 cells that replaced the standing
workloads' golden fingerprints to their committed cells, and check
that each cell's evidence carries what its golden held.  The
``_across_engines`` names are historical: the goldens were recorded
while a second, vectorized engine was held bit-identical to this one.
"""

import json
import pathlib

from repro.campaign import aggregate_cell, cell_key, get_campaign, run_trial
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


# -- the cells that replaced the goldens, against the committed cells ----
ROOT = pathlib.Path(__file__).resolve().parent.parent


def _cell_equals_the_baseline(name, params):
    """Run one smoke cell of ``name`` through the runner, check it,
    fingerprint included, against the committed cell, and return the
    trial reports (evidence included)."""
    spec = get_campaign(name)
    index = spec.cells(smoke=True).index(params)
    trials = [run_trial(spec, index, params, seed)
              for seed in spec.resolved_seeds(smoke=True)]
    baseline = json.loads((ROOT / spec.artifact_name).read_text())
    [committed] = [cell for cell in baseline["cells"]
                   if cell["params"] == params]
    cell = {**aggregate_cell(trials), "params": params,
            "key": cell_key(params)}
    assert cell == committed, (
        f"{name} {committed['key']!r} no longer produces its committed "
        f"simulation ({spec.artifact_name})")
    return trials


def _assert_whole_chaos_report(trials):
    """A chaos cell's evidence is the driver's whole trial report: its
    metrics, fault statistics, both ends' protocol counters and the
    invariant probe."""
    for trial in trials:
        evidence = trial["evidence"]
        assert {"fault_stats", "probe", "tx_stats", "rx_stats",
                "send_failures"} <= set(evidence)
        assert {name: evidence[name] for name in trial["metrics"]} == \
            trial["metrics"]


def test_chaos_workload_bit_identical_across_engines():
    _assert_whole_chaos_report(
        _cell_equals_the_baseline("chaos", {"scenario": "error-burst"}))


def test_chaos_cold_crash_workload_bit_identical_across_engines():
    trials = _cell_equals_the_baseline("chaos",
                                       {"scenario": "daemon-cold-crash"})
    _assert_whole_chaos_report(trials)
    for trial in trials:                # the recovery report, too
        assert {"cold_restarts", "reimports", "imports_invalidated",
                "exports_reestablished"} <= set(trial["evidence"])
        assert trial["evidence"]["cold_restarts"] > 0


def test_chaos_multi_workload_bit_identical_across_engines():
    _assert_whole_chaos_report(
        _cell_equals_the_baseline("chaos", {"scenario": "multi-campaign"}))


def test_fig3_workload_bit_identical_across_engines():
    spec = get_campaign("bandwidth")
    for params in spec.cells(smoke=True):
        for trial in _cell_equals_the_baseline("bandwidth", params):
            assert set(trial["evidence"]) == {"events_processed", "now"}
            assert trial["evidence"]["events_processed"] > 0


def test_run_workload_report_is_wall_clock_free():
    # The same trials twice, with other trials run in between: reports,
    # evidence included, must be byte-identical, proving no wall-clock
    # (or other ambient) content leaks into what the fingerprints pin.
    cases = [(get_campaign("bandwidth"), {"pattern": "oneway",
                                          "size": 65536}),
             (get_campaign("chaos"), {"scenario": "error-burst"})]

    def run_all():
        return [canonical_json(run_trial(spec, spec.cells(smoke=True)
                                         .index(params), params, 0))
                for spec, params in cases]

    assert run_all() == run_all()
