"""Tests of the benchmark harness itself: ``pytest perfbench -q``.

Not collected by tier-1 (``pyproject.toml`` lists ``tests/`` only).
Everything runs at the reduced ``check`` shape, in this process.
"""

import math
import re

import pytest

import agree
import probes
import run
import tracing
import worker
from workloads import (WORKLOADS, histogram_samples, quantile, series,
                       supports)

BENCHMARK = run.BENCHMARK
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")


# -- BENCHMARK.json against the contract --------------------------------------
def test_names_units_and_limits():
    e2e, layer = BENCHMARK["end_to_end"], BENCHMARK["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(layer) <= 128
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    names = [m["name"] for m in e2e + layer + BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in e2e + layer)
    assert all(m["better"] in ("lower", "higher") for m in e2e + layer)
    assert all(0 < m["bound"] <= 0.25 for m in e2e)
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in e2e)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in BENCHMARK["workloads"])
    assert BENCHMARK["paths"] == ["perfbench"]
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


# -- every workload at check shape: twice untraced, twice traced --------------
@pytest.fixture(scope="module")
def checked():
    return {name: worker.check_runs(name) for name in WORKLOADS}


@pytest.fixture(scope="module")
def traced_runs(checked):
    return {name: (runs[2], WORKLOADS[name].summarise(runs[2]["digests"]))
            for name, runs in checked.items()}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_check_repeats_exactly_traced_and_untraced(checked, name):
    assert worker.check_problems(checked[name]) == []


def test_check_notices_a_difference(checked):
    runs = [dict(run) for run in checked["kv-serve"]]
    runs[1]["fingerprint"] = "0" * 64
    runs[3]["counts"] = runs[3]["counts"][:-1]
    assert len(worker.check_problems(runs)) == 2


def _document(result: dict, summary: dict) -> dict:
    """A worker document, as ``run.py`` receives it."""
    return {"passes": [result["rows"]], "peak_rss_mb": 1.0,
            "sim": {k: v for k, v in summary.items() if k != "layer"}}


def test_every_end_to_end_metric_is_emitted(traced_runs):
    wanted = {m["name"] for m in BENCHMARK["end_to_end"]}
    for name, (result, summary) in traced_runs.items():
        values = run.end_to_end_values(_document(result, summary), [0.5])
        assert set(values) == wanted, name
        # Never 0 — except that at this tiny shape most DSM faults are
        # home-local warm-up writes, which fetch nothing and take 0 ns.
        assert all(math.isfinite(v) and (v > 0 or (name, key) == (
            "dsm-chaos", "sim_p50_us")) for key, v in values.items()), \
            (name, values)


def test_every_per_layer_metric_is_emitted(traced_runs):
    wanted = {m["name"] for m in BENCHMARK["per_layer"]}
    produced, exercised = set(), set()
    for name, (result, summary) in traced_runs.items():
        document = _document(result, summary)
        document["layers"] = worker.layer_metrics(result, summary,
                                                  probe_scale=0.001)
        values = run.layer_values(document, document)
        assert all(math.isfinite(v) for v in values.values()), name
        produced |= set(values)
        exercised |= {k for k, v in values.items() if v}
    # Nothing is emitted that BENCHMARK.json does not name, every name is
    # produced, and apart from the by-construction zeros every metric is
    # non-zero on at least one workload.
    assert produced == wanted
    zero_by_design = {
        "kv.generator_lag_ns", "kv.failures", "kv.ryw_violations",
        "rpc.reply_failures", "hw.myrinet.switch_drops",
        "hw.myrinet.crc_errors", "hw.lanai.stalls", "hw.lanai.stall_ns",
        "hostos.signals", "dsm.sc_violations", "mp.credit_reacks",
        "trace.overhead_pct", "reliable.paced_ns"}
    assert wanted - exercised <= zero_by_design


def test_span_self_times_sum_to_unit_wall_time(traced_runs):
    for name, (result, _summary) in traced_runs.items():
        assert worker._span_sum_error(result["spans"],
                                      result["rows"]) < 1.0, name
        names = {span[0] for span in result["spans"]}
        assert {"unit", "cluster.build", "cluster.boot", "sim.run",
                "mem.physical_init"} <= names, name


# -- span arithmetic ----------------------------------------------------------
def _spans(*rows):
    return [list(row) for row in rows]


def test_self_time_nested():
    spans = _spans(("a", 0.0, 10.0, None, 0), ("b", 2.0, 8.0, 0, 0),
                   ("c", 3.0, 5.0, 1, 0))
    assert tracing.self_times(spans) == [4.0, 4.0, 2.0]
    assert sum(tracing.self_times(spans)) == 10.0


def test_self_time_siblings():
    spans = _spans(("a", 0.0, 10.0, None, 0), ("b", 1.0, 3.0, 0, 0),
                   ("b", 3.0, 6.0, 0, 0), ("c", 8.0, 9.0, 0, 0))
    assert tracing.self_times(spans) == [4.0, 2.0, 3.0, 1.0]
    assert tracing.self_time_by_name(spans) == {"a": 4.0, "b": 5.0,
                                                "c": 1.0}


def test_self_time_child_outliving_parent():
    # The child is clipped to the parent: only the overlap is discounted,
    # and overlapping siblings are not discounted twice.
    spans = _spans(("a", 0.0, 10.0, None, 0), ("b", 6.0, 14.0, 0, 0),
                   ("c", 7.0, 9.0, 0, 0))
    assert tracing.self_times(spans) == [6.0, 8.0, 2.0]


def test_recorder_nests_and_tags_units():
    recorder = tracing.Recorder()
    recorder.unit = 7
    with recorder.span("outer"):
        with recorder.span("inner"):
            pass
    (outer, inner) = recorder.spans
    assert (outer[0], outer[3], outer[4]) == ("outer", None, 7)
    assert (inner[0], inner[3]) == ("inner", 0)
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]


def test_patches_are_rolled_back():
    from repro.cluster import Cluster
    from repro.obs.metrics import MetricsRegistry

    before = (vars(Cluster)["build"], MetricsRegistry.install,
              MetricsRegistry.counter)
    workload = WORKLOADS["fig3-stream"]
    worker.run_units(workload, workload.units(0, "warm"), traced=True)
    assert before == (vars(Cluster)["build"], MetricsRegistry.install,
                      MetricsRegistry.counter)


# -- percentiles --------------------------------------------------------------
def test_percentile_rule_needs_ten_samples_beyond():
    assert supports(1000, 0.99) and not supports(999, 0.99)
    assert supports(20, 0.5) and not supports(19, 0.5)
    assert supports(10_000, 0.999) and not supports(4000, 0.999)


def test_quantile_and_sample_recovery_match_the_registry():
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    values = [(i * 7919) % 1009 + 3 for i in range(500)]
    for i, value in enumerate(values):
        registry.histogram("lat_ns", shard=f"s{i % 3}").observe(value)
    registry.histogram("one_ns", node="n0").observe(42)
    snapshot = registry.snapshot()
    assert len(list(series(snapshot, "lat_ns"))) == 3
    assert histogram_samples(registry, snapshot, "lat_ns") == sorted(values)
    assert histogram_samples(registry, snapshot, "one_ns") == [42]
    single = MetricsRegistry()
    for value in values:
        single.histogram("lat_ns").observe(value)
    for q in (0.5, 0.9, 0.99):
        assert quantile(sorted(values), q) == \
            single.histogram("lat_ns").quantile(q)


# -- probes -------------------------------------------------------------------
def test_every_probe_runs_at_tiny_size():
    values = probes.run_probes(0.001)
    assert set(probes.PROBES) < set(values)
    assert all(math.isfinite(v) and v > 0 for v in values.values()), values
    assert values["hw.bus.dma_mbps_4k"] == pytest.approx(100, rel=0.01)
    assert values["hw.bus.dma_mbps_64k"] == pytest.approx(128, rel=0.01)


# -- agree.py -----------------------------------------------------------------
def test_agree_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100]
    assert agree.verdict(steady, [v * 1.05 for v in steady],
                         "lower", 0.10) == "agree"
    assert agree.verdict(steady, [v * 1.20 for v in steady],
                         "lower", 0.10) == "differ"
    assert agree.verdict(steady, [v * 0.80 for v in steady],
                         "higher", 0.10) == "differ"
    assert agree.verdict(steady, [v * 1.20 for v in steady],
                         "higher", 0.10) == "agree"
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100]
    # Spread wider than the bound: not "unchanged" ...
    assert agree.verdict(noisy, noisy, "lower", 0.10) == "unresolved"
    # ... unless every run of the second set beats every run of the first.
    assert agree.verdict(noisy, [v / 4 for v in noisy],
                         "lower", 0.10) == "agree"


def test_agree_exact_outputs():
    def document(fingerprint, failed, p50):
        return {"sim_fingerprint": fingerprint,
                "result": {"failed": failed, "metrics": {
                    "sim_p50_us": {"value": p50, "unit": "sim_us"}}}}

    first = {0: document("aa", 1, 77.0), 1: document("bb", 0, 78.0)}
    assert agree.exact_differences(first, first, ["sim_p50_us"]) == []
    second = {0: document("aa", 2, 77.0), 1: document("cc", 0, 78.5),
              5: document("dd", 0, 1.0)}
    assert len(agree.exact_differences(first, second,
                                       ["sim_p50_us"])) == 3
