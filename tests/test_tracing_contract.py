"""The docs-vs-code diff: docs/TRACING.md cannot drift from the emitters.

Two-way check against the instrumented contract workload
(:func:`repro.obs.workload.run_contract_workload`):

* every category the workload emits must be documented (else the emitter
  grew an undocumented trace point);
* every category documented with coverage class ``e2e`` must be emitted by
  the workload (else the docs describe a trace point that no longer fires,
  or the workload stopped exercising it);
* every metric name the workload records must appear in the "Metrics
  reference" table.

``rare``-class categories (error paths, SHRIMP, EISA) are exempt from the
second check but still satisfy the first if they ever fire.
"""

import pytest

from repro.obs.contract import (
    canonical_category,
    documented_categories,
    documented_metrics,
    matches_pattern,
    node_of,
    undocumented,
)


# --------------------------------------------------------- canonical names
def test_canonical_category_strips_instances():
    cases = {
        "node0.lcp.send.pickup": "lcp.send.pickup",
        "node12.pci.dma": "pci.dma",
        "node0->sw0.tx": "link.tx",
        "sw3.forward": "switch.forward",
        "daemon.node1.crash": "daemon.crash",
        "fault.link_down.raise": "fault.link_down.raise",
        "mapping.start": "mapping.start",
    }
    for emitted, canonical in cases.items():
        assert canonical_category(emitted) == canonical, emitted


def test_node_of_identifies_owner():
    assert node_of("node0.lcp.send.pickup") == "node0"
    assert node_of("daemon.node1.crash") == "node1"
    assert node_of("sw0.forward") is None
    assert node_of("node0->sw0.tx") is None


def test_matches_pattern_wildcards():
    assert matches_pattern("fault.<kind>.raise", "fault.link_down.raise")
    assert not matches_pattern("fault.<kind>.raise", "fault.raise")
    assert not matches_pattern("lcp.send", "lcp.send.pickup")
    assert matches_pattern("lcp.send.pickup", "lcp.send.pickup")


# ------------------------------------------------------------- docs parsing
def test_docs_parse_with_known_coverage_classes():
    documented = documented_categories()
    assert len(documented) > 30
    assert set(documented.values()) <= {"e2e", "rare"}
    # Spot checks: the §5.2 boundary categories are all documented e2e.
    for must in ("vmmc.send.posted", "lcp.send.pickup", "lanai.netsend",
                 "lanai.netrecv", "hostdma.write_host", "link.tx"):
        assert documented.get(must) == "e2e", must
    metrics = documented_metrics()
    assert len(metrics) > 30
    assert "link.bytes" in metrics and "rel.retransmits" in metrics


# -------------------------------------------------------- the two-way diff
@pytest.fixture(scope="module")
def workload():
    from repro.hostos.process import fresh_pid_namespace
    from repro.obs.workload import run_contract_workload

    # Pids appear in trace payloads: start them where every run does.
    with fresh_pid_namespace():
        tracer, registry = run_contract_workload()
    return tracer, registry


def test_every_emitted_category_documented(workload):
    tracer, _ = workload
    assert undocumented(tracer) == []


def test_every_e2e_documented_category_emitted(workload):
    tracer, _ = workload
    emitted = {canonical_category(c) for c in tracer.categories()}
    missing = [pattern
               for pattern, coverage in documented_categories().items()
               if coverage == "e2e"
               and not any(matches_pattern(pattern, c) for c in emitted)]
    assert missing == [], (
        f"documented as e2e but never emitted by the contract workload: "
        f"{missing}")


def test_every_recorded_metric_documented(workload):
    _, registry = workload
    assert registry.names(), "workload recorded no metrics"
    missing = sorted(set(registry.names()) - documented_metrics())
    assert missing == [], (
        f"metrics recorded but absent from docs/TRACING.md: {missing}")


def test_trace_records_are_pinned_up_to_same_nanosecond_order(workload):
    """Every record's time, category and payload, as a multiset.

    Recorded at the commit before hardware operations became inline
    generators (which swapped two same-nanosecond records), then
    re-derived without the one phase-announcement record when fault
    campaigns got their own clock.  A change that only reorders records
    within a nanosecond keeps this digest; one that moves a time or a
    payload, or adds or drops a record, does not."""
    from repro.sim.fingerprint import trace_multiset_fingerprint

    tracer, _ = workload
    assert trace_multiset_fingerprint(tracer) == (
        "6ee303364c75bec950ff101d4cf295526348206ede9f7b3d7b8a85e8128e7b90")


# ----------------------------------------- adaptive reliable golden trace
ADAPTIVE_CATEGORIES = ("rel.rtt.sample", "rel.cwnd", "rel.pace")
ADAPTIVE_GAUGES = ("rel.srtt_ns", "rel.rttvar_ns", "rel.rto_ns",
                   "rel.cwnd", "rel.inflight")


def test_workload_exercises_adaptive_reliable_layer(workload):
    """The contract workload drives the congestion-controlled channel
    hard enough that every adaptive trace point and gauge fires — the
    golden-trace floor for the rel.* observability surface."""
    tracer, registry = workload
    emitted = {canonical_category(c) for c in tracer.categories()}
    for category in ADAPTIVE_CATEGORIES:
        assert category in emitted, f"{category} never emitted"
    for gauge in ADAPTIVE_GAUGES:
        assert gauge in registry.names(), f"{gauge} never recorded"
    # The AIMD window moved in *both* directions during the storm.
    reasons = {r.payload.get("reason") for r in tracer
               if canonical_category(r.category) == "rel.cwnd"}
    assert reasons >= {"grow", "cut"}
    # Every RTT sample carries the full estimator state, integer-ns.
    samples = [r for r in tracer
               if canonical_category(r.category) == "rel.rtt.sample"]
    assert samples
    for record in samples:
        for key in ("rtt_ns", "srtt_ns", "rttvar_ns", "rto_ns"):
            assert isinstance(record.payload[key], int), key
            assert record.payload[key] > 0


def test_adaptive_categories_round_trip_perfetto(workload, tmp_path):
    """The rel.* adaptive events survive the Perfetto export byte-intact:
    canonical names, full payloads in ``args``, nothing dropped."""
    import json

    from repro.obs.perfetto import export_chrome_trace

    tracer, _ = workload
    path = tmp_path / "contract.json"
    document = export_chrome_trace(tracer, path=path)
    assert document["otherData"]["records"] == len(tracer)

    by_name: dict[str, list] = {}
    for event in document["traceEvents"]:
        if event.get("ph") == "M":
            continue
        by_name.setdefault(event["name"], []).append(event)
    for category in ADAPTIVE_CATEGORIES:
        assert by_name.get(category), f"{category} lost in export"
    for event in by_name["rel.rtt.sample"]:
        assert {"channel", "seq", "rtt_ns", "srtt_ns",
                "rttvar_ns", "rto_ns"} <= set(event["args"])
    for event in by_name["rel.cwnd"]:
        assert event["args"]["reason"] in ("grow", "cut")
        assert event["args"]["cwnd"] >= 1
    for event in by_name["rel.pace"]:
        assert event["args"]["wait_ns"] > 0
        assert event["args"]["pressure"] >= 1
    # The on-disk document is the same object we inspected.
    assert json.loads(path.read_text())["otherData"]["records"] \
        == len(tracer)


def test_trace_check_docs_cli_passes(capsys):
    """``repro trace --check-docs`` exits 0: the emitted surface and
    docs/TRACING.md agree (this is the command CI runs)."""
    from repro.cli import main

    assert main(["trace", "--check-docs"]) == 0
    out = capsys.readouterr().out
    assert "all emitted trace categories are documented" in out


def test_api_knob_table_is_the_open_channel_signature():
    """docs/API.md's reliable-channel knob table lists exactly the
    keyword parameters of ``open_channel``, in order — a knob added,
    renamed or deleted in only one of the two fails here."""
    import inspect
    import re

    from repro.obs.contract import tracing_doc_path
    from repro.vmmc.reliable import open_channel

    api = tracing_doc_path().with_name("API.md").read_text()
    table = api.split("| knob | default | meaning |")[1].split("\n\n")[0]
    assert re.findall(r"^\| `(\w+)` \|", table, flags=re.M) == [
        name for name, param
        in inspect.signature(open_channel).parameters.items()
        if param.default is not param.empty]


def test_contract_workload_is_deterministic(workload):
    from repro.obs.workload import run_contract_workload

    tracer, registry = workload
    tracer2, registry2 = run_contract_workload()
    assert registry2.snapshot() == registry.snapshot()
    assert [(r.time, r.category) for r in tracer2] == \
           [(r.time, r.category) for r in tracer]
