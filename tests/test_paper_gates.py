"""The paper's numbers as standing checks (docs/BENCHMARKS.md, "Paper gates").

Every anchor the paper states is a ``paper_*`` gate inside the campaign
trial that measures it, so these tests only have to show that (a) the
smoke shape CI runs passes every gate and reproduces the committed
baseline, fingerprints included, (b) a gate actually fails when the
model drifts, and ``campaign diff`` fails on any simulated move, even
one no threshold or metric can see, (c) registry, baselines and CI name
the same campaigns — plus the few Figure 1-4 claims that compare
several cells and so cannot be a one-cell gate.
"""

import json
import pathlib
import re

import pytest

from repro.campaign import (aggregate_cell, all_campaigns,
                            artifact_from_reports, cell_key, diff_artifacts,
                            get_campaign, run_campaign, run_trial)
from repro.campaign.runner import load_reports
from repro.campaign.trials import (bandwidth_trial, dma_trial, latency_trial,
                                   overhead_trial)
from repro.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Campaigns that reproduce a paper table/figure or extend one with a
#: deterministic simulated result.  Of ``dsm``, ``kv`` and ``fabric``,
#: whose whole smoke shapes cost more, one cell each is pinned below
#: (``EXTENSION_CELLS``).
PAPER_CAMPAIGNS = ("dma", "latency", "bandwidth", "overhead", "breakdown",
                   "hw-limits", "vrpc", "shrimp", "related-work",
                   "threshold", "pipeline", "multiprocess", "chaos",
                   "lossy-link")


def _baseline(spec) -> dict:
    return json.loads((ROOT / spec.artifact_name).read_text())


@pytest.mark.parametrize("name", PAPER_CAMPAIGNS)
def test_smoke_run_passes_every_gate_and_equals_the_baseline(name, tmp_path):
    spec = get_campaign(name)
    run_campaign(spec, smoke=True, jobs=1, state_root=tmp_path)
    reports = load_reports(spec, True, tmp_path)
    artifact = artifact_from_reports(spec, reports, smoke=True, git=None)
    assert [c["gates_failed"] for c in artifact["cells"]
            if c["gates_failed"]] == []
    # Medians, extremes, CI, seeds and params of every cell, to the digit.
    assert artifact["cells"] == _baseline(spec)["cells"]


#: One smoke cell of each extension campaign: the faulted DSM and KV
#: workloads and a multi-switch fabric.
EXTENSION_CELLS = {
    "dsm": {"scenario": "error-burst"},
    "kv": {"load": "diurnal", "scenario": "error-burst", "shards": 2,
           "skew": 1.2, "requests": 400},
    "fabric": {"topology": "fattree:4"},
}


def _run_cell(spec, params) -> dict:
    """One smoke cell through the runner, as its artifact entry."""
    index = spec.cells(smoke=True).index(params)
    cell = aggregate_cell([run_trial(spec, index, params, seed)
                           for seed in spec.resolved_seeds(smoke=True)])
    return {**cell, "params": params, "key": cell_key(params)}


def _baseline_cell(spec, params) -> dict:
    [cell] = [cell for cell in _baseline(spec)["cells"]
              if cell["params"] == params]
    return cell


@pytest.mark.parametrize("name", sorted(EXTENSION_CELLS))
def test_extension_cell_equals_the_baseline(name):
    spec = get_campaign(name)
    params = EXTENSION_CELLS[name]
    assert _run_cell(spec, params) == _baseline_cell(spec, params)


def _curve(trial, metric, sizes, **fixed) -> dict:
    return {size: trial({"size": size, **fixed}, 0)["metrics"][metric]
            for size in sizes}


def test_figure_1_to_4_shapes_that_span_cells():
    """The figures' claims that compare points of a curve, or two
    curves; the one-point anchors are gates in the same trials."""
    # Figure 1: DMA bandwidth rises monotonically with the block size.
    dma = _curve(dma_trial, "mbps", [64 << i for i in range(11)])
    assert list(dma.values()) == sorted(set(dma.values()))

    # Figure 2: latency grows with the PIO word count in the short
    # regime, and the whole figure stays within one order of magnitude.
    lat = _curve(latency_trial, "one_way_us", (4, 64, 128, 512), iters=10)
    assert lat[4] < lat[64] < lat[128]
    assert lat[512] < 5 * lat[4]

    # Figure 3: the 98.4 MB/s peak; the bidirectional total peaks at
    # ~91 MB/s, below the one-way peak; bandwidth rises with size.
    sizes = (256, 4096, 65536, 262144, 1024 * 1024)
    oneway = _curve(bandwidth_trial, "mbps", sizes, pattern="oneway",
                    iters=8)
    bidir = _curve(bandwidth_trial, "mbps", sizes[2:], pattern="bidir",
                   iters=8)
    assert max(oneway.values()) == pytest.approx(98.4, rel=0.01)
    assert max(bidir.values()) == pytest.approx(91.0, rel=0.03)
    assert max(bidir.values()) < max(oneway.values())
    assert oneway[256] < oneway[4096] < oneway[65536]

    # Figure 4: the 128-byte knee.
    sync = _curve(overhead_trial, "overhead_us",
                  (4, 64, 128, 192, 256, 4096), mode="sync", iters=6)
    async_ = _curve(overhead_trial, "overhead_us",
                    (4, 64, 128, 256, 4096), mode="async", iters=6)
    for size in (4, 64, 128):       # short sends: identical host path
        assert sync[size] == pytest.approx(async_[size], rel=0.02)
    assert sync[128] < 3 * sync[4]              # grows slowly to 128 B
    assert sync[192] > 1.5 * sync[128]          # the jump past it
    # Async long overhead is slightly LOWER than async short: a
    # fixed-size request vs a PIO data copy.
    assert async_[256] < async_[128]
    # Sync long overhead waits for host DMA; async long does not.
    assert sync[4096] > sync[256]
    assert async_[4096] == pytest.approx(async_[256], rel=0.1)


def test_the_paper_gate_bites(monkeypatch, capsys):
    """One calibrated constant drifts by 1 us: the baseline would drift
    with it on a refresh, the paper gate does not."""
    import repro.vmmc.api as api

    monkeypatch.setattr(api, "LIB_SEND_OVERHEAD_NS",
                        api.LIB_SEND_OVERHEAD_NS + 1_000)
    report = latency_trial({"size": 4, "iters": 10}, 0)
    assert report["gates"] == {"paper_9.8us": False}
    assert main(["latency", "--sizes", "4"]) == 1
    assert "FAIL paper_9.8us" in capsys.readouterr().out


def test_a_1ns_cost_shift_fails_the_diff_naming_the_cell(monkeypatch,
                                                        tmp_path):
    """1 ns on the library's send prologue moves every latency cell by
    far less than its 10 % threshold; the fingerprints still catch it."""
    import repro.vmmc.api as api

    monkeypatch.setattr(api, "LIB_SEND_OVERHEAD_NS",
                        api.LIB_SEND_OVERHEAD_NS + 1)
    spec = get_campaign("latency")
    run_campaign(spec, smoke=True, jobs=1, state_root=tmp_path)
    candidate = artifact_from_reports(
        spec, load_reports(spec, True, tmp_path), smoke=True, git=None)
    result = diff_artifacts(_baseline(spec), candidate)
    assert not result.ok
    assert result.regressions == []
    assert sorted(problem.split(":")[0] for problem in result.problems) == \
        sorted(f"cell {cell['key']!r}" for cell in candidate["cells"])


def test_an_events_only_change_fails_the_diff(monkeypatch):
    """One extra zero-delay event per send moves no simulated time and no
    metric, only the event count: the fingerprint still fails."""
    from repro.vmmc.api import VMMCEndpoint

    real_send = VMMCEndpoint.send

    def send_with_a_spare_event(self, *args, **kwargs):
        self.env.timeout(0)
        return real_send(self, *args, **kwargs)

    monkeypatch.setattr(VMMCEndpoint, "send", send_with_a_spare_event)
    spec = get_campaign("fabric")
    params = EXTENSION_CELLS["fabric"]
    baseline, cell = _baseline(spec), _run_cell(spec, params)
    base_cell = _baseline_cell(spec, params)
    result = diff_artifacts({**baseline, "cells": [base_cell]},
                            {**baseline, "cells": [cell]})
    assert cell["metrics"] == base_cell["metrics"]
    assert {row.status for row in result.rows} == {"ok"}
    assert result.problems == [
        f"cell 'topology=fattree_4': the simulation moved (fingerprint "
        f"{base_cell['fingerprint'][:12]} -> {cell['fingerprint'][:12]}); "
        "diff its trial files seed by seed"]


def test_registry_baselines_and_ci_name_the_same_campaigns():
    specs = all_campaigns()
    for spec in specs:
        baseline = _baseline(spec)
        assert baseline["smoke"] is True, spec.name
        assert baseline["grid"] == spec.resolved_grid(smoke=True), spec.name
        assert baseline["seeds"] == spec.resolved_seeds(smoke=True), spec.name
        assert baseline["fixed"] == dict(spec.fixed), spec.name
        assert (sorted(baseline["metrics"])
                == sorted(m.name for m in spec.metrics)), spec.name
    assert ({path.name for path in ROOT.glob("BENCH_*.json")}
            == {spec.artifact_name for spec in specs})
    assert sorted(_ci_smoke_loop()[0]) == sorted(spec.name for spec in specs)


def _ci_smoke_loop() -> tuple[list[str], str]:
    """The campaign list and loop body of CI's "Benchmark campaigns
    (smoke)" step."""
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    step = ci[ci.index("- name: Benchmark campaigns (smoke)"):]
    step = step[:step.index("\n      - name:")]
    loop = re.search(r"for c in ([a-z0-9 -]+); do\n(.*?)\n\s*done", step,
                     re.S)
    return loop.group(1).split(), loop.group(2)


def test_ci_runs_and_diffs_every_registered_campaign_once():
    """A campaign missing from CI's smoke loop would never meet
    ``campaign diff``: the loop lists each registered campaign once,
    and runs and diffs each."""
    listed, body = _ci_smoke_loop()
    assert len(listed) == len(set(listed))
    assert set(listed) == {spec.name for spec in all_campaigns()}
    assert 'campaign run "$c" --smoke --out-dir fresh' in body
    assert 'campaign diff "$c" --candidate-dir fresh' in body
