"""Tests for the experiment-campaign layer (`repro.campaign`).

Covers the ISSUE-7 checklist: spec parsing/validation errors, grid x
seed expansion, resume-after-kill picking up exactly the unfinished
cells (byte-identical aggregate artifact), aggregation math against
hand-computed fixtures, and the `campaign diff` pass/fail thresholds —
plus the CLI surface CI drives.
"""

import copy
import json
import math

import pytest

from repro.campaign import (
    CampaignSpec,
    IncompleteRunError,
    Metric,
    SpecError,
    aggregate_cell,
    aggregate_values,
    build_artifact,
    cell_key,
    diff_artifacts,
    get_campaign,
    register,
    run_campaign,
    run_trial,
    state_dir_for,
    unregister,
    write_artifact,
)
from repro.cli import main
from repro.sim.fingerprint import value_fingerprint

GIT = {"commit": "test", "branch": "main", "dirty": False}


def _trial(params, seed):
    return {"metrics": {"value": params["x"] * 10 + seed},
            "gates": {"ok": True}}


def _spec(**overrides):
    kwargs = dict(
        name="tiny", area="TINY", title="tiny test campaign",
        paper_ref="none", trial=_trial,
        grid={"x": (1, 2), "y": ("a", "b")},
        seeds=(0, 1, 2),
        metrics=(Metric("value", "units", "higher", 10.0),),
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


@pytest.fixture
def tiny():
    spec = register(_spec())
    yield spec
    unregister("tiny")


# ------------------------------------------------------------ spec validation
def test_spec_rejects_bad_name_and_area():
    with pytest.raises(SpecError, match="kebab-case"):
        _spec(name="Bad Name")
    with pytest.raises(SpecError, match="UPPER_SNAKE"):
        _spec(area="lower")


def test_spec_rejects_empty_grid_values_and_duplicates():
    with pytest.raises(SpecError, match="has no values"):
        _spec(grid={"x": ()})
    with pytest.raises(SpecError, match="duplicate values"):
        _spec(grid={"x": (1, 1)})


def test_spec_rejects_bad_seeds():
    with pytest.raises(SpecError, match="empty"):
        _spec(seeds=())
    with pytest.raises(SpecError, match="duplicate"):
        _spec(seeds=(1, 1))
    with pytest.raises(SpecError, match="ints"):
        _spec(seeds=(0, "x"))


def test_spec_rejects_metric_problems():
    with pytest.raises(SpecError, match="no metrics"):
        _spec(metrics=())
    with pytest.raises(SpecError, match="duplicate metric"):
        _spec(metrics=(Metric("v", "u"), Metric("v", "u")))
    with pytest.raises(SpecError, match="direction"):
        Metric("v", "u", "sideways")
    with pytest.raises(SpecError, match="positive"):
        Metric("v", "u", "higher", -5.0)


def test_spec_rejects_smoke_and_fixed_conflicts():
    with pytest.raises(SpecError, match="not in the full grid"):
        _spec(smoke_grid={"z": (1,)})
    with pytest.raises(SpecError, match="both grid and fixed"):
        _spec(fixed={"x": 9})


def test_unknown_campaign_is_a_spec_error():
    with pytest.raises(SpecError, match="unknown campaign"):
        get_campaign("does-not-exist")


def test_register_rejects_name_and_area_collisions(tiny):
    with pytest.raises(SpecError, match="already registered"):
        register(_spec())
    with pytest.raises(SpecError, match="artifacts would collide"):
        register(_spec(name="tiny2"))


# ------------------------------------------------------- grid/seed expansion
def test_cells_are_sorted_params_row_major(tiny):
    assert tiny.cells(smoke=False) == [
        {"x": 1, "y": "a"}, {"x": 1, "y": "b"},
        {"x": 2, "y": "a"}, {"x": 2, "y": "b"},
    ]


def test_trials_cross_cells_with_seeds(tiny):
    trials = tiny.trials(smoke=False)
    assert len(trials) == 4 * 3
    assert trials[0] == (0, {"x": 1, "y": "a"}, 0)
    assert trials[2] == (0, {"x": 1, "y": "a"}, 2)
    assert trials[3] == (1, {"x": 1, "y": "b"}, 0)
    # Every (cell, seed) pair exactly once.
    assert len({(i, s) for i, _, s in trials}) == 12


def test_smoke_shape_overrides_grid_and_seeds():
    spec = _spec(smoke_grid={"x": (1,)}, smoke_seeds=(0,))
    assert spec.cells(smoke=True) == [{"x": 1, "y": "a"},
                                      {"x": 1, "y": "b"}]
    assert spec.resolved_seeds(smoke=True) == [0]
    # Full shape untouched.
    assert len(spec.trials(smoke=False)) == 12


def test_fixed_params_are_merged_into_trial_params():
    spec = _spec(grid={"x": (1,)}, fixed={"k": 7})
    assert spec.trial_params({"x": 1}) == {"k": 7, "x": 1}


def test_cell_key_is_canonical_and_safe():
    assert cell_key({"b": 2, "a": 1}) == "a=1,b=2"
    assert cell_key({}) == "cell"
    assert "/" not in cell_key({"p": "a/b c"})


# ------------------------------------------------------------ aggregation math
def test_aggregate_values_hand_computed_even_n():
    # values 1,2,3,4: mean 2.5, median 2.5, sample stdev sqrt(5/3),
    # ci95 = 1.96 * sqrt(5/3) / sqrt(4) = 1.2651746...
    agg = aggregate_values([1, 2, 3, 4])
    assert agg["n"] == 4
    assert agg["min"] == 1.0 and agg["max"] == 4.0
    assert agg["mean"] == 2.5 and agg["median"] == 2.5
    assert agg["ci95"] == round(1.96 * math.sqrt(5 / 3) / 2, 6)
    assert agg["ci95"] == pytest.approx(1.265175, abs=1e-6)


def test_aggregate_values_odd_n_and_singleton():
    agg = aggregate_values([3, 1, 2])
    assert agg["median"] == 2.0 and agg["mean"] == 2.0
    single = aggregate_values([42])
    assert single["ci95"] == 0.0
    assert single["min"] == single["max"] == single["median"] == 42.0
    with pytest.raises(ValueError):
        aggregate_values([])


def test_aggregate_cell_folds_metrics_and_gates():
    reports = [
        {"seed": 0, "metrics": {"v": 10.0}, "gates": {"g": True},
         "fingerprint": "a"},
        {"seed": 1, "metrics": {"v": 20.0}, "gates": {"g": False,
                                                      "h": False},
         "fingerprint": "b"},
    ]
    cell = aggregate_cell(reports)
    assert cell["seeds"] == [0, 1]
    assert cell["metrics"]["v"]["median"] == 15.0
    assert cell["gates_failed"] == ["g", "h"]
    # The per-seed digests, folded in seed order.
    assert cell["fingerprint"] == value_fingerprint(["a", "b"])
    assert cell["fingerprint"] != aggregate_cell(
        [reports[0], {**reports[1], "fingerprint": "c"}])["fingerprint"]
    with pytest.raises(ValueError, match="disagree"):
        aggregate_cell([{"seed": 0, "metrics": {"v": 1}},
                        {"seed": 1, "metrics": {"w": 1}}])


def test_trial_fingerprint_covers_metrics_gates_and_evidence(tmp_path):
    """A trial file holds the trial's evidence next to the digest of its
    exact metrics, gates and evidence; a cell without evidence still
    fingerprints its metrics and gates."""
    events = {"n": 7}
    spec = register(_spec(
        name="evidenced", area="EVIDENCED", grid={"x": (1,)}, seeds=(0,),
        trial=lambda p, s: {"metrics": {"value": 1.0}, "gates": {"ok": True},
                            "evidence": dict(events)}))
    try:
        first = run_trial(spec, 0, {"x": 1}, 0)
        assert first["evidence"] == {"n": 7}
        assert first["fingerprint"] == value_fingerprint(
            [{"value": 1.0}, {"ok": True}, {"n": 7}])
        events["n"] = 8                 # same metrics, moved evidence
        assert run_trial(spec, 0, {"x": 1}, 0)["fingerprint"] \
            != first["fingerprint"]
        run_campaign(spec, jobs=1, state_root=tmp_path)
        [trial_file] = (state_dir_for(spec, False, tmp_path)
                        / "trials").glob("*.json")
        assert json.loads(trial_file.read_text())["evidence"] == {"n": 8}
    finally:
        unregister("evidenced")
    bare = run_trial(_spec(), 0, {"x": 1, "y": "a"}, 2)
    assert bare["evidence"] == {}
    assert bare["fingerprint"] == value_fingerprint(
        [{"value": 12}, {"ok": True}, {}])


# ----------------------------------------------------------------- the runner
def _counting_spec(tmp_path, name="counting"):
    counter = tmp_path / "calls.log"

    def trial(params, seed):
        with open(counter, "a", encoding="utf-8") as fh:
            fh.write(f"{cell_key(params)},s{seed}\n")
        return {"metrics": {"value": params["x"] * 10 + seed}}

    spec = register(_spec(name=name, area=name.upper().replace("-", "_"),
                          trial=trial,
                          metrics=(Metric("value", "u", "higher", 10.0),)))
    return spec, counter


def test_run_executes_full_grid_and_aggregates(tmp_path):
    spec, counter = _counting_spec(tmp_path)
    try:
        summary = run_campaign(spec, jobs=1, state_root=tmp_path / "s")
        assert summary["complete"]
        assert summary["trials_executed"] == 12
        assert len(counter.read_text().splitlines()) == 12
        artifact = build_artifact(spec, state_root=tmp_path / "s", git=GIT)
        assert artifact["schema_version"] == 2
        assert artifact["artifact"] == "BENCH_COUNTING.json"
        assert len(artifact["cells"]) == 4
        # x=2 cells: values 20,21,22 across seeds -> median 21.
        x2a = artifact["cells"][2]
        assert x2a["params"] == {"x": 2, "y": "a"}
        assert x2a["metrics"]["value"]["median"] == 21.0
        assert artifact["cells_with_failed_gates"] == 0
    finally:
        unregister(spec.name)


def test_resume_after_kill_runs_only_unfinished_trials(tmp_path):
    """A run stopped mid-grid (``max_trials`` models the kill) is
    completed by ``resume`` without recomputing finished cells, and the
    aggregate artifact is byte-identical to an uninterrupted run."""
    spec, counter = _counting_spec(tmp_path)
    try:
        # Uninterrupted reference run.
        run_campaign(spec, jobs=1, state_root=tmp_path / "ref")
        reference = build_artifact(spec, state_root=tmp_path / "ref",
                                   git=GIT)

        # Killed run: only 5 of 12 trials finish.
        summary = run_campaign(spec, jobs=1, state_root=tmp_path / "s",
                               max_trials=5)
        assert not summary["complete"]
        assert summary["trials_executed"] == 5
        with pytest.raises(IncompleteRunError, match="7 trial"):
            build_artifact(spec, state_root=tmp_path / "s", git=GIT)

        counter.write_text("")          # count only the resume's work
        resumed = run_campaign(spec, jobs=1, state_root=tmp_path / "s",
                               resume=True)
        assert resumed["complete"]
        assert resumed["trials_skipped"] == 5
        assert resumed["trials_executed"] == 7
        assert len(counter.read_text().splitlines()) == 7   # no recompute

        artifact = build_artifact(spec, state_root=tmp_path / "s", git=GIT)
        as_bytes = lambda a: json.dumps(a, indent=2, sort_keys=True)  # noqa: E731
        assert as_bytes(artifact) == as_bytes(reference)
    finally:
        unregister(spec.name)


def test_resume_refuses_a_changed_shape(tmp_path):
    spec, _ = _counting_spec(tmp_path)
    try:
        run_campaign(spec, jobs=1, state_root=tmp_path / "s",
                     max_trials=2)
    finally:
        unregister(spec.name)
    changed = register(_spec(name="counting", area="COUNTING",
                             seeds=(0, 1)))
    try:
        with pytest.raises(SpecError, match="different shape"):
            run_campaign(changed, jobs=1, state_root=tmp_path / "s",
                         resume=True)
    finally:
        unregister("counting")


def test_run_rejects_undeclared_trial_metrics(tmp_path):
    spec = register(_spec(name="broken", area="BROKEN",
                          trial=lambda p, s: {"metrics": {"wrong": 1}}))
    try:
        with pytest.raises(SpecError, match="declared"):
            run_campaign(spec, jobs=1, state_root=tmp_path / "s")
    finally:
        unregister("broken")


def test_pool_run_matches_inline_run(tmp_path):
    """The multiprocess path produces the same artifact as inline (the
    builtin ``dma`` campaign is pure arithmetic — cheap)."""
    spec = get_campaign("dma")
    run_campaign(spec, jobs=1, state_root=tmp_path / "inline")
    run_campaign(spec, jobs=3, state_root=tmp_path / "pool")
    inline = build_artifact(spec, state_root=tmp_path / "inline", git=GIT)
    pooled = build_artifact(spec, state_root=tmp_path / "pool", git=GIT)
    assert inline == pooled
    assert ([cell["fingerprint"] for cell in inline["cells"]]
            == [cell["fingerprint"] for cell in pooled["cells"]])


def test_failed_gates_surface_in_artifact(tmp_path):
    spec = register(_spec(
        name="gated", area="GATED",
        grid={"x": (1,)}, seeds=(0, 1),
        trial=lambda p, s: {"metrics": {"value": 1.0},
                            "gates": {"always": s == 0}}))
    try:
        run_campaign(spec, jobs=1, state_root=tmp_path / "s")
        artifact = build_artifact(spec, state_root=tmp_path / "s", git=GIT)
        assert artifact["cells_with_failed_gates"] == 1
        assert artifact["cells"][0]["gates_failed"] == ["always"]
    finally:
        unregister("gated")


# -------------------------------------------------------------- the diff gate
def _artifact(medians, *, direction="higher", threshold=10.0,
              gates_failed=(), schema=2, seeds=(0,), fingerprint="f0"):
    return {
        "schema_version": schema,
        "campaign": "tiny",
        "cells_with_failed_gates": 1 if gates_failed else 0,
        "metrics": {"value": {"unit": "u", "direction": direction,
                              "regression_pct": threshold}},
        "cells": [
            {"key": key, "params": {}, "seeds": list(seeds),
             "gates_failed": list(gates_failed),
             "fingerprint": fingerprint,
             "metrics": {"value": {"n": 1, "min": m, "max": m,
                                   "mean": m, "median": m, "ci95": 0.0}}}
            for key, m in medians.items()
        ],
    }


def test_diff_identical_passes():
    base = _artifact({"a": 100.0})
    result = diff_artifacts(base, copy.deepcopy(base))
    assert result.ok
    assert result.rows[0].status == "ok"
    assert result.rows[0].delta_pct == 0.0


def test_diff_flags_regression_beyond_threshold_higher_is_better():
    result = diff_artifacts(_artifact({"a": 100.0}),
                            _artifact({"a": 89.0}))
    assert not result.ok
    assert result.regressions[0].delta_pct == -11.0
    # Within threshold: 10% down exactly is not a regression.
    assert diff_artifacts(_artifact({"a": 100.0}),
                          _artifact({"a": 90.0})).ok


def test_diff_lower_is_better_direction():
    base = _artifact({"a": 10.0}, direction="lower")
    worse = _artifact({"a": 11.5}, direction="lower")
    better = _artifact({"a": 8.0}, direction="lower")
    assert not diff_artifacts(base, worse).ok
    improved = diff_artifacts(base, better)
    assert improved.ok
    assert improved.rows[0].status == "improved"


def test_diff_max_regression_override():
    base, cand = _artifact({"a": 100.0}), _artifact({"a": 95.0})
    assert diff_artifacts(base, cand).ok                       # 10% default
    assert not diff_artifacts(base, cand, max_regression_pct=2.0).ok


def test_diff_missing_cell_and_new_cell():
    base = _artifact({"a": 100.0, "b": 50.0})
    cand = _artifact({"a": 100.0, "c": 1.0})
    result = diff_artifacts(base, cand)
    assert not result.ok
    assert any("missing from the candidate" in p for p in result.problems)
    assert result.new_cells == ["c"]


def test_diff_fails_on_candidate_gate_failures():
    result = diff_artifacts(_artifact({"a": 1.0}),
                            _artifact({"a": 1.0}, gates_failed=["sc"]))
    assert not result.ok
    assert any("failed trial gates" in p for p in result.problems)


def test_diff_schema_and_campaign_mismatch():
    base = _artifact({"a": 1.0})
    assert not diff_artifacts(base, _artifact({"a": 1.0}, schema=1)).ok
    other = _artifact({"a": 1.0})
    other["campaign"] = "other"
    assert not diff_artifacts(base, other).ok


def test_diff_fails_on_a_moved_fingerprint_naming_the_cell():
    """Equal medians, moved simulation: the fingerprint catches what the
    thresholds cannot."""
    base = _artifact({"a": 100.0, "b": 5.0})
    moved = _artifact({"a": 100.0, "b": 5.0})
    moved["cells"][1]["fingerprint"] = "f1"
    result = diff_artifacts(base, moved)
    assert not result.ok
    assert result.regressions == []
    assert [p for p in result.problems if "fingerprint" in p] == [
        "cell 'b': the simulation moved (fingerprint f0 -> f1); diff its "
        "trial files seed by seed"]


def test_diff_does_not_compare_fingerprints_across_seed_lists(
        tmp_path, capsys, tiny):
    """A full-shape candidate against a smoke baseline ran other seeds:
    its fingerprint cannot match, so it is not compared, and the output
    says so instead of reporting a move."""
    smoke = _artifact({"a": 100.0}, seeds=(0, 1), fingerprint="smoke")
    full = _artifact({"a": 101.0}, seeds=(0, 1, 2), fingerprint="full")
    result = diff_artifacts(smoke, full)
    assert result.ok
    assert result.notes == [
        "cell 'a': seeds [0, 1] vs [0, 1, 2], fingerprint not compared"]
    write_artifact(smoke, tmp_path / "smoke.json")
    write_artifact(full, tmp_path / "full.json")
    assert main(["campaign", "diff", "tiny",
                 "--baseline", str(tmp_path / "smoke.json"),
                 "--candidate", str(tmp_path / "full.json")]) == 0
    out = capsys.readouterr().out
    assert ("note: cell 'a': seeds [0, 1] vs [0, 1, 2], fingerprint not "
            "compared") in out
    assert "PROBLEM" not in out and "gate: PASS" in out


def test_diff_zero_baseline_is_noted_not_gated():
    result = diff_artifacts(_artifact({"a": 0.0}), _artifact({"a": 5.0}))
    assert result.ok
    assert result.rows[0].status == "zero-baseline"
    assert result.rows[0].delta_pct is None


# ------------------------------------------------------------------- the CLI
def test_cli_campaign_list(capsys):
    assert main(["campaign", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("latency", "bandwidth", "chaos", "dsm"):
        assert name in out
    assert "BENCH_DSM.json" in out


def test_cli_campaign_run_and_diff_roundtrip(tmp_path, capsys):
    out = tmp_path / "BENCH_DMA.json"
    assert main(["campaign", "run", "dma",
                 "--state-root", str(tmp_path / "s"),
                 "--jobs", "1", "--out", str(out)]) == 0
    assert out.exists()
    # A fresh artifact diffs clean against itself as baseline.
    assert main(["campaign", "diff", "dma",
                 "--baseline", str(out), "--candidate", str(out)]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_campaign_diff_detects_regression(tmp_path, capsys):
    from repro.campaign import load_artifact

    out = tmp_path / "BENCH_DMA.json"
    main(["campaign", "run", "dma", "--state-root", str(tmp_path / "s"),
          "--jobs", "1", "--out", str(out)])
    doctored = load_artifact(out)
    for cell in doctored["cells"]:
        for agg in cell["metrics"].values():
            agg["median"] *= 1.5          # baseline much faster than now
    base = tmp_path / "baseline.json"
    write_artifact(doctored, base)
    capsys.readouterr()
    assert main(["campaign", "diff", "dma", "--baseline", str(base),
                 "--candidate", str(out)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_campaign_report_reaggregates_without_running(tmp_path, capsys):
    main(["campaign", "run", "dma", "--state-root", str(tmp_path / "s"),
          "--jobs", "1", "--out", str(tmp_path / "a.json")])
    capsys.readouterr()
    assert main(["campaign", "report", "dma",
                 "--state-root", str(tmp_path / "s"),
                 "--out", str(tmp_path / "b.json")]) == 0
    assert ((tmp_path / "a.json").read_text()
            == (tmp_path / "b.json").read_text())


def test_cli_campaign_out_requires_single_name(tmp_path, capsys):
    assert main(["campaign", "run", "dma", "latency",
                 "--out", str(tmp_path / "x.json")]) == 1
    assert "--out-dir" in capsys.readouterr().out
    # Same for diff's one-file flags: the second campaign would be
    # compared with the first one's file.
    for flag in ("--baseline", "--candidate"):
        assert main(["campaign", "diff", "dma", "latency",
                     flag, "BENCH_DMA.json"]) == 1
        assert f"{flag} names one file" in capsys.readouterr().out


def test_state_dir_separates_smoke_from_full(tmp_path, tiny):
    assert state_dir_for(tiny, False, tmp_path).name == "tiny"
    assert state_dir_for(tiny, True, tmp_path).name == "tiny-smoke"
