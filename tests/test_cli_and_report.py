"""Tests for the CLI and the report-rendering helpers."""

import pytest

from repro.bench.report import format_table
from repro.cli import ALIASES, build_parser, main


# ------------------------------------------------------------------- report
def test_format_table_alignment_and_floats():
    text = format_table("T", ["a", "bbb"], [[1, 2.345], ["xy", 7]])
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "2.35" in text          # floats rendered to 2 decimals
    assert "a" in lines[2] and "bbb" in lines[2]
    # All data rows share the header's width.
    widths = {len(line) for line in lines[2:]}
    assert len(widths) == 1


# ----------------------------------------------------------------------- CLI
def test_parser_knows_all_commands():
    parser = build_parser()
    for command in ("latency", "bandwidth", "overhead", "dma", "shootout",
                    "vrpc", "sram", "metrics", "trace", "breakdown"):
        args = parser.parse_args([command])
        assert callable(args.func)


def test_cli_dma_prints_curve(capsys):
    assert main(["dma", "--sizes", "4096,65536"]) == 0
    out = capsys.readouterr().out
    assert "campaign dma" in out
    assert "99.9" in out or "100" in out
    assert "127.986" in out            # BENCH_DMA.json, size=65536


def test_cli_latency_runs_simulation(capsys):
    assert main(["latency", "--sizes", "4", "--iters", "4"]) == 0
    out = capsys.readouterr().out
    assert "9.8" in out


def test_cli_sram_accounting(capsys):
    assert main(["sram", "--processes", "1"]) == 0
    out = capsys.readouterr().out
    assert "incoming_page_table" in out
    assert "tlb.pid" in out
    assert "TOTAL" in out


def test_cli_overhead(capsys):
    assert main(["overhead", "--sizes", "4,256", "--iters", "3"]) == 0
    out = capsys.readouterr().out
    assert "sync" in out and "async" in out


# ----------------------------------------------------------- campaign aliases
def _baseline_median(area, cell, metric):
    import json
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    artifact = json.loads((root / f"BENCH_{area}.json").read_text())
    (entry,) = [c for c in artifact["cells"] if c["key"] == cell]
    return entry["metrics"][metric]["median"]


@pytest.mark.parametrize("argv, area, cell, metric", [
    (["latency", "--sizes", "4"], "LATENCY", "size=4", "one_way_us"),
    (["bandwidth"], "BANDWIDTH", "pattern=oneway,size=65536", "mbps"),
    (["overhead", "--sizes", "4"], "OVERHEAD", "mode=sync,size=4",
     "overhead_us"),
    (["dma", "--sizes", "4096"], "DMA", "size=4096", "mbps"),
    (["vrpc"], "VRPC", "iters=10", "null_rtt_us"),
    (["shootout"], "RELATED_WORK", "cell", "pm_lat_us"),
    (["dsm-bench", "--scenario", "clean", "--seed", "0"], None, None, None),
    (["kv-bench", "--scenario", "clean", "--skew", "0.0", "--load",
      "steady"], "KV",
     "load=steady,requests=400,scenario=clean,shards=2,skew=0.0", "p50_us"),
    (["chaos", "--scenario", "error-burst", "--seed", "0"], None, None,
     None),
    (["chaos", "--scenario", "daemon-cold-crash", "--seed", "0"], None, None,
     None),
    (["chaos", "--scenario", "multi-campaign", "--seed", "0"], None, None,
     None),
], ids=["latency", "bandwidth", "overhead", "dma", "vrpc", "shootout",
        "dsm-bench", "kv-bench", "chaos-error-burst",
        "chaos-daemon-cold-crash", "chaos-multi-campaign"])
def test_alias_prints_the_committed_number_and_writes_nothing(
        argv, area, cell, metric, tmp_path, monkeypatch, capsys):
    """Every legacy experiment command is its campaign's trial: exit 0,
    the matching cell of the committed baseline to the digit, and no
    state dir / artifact / report left behind.  (dsm and chaos baselines
    are medians over 4 seeds, so a one-seed alias run has no cell to
    match; their numbers are pinned by the campaign tests.)"""
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert f"campaign {ALIASES.get(argv[0], argv[:1])[0]}:" in out
    if area is not None:
        assert f"{_baseline_median(area, cell, metric):g}" in out
    assert list(tmp_path.iterdir()) == []


def test_alias_flags_reshape_grid_fixed_and_seeds(capsys):
    assert main(["overhead", "--sizes", "4,64", "--iters", "2"]) == 0
    out = capsys.readouterr().out
    assert "4 cells x 1 seeds" in out          # 2 sizes x {sync, async}
    assert main(["dsm-bench", "--scenario", "clean", "--seeds", "2",
                 "--ops", "4"]) == 0
    assert "1 cells x 2 seeds" in capsys.readouterr().out
    # The spec's own validation runs on the override.
    assert main(["dsm-bench", "--seeds", "0"]) == 1
    assert "seeds list is empty" in capsys.readouterr().out


def test_alias_exits_1_on_a_failed_trial_gate(capsys):
    from repro.campaign import (CampaignSpec, Metric, get_campaign,
                                register)

    real = get_campaign("dma")
    register(CampaignSpec(
        name="dma", area="DMA", title="throw-away", paper_ref="-",
        trial=lambda params, seed: {"metrics": {"mbps": 1.0},
                                    "gates": {"never": False}},
        grid={"size": (64,)}, seeds=(0,),
        metrics=(Metric("mbps", "MB/s"),)), replace=True)
    try:
        assert main(["dma"]) == 1
        assert "FAIL never" in capsys.readouterr().out
    finally:
        register(real, replace=True)


def test_chaos_alias_exits_1_when_a_message_is_lost(monkeypatch, capsys):
    import dataclasses

    from repro.bench import chaos

    real = chaos.run_cold_crash_point

    def lossy(*args, **kwargs):
        point, stats, recovery = real(*args, **kwargs)
        return (dataclasses.replace(
            point, delivered_intact=point.delivered_intact - 1),
            stats, recovery)

    monkeypatch.setattr(chaos, "run_cold_crash_point", lossy)
    assert main(["chaos", "--scenario", "daemon-cold-crash",
                 "--seed", "0"]) == 1
    assert "FAIL exactly_once" in capsys.readouterr().out


# --------------------------------------------------------- observability CLI
def test_cli_metrics_json_is_machine_readable(capsys):
    import json

    assert main(["metrics", "--json"]) == 0
    snap = json.loads(capsys.readouterr().out)
    assert any(key.startswith("link.bytes") for key in snap)
    assert any(key.startswith("rel.retransmits") for key in snap)


def test_cli_metrics_table(capsys):
    assert main(["metrics"]) == 0
    out = capsys.readouterr().out
    assert "Metrics of the instrumented contract workload" in out
    assert "lcp.sends" in out


def test_cli_trace_writes_perfetto_and_checks_docs(tmp_path, capsys):
    import json

    out_file = tmp_path / "trace.json"
    assert main(["trace", "--perfetto", str(out_file), "--check-docs"]) == 0
    out = capsys.readouterr().out
    assert "trace events" in out
    assert "all emitted trace categories are documented" in out
    document = json.loads(out_file.read_text())
    assert document["traceEvents"]
    assert document["otherData"]["dropped"] == 0


def test_cli_breakdown_json(capsys):
    import json

    assert main(["breakdown", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["sum_ns"] == data["total_ns"]
    assert data["total_us"] == pytest.approx(9.8, abs=0.3)
