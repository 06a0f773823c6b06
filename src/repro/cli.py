"""Command-line interface: ``python -m repro <command>``.

Gives downstream users the paper's measurements without touching pytest:

===========  ===========================================================
command      what it runs
===========  ===========================================================
campaign     experiment campaigns — ``list|run|resume|report|diff``:
             declarative grid x seed sweeps fanned out over a process
             pool, aggregated (min/median/mean/CI) into schema-versioned
             ``BENCH_<AREA>.json`` artifacts at the repo root, with
             ``diff`` as the CI regression gate against the committed
             baselines (handbook: docs/BENCHMARKS.md)
latency      alias: the ``latency`` campaign (Figure 2)
bandwidth    alias: the ``bandwidth`` campaign (Figure 3)
overhead     alias: the ``overhead`` campaign (Figure 4)
dma          alias: the ``dma`` campaign (Figure 1)
vrpc         alias: the ``vrpc`` campaign (section 5.4)
dsm-bench    alias: the ``dsm`` campaign (DSM coherence under chaos)
kv-bench     alias: the ``kv`` campaign (sharded KV serving tier)
breakdown    section 5.2 — per-stage latency of one short send
             (``--json`` for the machine-readable form)
shootout     alias: the ``related-work`` campaign (section 7 — every
             protocol on identical hardware)
sram         NIC SRAM accounting of a booted node
chaos        alias: the ``chaos`` campaign (reliable sender under
             error bursts, daemon cold crashes and composed faults;
             exactly-once + protocol-invariant gates)
topology     generated fabrics: stats table + deadlock proof
metrics      observability — metrics snapshot of the instrumented
             contract workload (``--json`` for machine consumption)
trace        observability — Perfetto / Chrome trace-event export of the
             contract workload (``--check-docs`` diffs emitted trace
             categories against docs/TRACING.md)
===========  ===========================================================

Every experiment is defined once, as a campaign trial.  An alias
(``ALIASES``) runs its campaign's smoke shape in memory — no state dir,
no artifact — prints the per-cell table ``campaign run`` prints and
exits 1 on a failed trial gate; its flags replace a grid axis, a fixed
parameter or the seed list (``latency --sizes 4,16 --iters 5``,
``kv-bench --shards 4 --seeds 2``).
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.report import format_table
from repro.cluster import Cluster, TestbedConfig


def _sizes(text: str) -> list[int]:
    return [int(s) for s in text.split(",") if s]


_SWEEP = {"--sizes": ("size", _sizes), "--iters": ("iters", int)}
_SEEDS = {"--seeds": ("seeds", int), "--seed": ("seed", int)}

#: Legacy experiment commands: name -> (campaign, {flag: (param, type)}).
#: ``param`` is the campaign spec's grid/fixed parameter the flag
#: overrides; ``seeds`` (0..N-1) and ``seed`` (just S) override the seed
#: list instead.
ALIASES = {
    "latency": ("latency", _SWEEP),
    "bandwidth": ("bandwidth", _SWEEP),
    "overhead": ("overhead", _SWEEP),
    "dma": ("dma", {"--sizes": ("size", _sizes)}),
    "vrpc": ("vrpc", {"--iters": ("iters", int)}),
    "shootout": ("related-work", {}),
    "dsm-bench": ("dsm", {"--nodes": ("nnodes", int),
                          "--pages": ("npages", int),
                          "--page-bytes": ("page_bytes", int),
                          "--ops": ("ops_per_node", int),
                          "--scenario": ("scenario", str), **_SEEDS}),
    "kv-bench": ("kv", {"--shards": ("shards", int),
                        "--requests": ("requests", int),
                        "--skew": ("skew", float),
                        "--load": ("load", str),
                        "--scenario": ("scenario", str), **_SEEDS}),
    "chaos": ("chaos", {"--scenario": ("scenario", str),
                        "--messages": ("messages", int),
                        "--size": ("size", int), **_SEEDS}),
}


def _run_alias(campaign: str, overrides: dict) -> int:
    """Run ``campaign``'s smoke shape in memory with ``overrides``
    ({param: value}, ``None`` = not given) applied: a param on the grid
    has its axis replaced, any other becomes a fixed param, ``seeds`` /
    ``seed`` replace the seed list.  Same trials, aggregation and table
    as ``campaign run``; nothing is written."""
    import dataclasses

    from repro.campaign import (SpecError, artifact_from_reports,
                                get_campaign, run_trial)

    spec = get_campaign(campaign)
    grid = spec.resolved_grid(smoke=True)
    fixed = dict(spec.fixed)
    seeds = spec.resolved_seeds(smoke=True)
    for param, value in overrides.items():
        if value is None:
            continue
        if param == "seeds":
            seeds = list(range(value))
        elif param == "seed":
            seeds = [value]
        elif param in grid:
            grid[param] = value if isinstance(value, list) else [value]
        else:
            fixed[param] = value
    try:
        spec = dataclasses.replace(spec, grid=grid, fixed=fixed, seeds=seeds,
                                   smoke_grid=None, smoke_seeds=None)
    except SpecError as exc:
        print(f"ERROR: {exc}")
        return 1
    grouped = [[run_trial(spec, index, params, seed) for seed in seeds]
               for index, params in enumerate(spec.cells(smoke=False))]
    artifact = artifact_from_reports(spec, grouped, smoke=False, git=None)
    print(_campaign_cell_table(spec, artifact))
    return 1 if artifact["cells_with_failed_gates"] else 0


def cmd_alias(args) -> int:
    campaign, flags = ALIASES[args.command]
    return _run_alias(campaign, {param: getattr(args, param)
                                 for param, _ in flags.values()})


def cmd_breakdown(args) -> int:
    from repro.obs.breakdown import measure_stage_breakdown

    report = measure_stage_breakdown(args.size)
    if args.json:
        print(report.to_json())
    else:
        print(format_table(
            f"Latency breakdown of a {args.size}-byte send (section 5.2)",
            ["stage", "us"],
            [[name, f"{us:.2f}"] for name, us in report.rows()]))
    return 0


def cmd_sram(args) -> int:
    cluster = Cluster.build(TestbedConfig(nnodes=2, memory_mb=16))
    for i in range(args.processes):
        cluster.nodes[0].attach_process(f"proc{i}")
    usage = cluster.nodes[0].nic.sram_usage()
    rows = [[region, size] for region, size in usage.items()]
    rows.append(["TOTAL", sum(usage.values())])
    print(format_table(
        f"NIC SRAM usage, {args.processes} attached process(es) "
        f"(board: 256 KB)", ["region", "bytes"], rows))
    return 0


# -- campaign orchestration (docs/BENCHMARKS.md) ---------------------------
def _campaign_artifact_path(spec, args) -> str:
    """Where a campaign's artifact goes: --out beats --out-dir beats the
    repo-root default ``BENCH_<AREA>.json``."""
    if getattr(args, "out", None):
        return args.out
    if getattr(args, "out_dir", None):
        import pathlib

        return str(pathlib.Path(args.out_dir) / spec.artifact_name)
    return spec.artifact_name


def _campaign_cell_table(spec, artifact) -> str:
    """Per-cell medians (±95 % CI where seeds > 1) as a text table: one
    row per cell, or — for a one-table campaign (empty grid) — one row
    per table entry."""
    def median(cell, name) -> str:
        agg = cell["metrics"][name]
        value = f"{agg['median']:g}"
        if agg["n"] > 1 and agg["ci95"]:
            value += f" ±{agg['ci95']:g}"
        return value

    def gates(cell) -> str:
        return ("FAIL " + ",".join(cell["gates_failed"])
                if cell["gates_failed"] else "ok")

    headers = [f"{m.name} ({m.unit})" for m in spec.metrics]
    shape = (f"{len(artifact['cells'])} cells x "
             f"{len(artifact['seeds'])} seeds"
             + (" [smoke]" if artifact["smoke"] else ""))
    title = f"campaign {spec.name}: {spec.title} ({shape})"
    if not artifact["grid"]:
        (cell,) = artifact["cells"]
        rows = [[header, median(cell, m.name)]
                for header, m in zip(headers, spec.metrics)]
        return format_table(title, ["entry", "median"],
                            rows + [["gates", gates(cell)]])
    rows = [[cell["key"]] + [median(cell, m.name) for m in spec.metrics]
            + [gates(cell)] for cell in artifact["cells"]]
    return format_table(title, ["cell"] + headers + ["gates"], rows)


def _reject_single_out(args) -> bool:
    """--out / --baseline / --candidate each name one campaign's file."""
    if len(args.name) > 1:
        for flag in ("out", "baseline", "candidate"):
            if getattr(args, flag, None):
                print(f"ERROR: --{flag} names one file; use the "
                      "directory form (--out-dir / --candidate-dir) or "
                      "one campaign at a time")
                return True
    return False


def _run_campaigns(args, resume: bool) -> int:
    from repro.campaign import (IncompleteRunError, build_artifact,
                                get_campaign, run_campaign, write_artifact)

    if _reject_single_out(args):
        return 1
    failures = 0
    for name in args.name:
        spec = get_campaign(name)
        summary = run_campaign(
            spec, smoke=args.smoke, jobs=args.jobs, resume=resume,
            state_root=args.state_root, max_trials=args.max_trials,
            progress=print)
        if not summary["complete"]:
            print(f"campaign {name}: stopped after "
                  f"{summary['trials_executed']} trial(s) (--max-trials); "
                  f"resume with `python -m repro campaign resume {name}"
                  + (" --smoke" if args.smoke else "") + "`")
            failures += 1
            continue
        try:
            artifact = build_artifact(spec, smoke=args.smoke,
                                      state_root=args.state_root)
        except IncompleteRunError as exc:
            print(f"ERROR: {exc}")
            failures += 1
            continue
        print(_campaign_cell_table(spec, artifact))
        path = _campaign_artifact_path(spec, args)
        write_artifact(artifact, path)
        print(f"artifact written to {path}")
        if artifact["cells_with_failed_gates"]:
            print(f"campaign {name}: "
                  f"{artifact['cells_with_failed_gates']} cell(s) with "
                  "FAILED trial gates")
            failures += 1
    return 1 if failures else 0


def cmd_campaign_list(args) -> int:
    from repro.campaign import all_campaigns

    rows = []
    for spec in all_campaigns():
        grid = spec.resolved_grid(smoke=False)
        rows.append([
            spec.name, spec.artifact_name, spec.paper_ref,
            " x ".join(f"{k}[{len(v)}]" for k, v in grid.items()) or "-",
            len(spec.resolved_seeds(smoke=False)),
            len(spec.cells(smoke=True)) * len(spec.resolved_seeds(True)),
            spec.expected_runtime,
        ])
    print(format_table(
        "Registered campaigns (docs/BENCHMARKS.md is the handbook)",
        ["name", "artifact", "reproduces", "grid", "seeds",
         "smoke trials", "full runtime"], rows))
    return 0


def cmd_campaign_run(args) -> int:
    return _run_campaigns(args, resume=False)


def cmd_campaign_resume(args) -> int:
    return _run_campaigns(args, resume=True)


def cmd_campaign_report(args) -> int:
    from repro.campaign import (IncompleteRunError, build_artifact,
                                get_campaign, write_artifact)

    if _reject_single_out(args):
        return 1
    failures = 0
    for name in args.name:
        spec = get_campaign(name)
        try:
            artifact = build_artifact(spec, smoke=args.smoke,
                                      state_root=args.state_root)
        except IncompleteRunError as exc:
            print(f"ERROR: {exc}")
            failures += 1
            continue
        print(_campaign_cell_table(spec, artifact))
        path = _campaign_artifact_path(spec, args)
        write_artifact(artifact, path)
        print(f"artifact written to {path}")
        if artifact["cells_with_failed_gates"]:
            failures += 1
    return 1 if failures else 0


def cmd_campaign_diff(args) -> int:
    import pathlib

    from repro.campaign import (build_artifact, diff_artifacts,
                                get_campaign, load_artifact, run_campaign,
                                write_artifact)

    if _reject_single_out(args):
        return 1
    failures = 0
    for name in args.name:
        spec = get_campaign(name)
        baseline_path = args.baseline or spec.artifact_name
        try:
            baseline = load_artifact(baseline_path)
        except (OSError, ValueError) as exc:
            print(f"ERROR: cannot read baseline {baseline_path}: {exc}")
            failures += 1
            continue
        if args.candidate:
            candidate = load_artifact(args.candidate)
        elif args.candidate_dir:
            candidate = load_artifact(
                pathlib.Path(args.candidate_dir) / spec.artifact_name)
        else:
            # No candidate given: run the campaign fresh, same shape as
            # the baseline artifact records.
            smoke = args.smoke or baseline.get("smoke", False)
            run_campaign(spec, smoke=smoke, jobs=args.jobs, resume=False,
                         state_root=args.state_root, progress=print)
            candidate = build_artifact(spec, smoke=smoke,
                                       state_root=args.state_root)
            if args.out or args.out_dir:
                path = _campaign_artifact_path(spec, args)
                write_artifact(candidate, path)
                print(f"candidate artifact written to {path}")
        result = diff_artifacts(baseline, candidate,
                                max_regression_pct=args.max_regression)
        rows = [[row.cell, row.metric, f"{row.baseline:g}",
                 f"{row.candidate:g}",
                 "-" if row.delta_pct is None else f"{row.delta_pct:+.2f}%",
                 f"{row.threshold_pct:g}%", row.status]
                for row in result.rows]
        print(format_table(
            f"campaign diff {name}: candidate vs baseline "
            f"({baseline_path}), cell medians",
            ["cell", "metric", "baseline", "candidate", "delta",
             "threshold", "status"], rows))
        for problem in result.problems:
            print(f"PROBLEM: {problem}")
        for key in result.new_cells:
            print(f"note: cell {key!r} is new in the candidate "
                  "(not gated)")
        for note in result.notes:
            print(f"note: {note}")
        print(f"campaign {name} regression gate: "
              + ("PASS" if result.ok else "FAIL"))
        if not result.ok:
            failures += 1
    return 1 if failures else 0


def cmd_topology(args) -> int:
    """Describe generated fabrics: stats table + deadlock proof."""
    from repro.sim import Environment
    from repro.hw.myrinet import topology

    if args.list:
        rows = []
        for kind in sorted(topology.SPEC_KINDS):
            cls = topology.SPEC_KINDS[kind]
            rows.append([kind, ", ".join(cls.EXAMPLES)])
        print(format_table("Registered topology kinds "
                           "(repro.hw.myrinet.topology)",
                           ["kind", "example specs"], rows))
        return 0
    rows = []
    for text in args.spec:
        spec = topology.parse(text)
        net = topology.build(spec, Environment())
        stats = topology.fabric_stats(net)
        report = topology.check_deadlock_free(net)
        rows.append([
            text, stats.nhosts, stats.nswitches, stats.ncables,
            stats.diameter_hops, f"{stats.route_hops_mean:.2f}",
            stats.bisection_links,
            f"cycle-free ({report.channels} ch, "
            f"{report.dependencies} deps)"])
        if args.verbose:
            print(f"{text}: {spec.describe()}")
    print(format_table(
        "Generated fabrics (routes proven deadlock-free)",
        ["topology", "hosts", "switches", "cables", "diameter",
         "mean hops", "bisection", "deadlock check"], rows))
    return 0


def cmd_metrics(args) -> int:
    import json

    from repro.obs import run_contract_workload

    _, registry = run_contract_workload()
    if args.json:
        print(json.dumps(registry.snapshot(), indent=2, sort_keys=True))
    else:
        print(format_table(
            "Metrics of the instrumented contract workload "
            "(docs/TRACING.md 'Metrics reference')",
            ["metric", "value"], registry.rows()))
    return 0


def cmd_trace(args) -> int:
    from repro.obs import (
        export_chrome_trace,
        run_contract_workload,
        undocumented,
    )

    tracer, _ = run_contract_workload()
    document = export_chrome_trace(tracer, path=args.perfetto)
    where = args.perfetto if args.perfetto else "(not written; no --perfetto)"
    print(f"{len(document['traceEvents'])} trace events from "
          f"{document['otherData']['records']} records "
          f"({document['otherData']['dropped']} dropped) -> {where}")
    if args.check_docs:
        stray = undocumented(r.category for r in tracer.records)
        if stray:
            print("undocumented trace categories (document them in "
                  "docs/TRACING.md):", file=sys.stderr)
            for category in stray:
                print(f"  {category}", file=sys.stderr)
            return 1
        print("all emitted trace categories are documented in "
              "docs/TRACING.md")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="VMMC-on-Myrinet reproduction: run the paper's "
                    "measurements from the command line.")
    sub = parser.add_subparsers(dest="command", required=True)

    from repro.campaign import get_campaign

    for alias, (campaign, flags) in ALIASES.items():
        spec = get_campaign(campaign)
        ap = sub.add_parser(
            alias, help=f"{spec.title} — the `{campaign}` campaign's "
                        "smoke shape, in memory")
        for flag, (param, kind) in flags.items():
            ap.add_argument(
                flag, dest=param, type=kind, default=None,
                choices=spec.grid[param] if kind is str else None,
                help=f"override {param!r} (default: the smoke shape)")
        ap.set_defaults(func=cmd_alias)

    brk = sub.add_parser("breakdown",
                         help="section 5.2 per-stage latency accounting")
    brk.add_argument("--size", type=int, default=4)
    brk.add_argument("--json", action="store_true",
                     help="machine-readable stage breakdown")
    brk.set_defaults(func=cmd_breakdown)

    sram = sub.add_parser("sram", help="NIC SRAM accounting")
    sram.add_argument("--processes", type=int, default=2)
    sram.set_defaults(func=cmd_sram)

    camp = sub.add_parser(
        "campaign",
        help="experiment campaigns: grid x seeds -> BENCH_<AREA>.json "
             "artifacts + CI regression gate (docs/BENCHMARKS.md)")
    csub = camp.add_subparsers(dest="action", required=True)

    def _campaign_common(sp, names: bool = True):
        if names:
            sp.add_argument("name", nargs="+",
                            help="registered campaign name(s); "
                                 "see `campaign list`")
        sp.add_argument("--smoke", action="store_true",
                        help="the reduced CI shape (committed baselines "
                             "are smoke artifacts)")
        sp.add_argument("--state-root", metavar="DIR", default=None,
                        help="root for per-campaign trial state "
                             "(default out/campaigns)")
        sp.add_argument("--out", metavar="FILE", default=None,
                        help="artifact path (single campaign only; "
                             "default ./BENCH_<AREA>.json)")
        sp.add_argument("--out-dir", metavar="DIR", default=None,
                        help="directory for BENCH_<AREA>.json artifacts")

    clist = csub.add_parser("list", help="registered campaigns")
    clist.set_defaults(func=cmd_campaign_list)

    crun = csub.add_parser(
        "run", help="run the grid from scratch and write the artifact")
    _campaign_common(crun)
    crun.add_argument("--jobs", type=int, default=None,
                      help="process-pool width (default: one per core; "
                           "1 = inline)")
    crun.add_argument("--max-trials", type=int, default=None,
                      help="stop after N new trials (leaves a resumable "
                           "state dir; used to exercise `resume`)")
    crun.set_defaults(func=cmd_campaign_run)

    cres = csub.add_parser(
        "resume", help="finish an interrupted run (skips finished trials; "
                       "the artifact is byte-identical to an "
                       "uninterrupted run)")
    _campaign_common(cres)
    cres.add_argument("--jobs", type=int, default=None)
    cres.add_argument("--max-trials", type=int, default=None)
    cres.set_defaults(func=cmd_campaign_resume)

    crep = csub.add_parser(
        "report", help="re-aggregate a finished run without re-running")
    _campaign_common(crep)
    crep.set_defaults(func=cmd_campaign_report)

    cdiff = csub.add_parser(
        "diff", help="regression gate: candidate artifact vs the "
                     "committed baseline (no candidate -> fresh run)")
    _campaign_common(cdiff)
    cdiff.add_argument("--baseline", metavar="FILE", default=None,
                       help="baseline artifact "
                            "(default ./BENCH_<AREA>.json)")
    cdiff.add_argument("--candidate", metavar="FILE", default=None,
                       help="candidate artifact (default: run fresh)")
    cdiff.add_argument("--candidate-dir", metavar="DIR", default=None,
                       help="directory holding candidate "
                            "BENCH_<AREA>.json artifacts")
    cdiff.add_argument("--jobs", type=int, default=None)
    cdiff.add_argument("--max-regression", type=float, default=None,
                       metavar="PCT",
                       help="override every metric's regression "
                            "threshold (percent)")
    cdiff.set_defaults(func=cmd_campaign_diff)

    topo = sub.add_parser(
        "topology",
        help="describe generated fabrics (stats + deadlock proof)")
    topo.add_argument("spec", nargs="*",
                      default=["single:8", "dual:8", "fattree:4",
                               "fattree:8,h=2", "mesh:4x4", "mesh:8x8",
                               "torus:4x4"],
                      help="topology strings, e.g. fattree:8,h=2 mesh:4x4")
    topo.add_argument("--list", action="store_true",
                      help="list registered topology kinds and exit")
    topo.add_argument("--verbose", action="store_true",
                      help="print each spec's description line")
    topo.set_defaults(func=cmd_topology)

    met = sub.add_parser(
        "metrics", help="metrics snapshot of the instrumented workload")
    met.add_argument("--json", action="store_true",
                     help="JSON snapshot instead of a table")
    met.set_defaults(func=cmd_metrics)

    trace = sub.add_parser(
        "trace", help="Perfetto / Chrome trace-event export")
    trace.add_argument("--perfetto", metavar="OUT",
                       help="write Chrome trace-event JSON to this file")
    trace.add_argument("--check-docs", action="store_true",
                       help="fail if an emitted trace category is missing "
                            "from docs/TRACING.md")
    trace.set_defaults(func=cmd_trace)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
