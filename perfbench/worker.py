"""The workload subprocess: set-up, timed units, and (traced) layer numbers.

``run.py`` starts one fresh interpreter per workload run with this file
as its program, ``src/`` on ``PYTHONPATH`` and ``REPRO_SIM_ENGINE``
cleared.  The process is single-threaded.  It prints one JSON document
on stdout; host time and simulated outputs stay in separate fields.

Timing rules: ``time.perf_counter`` around each unit, ``process_time``
beside it so preemption shows, ``gc.collect()`` between units and
outside the timers.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import time


def run_units(workload, units, *, traced: bool = False) -> dict:
    """Run ``units`` once; returns rows, digests, fingerprint and — when
    ``traced`` — spans and per-unit layer counts.

    Importable on its own (the determinism check and the tests call it
    in-process); the monkeypatches are always rolled back.
    """
    import layers
    import tracing
    from repro.sim.fingerprint import value_fingerprint

    patches = tracing.Patches()
    capture = tracing.Capture()
    recorder = tracing.Recorder()
    tracing.capture_registries(patches, capture)
    if traced:
        tracing.install_tracing(patches, recorder, capture)
    rows, digests, counts = [], [], []
    try:
        for index, unit in enumerate(units):
            gc.collect()
            capture.reset()
            recorder.unit = index
            cpu0, wall0 = time.process_time(), time.perf_counter()
            with recorder.span("unit"):
                raw = workload.run(unit)
            wall_s = time.perf_counter() - wall0
            cpu_s = time.process_time() - cpu0
            calls = dict(capture.calls)
            snapshots = [(registry, registry.snapshot())
                         for registry in capture.registries]
            digest = workload.digest(unit, raw, snapshots)
            digest["unit"] = unit
            if traced:
                counts.append(layers.unit_counts(capture, snapshots, calls))
            del raw, snapshots
            digests.append(digest)
            rows.append({"label": unit.label, "seed": unit.seed,
                         "wall_s": wall_s, "cpu_s": cpu_s,
                         "work": digest["work"],
                         "attempted": digest["attempted"],
                         "failed": digest["failed"]})
    finally:
        patches.undo()
        capture.reset()
    extra = workload.finish()
    sim_outputs = {"units": [[d["unit"].label, d["unit"].seed, d["sim"]]
                             for d in digests], "finish": extra}
    return {"rows": rows, "digests": digests, "finish": extra,
            "fingerprint": value_fingerprint(sim_outputs),
            "spans": recorder.spans, "counts": counts}


def check_runs(name: str) -> list[dict]:
    """The reduced shape of workload ``name``, twice untraced and twice
    traced."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    units = workload.units(0, "check")
    return [run_units(workload, units, traced=traced)
            for traced in (False, False, True, True)]


def check_problems(runs: list[dict]) -> list[str]:
    """What differed between the four runs of :func:`check_runs` (empty
    when everything repeats): fingerprints across all four, per-unit
    work and failure counts, and the traced runs' layer counts."""
    problems = []
    if len({run["fingerprint"] for run in runs}) != 1:
        problems.append("sim_fingerprint differs between runs "
                        "(untraced, untraced, traced, traced): "
                        + ", ".join(run["fingerprint"][:12] for run in runs))
    counted = [[(row["work"], row["attempted"], row["failed"])
                for row in run["rows"]] for run in runs]
    if any(rows != counted[0] for rows in counted[1:]):
        problems.append("work/attempted/failed counts differ between runs")
    if runs[2]["counts"] != runs[3]["counts"]:
        problems.append("layer counts differ between the two traced runs")
    return problems


def _span_sum_error(spans: list, rows: list[dict]) -> float:
    """Largest relative gap between a unit's wall time and the summed
    self-times of the spans under its root."""
    import tracing

    totals: dict[int, float] = {}
    for own, root in zip(tracing.self_times(spans), tracing.roots(spans)):
        if spans[root][0] == "unit":
            totals[root] = totals.get(root, 0.0) + own
    worst = 0.0
    for root, total in totals.items():
        wall = rows[spans[root][4]]["wall_s"]
        worst = max(worst, abs(total - wall) / wall)
    return worst * 100.0


def layer_metrics(result: dict, summary: dict,
                  probe_scale: float = 1.0) -> dict:
    """Every per-layer metric the worker can produce for a traced run."""
    import layers
    import probes
    import tracing
    from workloads import anchors, paper_err_pct

    rows = result["rows"]
    wall_s = sum(row["wall_s"] for row in rows)
    ops = sum(row["work"] for row in rows)
    # Span metrics count what happened inside the timed units; the
    # registry snapshots are taken between units.
    span_self = tracing.self_time_by_name(result["spans"], root="unit")
    span_self["obs.snapshot"] = tracing.self_time_by_name(
        result["spans"]).get("obs.snapshot", 0.0)
    metrics = layers.combine(result["counts"], ops, wall_s, span_self)
    metrics.update(summary["layer"])
    gc.collect()
    metrics.update(probes.run_probes(probe_scale))
    anchor = result["finish"] or anchors()
    metrics.update({
        "sim_one_way_us": anchor["one_way_us"],
        "sim_null_rpc_us": anchor["null_rpc_us"],
        "paper_err_pct": paper_err_pct(anchor),
    })
    for key, ns in anchor["stages_ns"].items():
        metrics[f"vmmc.stage.{key}_ns"] = ns
    return metrics


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--started", type=float,
                        help="parent's time.monotonic() at spawn")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--trace-file")
    args = parser.parse_args(argv)

    if args.check:
        problems = check_problems(check_runs(args.workload))
        for problem in problems:
            print(f"{args.workload}: {problem}", file=sys.stderr)
        return 1 if problems else 0

    # Set-up: import the simulator, build the inputs, run one reduced
    # warm-up unit so lazy imports and numpy set-up are paid here.
    import numpy
    import tracing
    from repro.sim import resolve_engine
    from workloads import WORKLOADS, supports

    workload = WORKLOADS[args.workload]
    units = workload.units(args.seed, "full")
    run_units(workload, workload.units(args.seed, "warm"))
    gc.collect()
    # time.monotonic is CLOCK_MONOTONIC on Linux: one clock for parent
    # and child, so the spawn and interpreter start-up are included.
    setup_s = time.monotonic() - args.started
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    traced = bool(args.trace)
    first = run_units(workload, units, traced=traced)
    passes = [first["rows"]]
    # More passes over the same inputs while the budget allows: more
    # host-time samples, and every extra pass re-checks determinism.
    spent = sum(row["wall_s"] for row in first["rows"])
    while not traced and spent + spent / len(passes) <= args.seconds:
        again = run_units(workload, units)
        if again["fingerprint"] != first["fingerprint"]:
            print(f"{args.workload}: pass {len(passes) + 1} produced a "
                  f"different sim_fingerprint", file=sys.stderr)
            return 1
        passes.append(again["rows"])
        spent += sum(row["wall_s"] for row in again["rows"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    summary = workload.summarise(first["digests"])
    document = {
        "workload": args.workload,
        "seed": args.seed,
        "work_name": workload.work_name,
        "setup_s": setup_s,
        "passes": passes,
        "peak_rss_mb": peak_rss_mb,
        "sim": dict({k: v for k, v in summary.items() if k != "layer"},
                    p95_supported=supports(summary["latency_samples"], 0.95)),
        "sim_fingerprint": first["fingerprint"],
        "finish": first["finish"],
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "engine": resolve_engine(None),
        },
    }
    if traced:
        document["span_sum_err_pct"] = _span_sum_error(first["spans"],
                                                       first["rows"])
        document["layers"] = layer_metrics(first, summary)
        os.makedirs(os.path.dirname(args.trace_file), exist_ok=True)
        with open(args.trace_file, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "units": first["rows"],
                       "spans": tracing.spans_as_json(first["spans"])}, fh)
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
