"""perfbench entry point: one workload run, every metric by name.

    python3 perfbench/run.py --workload kv-serve --seed 0 --seconds 16 --trace 0
    python3 perfbench/run.py --workload kv-serve --trace 1     # per-layer
    python3 perfbench/run.py --check                           # determinism

Prints a table for people and, as the last line of stdout, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  *Host* time (what the simulator costs) and *simulated*
time (what the model outputs) are never mixed in one number.

The workload itself runs in ``worker.py``, one fresh single-threaded
interpreter per run, started here with ``src/`` on ``PYTHONPATH`` and
``REPRO_SIM_ENGINE`` cleared, so the engine measured is the one
``Environment()`` gives by default.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = tuple(w["name"] for w in BENCHMARK["workloads"])
#: Set-up is measured this many times per run (fresh interpreters) and
#: the median reported; only the last interpreter goes on to the units.
SETUP_REPEATS = 5
#: A run whose wall time exceeds its CPU time by more than this share
#: was preempted too much to trust.
NOISY_STEAL_PCT = 5.0


def _worker(workload: str, *extra: str) -> subprocess.CompletedProcess:
    """One fresh worker interpreter, waited for."""
    env = dict(os.environ)
    env.pop("REPRO_SIM_ENGINE", None)
    # One fixed str-hash seed: dict and set layouts, and with them a few
    # per cent of host time, otherwise change from process to process.
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", workload, *extra]
    return subprocess.run(command, env=env, stdout=subprocess.PIPE,
                          text=True, cwd=ROOT)


def _spawn(workload: str, seed: int, *extra: str) -> dict:
    """Run a worker; returns the JSON document it printed."""
    done = _worker(workload, "--seed", str(seed),
                   "--started", repr(time.monotonic()), *extra)
    if done.returncode != 0:
        raise SystemExit(f"perfbench: {workload} worker exited with code "
                         f"{done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _unit_table(document: dict) -> None:
    print(f"  {'pass':>4} {'unit':<18} {'seed':>5} {'wall_s':>8} "
          f"{'cpu_s':>8} {document['work_name']:>10} {'failed':>6}")
    for number, rows in enumerate(document["passes"], start=1):
        for row in rows:
            print(f"  {number:>4} {row['label']:<18} {row['seed']:>5} "
                  f"{row['wall_s']:>8.3f} {row['cpu_s']:>8.3f} "
                  f"{row['work']:>10.6g} {row['failed']:>6}")
    walls = [row["wall_s"] for rows in document["passes"] for row in rows]
    q1, median, q3 = quartiles(walls)
    print(f"  {len(walls)} units: median {median:.3f} s, quartiles "
          f"{q1:.3f}..{q3:.3f} s (with this few units the median is the "
          f"only percentile worth reporting)")


def host_numbers(document: dict) -> dict:
    rows = [row for rows in document["passes"] for row in rows]
    wall = sum(row["wall_s"] for row in rows)
    cpu = sum(row["cpu_s"] for row in rows)
    work = sum(row["work"] for row in rows)
    return {
        "host_s": wall,
        "units": len(rows),
        "work": work,
        "work_per_host_s": work / wall,
        "steal_pct": max(0.0, (wall - cpu) / wall * 100.0),
        # Failures are counted once per input, not once per pass.
        "attempted": sum(row["attempted"] for row in document["passes"][0]),
        "failed": sum(row["failed"] for row in document["passes"][0]),
    }


def _emit(spec: list[dict], values: dict, result: dict,
          required: bool = True) -> None:
    """Fill ``result['metrics']`` with exactly the names in ``spec``.

    A per-layer metric of a layer the workload does not exercise is not
    ``required``: it reads 0.
    """
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing and required:
        print(f"perfbench: metrics not measured: {missing}",
              file=sys.stderr)
        result["correct"] = False
    result["metrics"] = {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
        for m in spec}
    width = max(len(m["name"]) for m in spec)
    for m in spec:
        print(f"  {m['name']:<{width}}  {values.get(m['name'], 0):>16.6g} "
              f"{m['unit']}")


def end_to_end_values(plain: dict, setups: list[float]) -> dict:
    """The end-to-end metrics of one untraced worker document."""
    host, sim = host_numbers(plain), plain["sim"]
    return {
        "setup_s": statistics.median(setups),
        "work_per_host_s": host["work_per_host_s"],
        "host_peak_rss_mb": plain["peak_rss_mb"],
        "sim_p50_us": sim["sim_p50_us"],
        "sim_p95_us": sim["sim_p95_us"],
        "sim_work_per_s": sim["sim_work_per_s"],
    }


def layer_values(plain: dict, traced: dict) -> dict:
    """The traced worker's layer metrics plus the three that need the
    untraced run beside it."""
    traced_s = sum(row["wall_s"] for row in traced["passes"][0])
    plain_s = sum(row["wall_s"] for row in plain["passes"][0])
    layers = dict(traced["layers"])
    layers.update({
        "sim.events_per_host_s": layers["sim.events"] / plain_s,
        "trace.overhead_pct": (traced_s - plain_s) / plain_s * 100.0,
        "host.steal_pct": host_numbers(plain)["steal_pct"],
    })
    return layers


def run_workload(args) -> dict:
    """One run of one workload; returns the contract's result object."""
    out_dir = HERE / "out"
    workload, seed = args.workload, args.seed
    setups = [_spawn(workload, seed, "--setup-only")["setup_s"]
              for _ in range(SETUP_REPEATS - 1)]
    # The traced run needs an untraced one of the same inputs beside it
    # (overhead, events per host second); one pass is enough for that.
    seconds = 0 if args.trace else args.seconds
    plain = _spawn(workload, seed, "--seconds", str(seconds))
    setups.append(plain["setup_s"])
    host = host_numbers(plain)
    sim = plain["sim"]
    info = plain["host"]

    print(f"perfbench {workload}  seed {seed}  "
          f"{len(plain['passes'])} pass(es)")
    print(f"  host: nproc {info['nproc']}, python {info['python']}, "
          f"numpy {info['numpy']}, engine {info['engine']}")
    _unit_table(plain)
    noisy = host["steal_pct"] > NOISY_STEAL_PCT
    print(f"  host_s {host['host_s']:.3f}  units {host['units']}  "
          f"host.steal_pct {host['steal_pct']:.2f}"
          f"{'  NOISY (steal above 5 %)' if noisy else ''}")
    print(f"  ops_attempted {host['attempted']}  "
          f"ops_failed {host['failed']}")
    print(f"  sim latency samples {sim['latency_samples']} (p95 needs ten "
          f"beyond it: {'ok' if sim['p95_supported'] else 'TOO FEW'})")
    print(f"  sim_fingerprint {plain['sim_fingerprint']}")
    if plain["finish"]:
        anchor = plain["finish"]
        print(f"  anchors (simulated, paper in brackets): one-way "
              f"{anchor['one_way_us']:.3f} us [9.8], 256 KB "
              f"{anchor['peak_mbps']:.3f} MB/s [98.4], null vRPC "
              f"{anchor['null_rpc_us']:.3f} us [66]")

    result = {"correct": sim["p95_supported"],
              "attempted": host["attempted"], "failed": host["failed"]}
    document = dict(plain, host_numbers=host, setup_samples=setups,
                    noisy=noisy)
    if not args.trace:
        print("end-to-end metrics (host axis first, then simulated):")
        _emit(BENCHMARK["end_to_end"], end_to_end_values(plain, setups),
              result)
    else:
        trace_file = out_dir / f"{workload}.trace.json"
        traced = _spawn(workload, seed, "--trace", "1",
                        "--trace-file", str(trace_file))
        layers = layer_values(plain, traced)
        same = traced["sim_fingerprint"] == plain["sim_fingerprint"]
        print(f"traced run: trace.overhead_pct "
              f"{layers['trace.overhead_pct']:.2f}, fingerprint "
              f"{'equal' if same else 'DIFFERS'}, span self-times within "
              f"{traced['span_sum_err_pct']:.3f} % of unit wall time")
        print(f"  spans written to {trace_file.relative_to(ROOT)}")
        result["correct"] = (result["correct"] and same
                             and traced["span_sum_err_pct"] <= 1.0)
        print("per-layer metrics:")
        _emit(BENCHMARK["per_layer"], layers, result, required=False)
        document["traced"] = traced
    document["result"] = result
    if args.save:
        target = out_dir / args.save
        target.mkdir(parents=True, exist_ok=True)
        name = f"{workload}.s{seed}.t{int(bool(args.trace))}.json"
        (target / name).write_text(json.dumps(document))
    return result


def run_check(names) -> int:
    """Each workload at reduced shape twice, untraced then traced: the
    fingerprints and every count must repeat exactly."""
    failed = 0
    for name in names:
        code = _worker(name, "--check").returncode
        print(f"check {name}: {'ok' if code == 0 else 'FAILED'}")
        failed += code != 0
    return 1 if failed else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true",
                        help="determinism check at reduced shape")
    parser.add_argument("--save", metavar="SET",
                        help="also write the full result document to "
                             "perfbench/out/SET/ (input of agree.py)")
    args = parser.parse_args(argv)
    if args.check:
        return run_check([args.workload] if args.workload
                         else WORKLOAD_NAMES)
    if args.workload is None:
        parser.error("--workload is required (or --check)")
    if args.seconds is None:
        args.seconds = BENCHMARK["run_seconds"]
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
