"""Compare two sets of perfbench runs under the benchmark's own bounds.

    python3 perfbench/run.py --workload kv-serve --seed 3 --save before
    ...                                                    --save after
    python3 perfbench/agree.py perfbench/out/before perfbench/out/after

A set is a directory of result documents written by ``run.py --save``.
For every (end-to-end metric, workload) pair it prints both medians and
the ratio with its base, and one verdict:

* ``agree``      the second median is not worse than the first by more
                 than the metric's bound;
* ``differ``     it is worse by more than the bound;
* ``unresolved`` either set's spread (quartile distance over median) is
                 wider than the bound, so the medians cannot be told
                 apart — unless every run of the second set is better
                 than every run of the first, which counts as ``agree``.

Simulated metrics, ``ops_failed`` and ``sim_fingerprint`` are integer-ns
deterministic: on every seed both sets ran they must be *identical*, and
any difference is reported as ``differ`` whatever the bound.

Exit code 0 when every row is ``agree``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_set(directory: str) -> dict[str, dict[int, dict]]:
    """workload -> seed -> result document (untraced runs only)."""
    runs: dict[str, dict[int, dict]] = {}
    for path in sorted(Path(directory).glob("*.t0.json")):
        document = json.loads(path.read_text())
        runs.setdefault(document["workload"], {})[document["seed"]] = document
    return runs


def _values(runs: dict[int, dict], metric: str) -> list[float]:
    return [doc["result"]["metrics"][metric]["value"]
            for doc in runs.values()]


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def worsening(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    change = (second - first) / abs(first) if first else 0.0
    return change if better == "lower" else -change


def verdict(first: list[float], second: list[float], better: str,
            bound: float) -> str:
    worse = worsening(statistics.median(first), statistics.median(second),
                      better)
    if max(spread(first), spread(second)) > bound:
        if better == "lower":
            separated = max(second) < min(first)
        else:
            separated = min(second) > max(first)
        return "agree" if separated else "unresolved"
    return "differ" if worse > bound else "agree"


def exact_differences(first: dict[int, dict], second: dict[int, dict],
                      sim_metrics: list[str]) -> list[str]:
    """Deterministic outputs that differ on a seed both sets ran."""
    out = []
    for seed in sorted(set(first) & set(second)):
        a, b = first[seed], second[seed]
        if a["sim_fingerprint"] != b["sim_fingerprint"]:
            out.append(f"seed {seed}: sim_fingerprint")
        if a["result"]["failed"] != b["result"]["failed"]:
            out.append(f"seed {seed}: ops_failed {a['result']['failed']} "
                       f"vs {b['result']['failed']}")
        for metric in sim_metrics:
            va = a["result"]["metrics"][metric]["value"]
            vb = b["result"]["metrics"][metric]["value"]
            if va != vb:
                out.append(f"seed {seed}: {metric} {va!r} vs {vb!r}")
    return out


def compare(first_dir: str, second_dir: str) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    first, second = load_set(first_dir), load_set(second_dir)
    sim_metrics = [m["name"] for m in benchmark["end_to_end"]
                   if m["name"].startswith("sim_")]
    bad = 0
    print(f"{'workload':<12} {'metric':<17} {'first':>12} {'second':>12} "
          f"{'second/first':>22} {'spread':>13} {'bound':>6}  verdict")
    for workload in (w["name"] for w in benchmark["workloads"]):
        a, b = first.get(workload, {}), second.get(workload, {})
        if not a or not b:
            print(f"{workload:<12} missing from one set")
            bad += 1
            continue
        for m in benchmark["end_to_end"]:
            va, vb = _values(a, m["name"]), _values(b, m["name"])
            ma, mb = statistics.median(va), statistics.median(vb)
            word = verdict(va, vb, m["better"], m["bound"])
            bad += word != "agree"
            print(f"{workload:<12} {m['name']:<17} {ma:>12.6g} {mb:>12.6g} "
                  f"{mb / ma:>8.4f} of {ma:<10.6g} "
                  f"{spread(va) * 100:>5.1f}%/{spread(vb) * 100:>5.1f}% "
                  f"{m['bound'] * 100:>5.0f}%  {word}")
        differences = exact_differences(a, b, sim_metrics)
        shared = len(set(a) & set(b))
        if differences:
            bad += 1
            print(f"{workload:<12} deterministic outputs DIFFER on "
                  f"{shared} shared seed(s): " + "; ".join(differences[:6]))
        else:
            print(f"{workload:<12} sim_*, ops_failed and sim_fingerprint "
                  f"identical on {shared} shared seed(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(compare(sys.argv[1], sys.argv[2]))
