"""Per-cell statistics over the seed axis.

Every metric of every grid cell is aggregated across that cell's seeds:
min, max, mean, median, and a 95 % confidence half-width
(``1.96 * s / sqrt(n)`` with the sample standard deviation, ``0.0`` for
``n == 1`` — simulation trials are deterministic per seed, so the spread
measures seed-to-seed workload variation, not measurement noise).

All floats are rounded to 6 decimals so artifacts are stable to
re-serialisation; trials are deterministic, so re-aggregating the same
trial set — e.g. after ``campaign resume`` — is byte-identical.

Rounded statistics cannot show a 1 ns shift or a changed event count,
so each cell also carries a ``fingerprint``: the per-seed trial digests
(exact metrics, gates and evidence) folded in seed order.
"""

from __future__ import annotations

import math
import statistics
from typing import Mapping, Sequence

from repro.sim.fingerprint import value_fingerprint

#: z-score of the two-sided 95 % interval (normal approximation).
Z95 = 1.96


def _round(value: float) -> float:
    rounded = round(value, 6)
    # Avoid "-0.0" artifacts so JSON output is canonical.
    return 0.0 if rounded == 0 else rounded


def aggregate_values(values: Sequence[float]) -> dict:
    """min/max/mean/median/ci95 of one metric across seeds."""
    if not values:
        raise ValueError("cannot aggregate an empty value list")
    values = [float(v) for v in values]
    n = len(values)
    mean = statistics.fmean(values)
    ci95 = (Z95 * statistics.stdev(values) / math.sqrt(n)
            if n > 1 else 0.0)
    return {
        "n": n,
        "min": _round(min(values)),
        "max": _round(max(values)),
        "mean": _round(mean),
        "median": _round(statistics.median(values)),
        "ci95": _round(ci95),
    }


def aggregate_cell(trial_reports: Sequence[Mapping]) -> dict:
    """Fold one cell's per-seed trial reports into its artifact entry.

    ``trial_reports`` must all belong to the same cell and be ordered by
    seed (the runner guarantees both).  Every report carries the same
    metric names; a mismatch means the trial function is not
    deterministic in its output shape and is reported as an error.
    """
    if not trial_reports:
        raise ValueError("cannot aggregate a cell with no trials")
    names = sorted(trial_reports[0]["metrics"])
    for report in trial_reports[1:]:
        if sorted(report["metrics"]) != names:
            raise ValueError(
                "trial reports disagree on metric names: "
                f"{names} vs {sorted(report['metrics'])}")
    metrics = {
        name: aggregate_values([r["metrics"][name] for r in trial_reports])
        for name in names
    }
    gates_failed = sorted({
        gate
        for report in trial_reports
        for gate, passed in report.get("gates", {}).items()
        if not passed
    })
    return {
        "seeds": [r["seed"] for r in trial_reports],
        "metrics": metrics,
        "gates_failed": gates_failed,
        "fingerprint": value_fingerprint(
            [r["fingerprint"] for r in trial_reports]),
    }
