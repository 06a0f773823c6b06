"""The regression gate: compare two ``BENCH_<AREA>.json`` artifacts.

``campaign diff`` compares a *candidate* artifact (a fresh run) against
the *baseline* committed at the repo root.  Per gated metric (direction
``higher``/``lower`` with a ``regression_pct`` threshold) it compares the
cell **medians**; a relative move beyond the threshold in the bad
direction is a regression.  Moves in the good direction are reported as
improvements (and are the cue to refresh the baseline — see
docs/BENCHMARKS.md, "Refreshing baselines").

Structural problems always fail: schema/campaign mismatch, a baseline
cell missing from the candidate, or any candidate cell with failed
trial gates (SC violations, lost deliveries, ...).

So does a moved simulation: when a cell ran the same seeds on both
sides, its ``fingerprint`` (exact per-seed metrics, gates and evidence)
must match, whatever the thresholds say.  Cells whose seed lists differ
(a full-shape candidate against a smoke baseline) cannot be compared
that way; they are listed in ``notes`` instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

#: Statuses a (cell, metric) comparison can land on.
OK, REGRESSION, IMPROVED, ZERO_BASELINE = (
    "ok", "REGRESSION", "improved", "zero-baseline")


@dataclass(frozen=True)
class DiffRow:
    cell: str
    metric: str
    direction: str
    baseline: float
    candidate: float
    delta_pct: Optional[float]     # None when the baseline median is 0
    threshold_pct: float
    status: str


@dataclass
class DiffResult:
    campaign: str
    rows: list[DiffRow] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    new_cells: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[DiffRow]:
        return [row for row in self.rows if row.status == REGRESSION]

    @property
    def ok(self) -> bool:
        return not self.problems and not self.regressions


def _median(cell: dict, metric: str) -> float:
    return cell["metrics"][metric]["median"]


def diff_artifacts(baseline: dict, candidate: dict,
                   max_regression_pct: Optional[float] = None) -> DiffResult:
    """Gate ``candidate`` against ``baseline``; see the module docstring.

    ``max_regression_pct`` overrides every metric's own threshold (the
    CLI's ``--max-regression``).
    """
    result = DiffResult(campaign=str(candidate.get("campaign")))
    if baseline.get("campaign") != candidate.get("campaign"):
        result.problems.append(
            f"campaign mismatch: baseline {baseline.get('campaign')!r} "
            f"vs candidate {candidate.get('campaign')!r}")
        return result
    if baseline.get("schema_version") != candidate.get("schema_version"):
        result.problems.append(
            f"schema_version mismatch: baseline "
            f"{baseline.get('schema_version')} vs candidate "
            f"{candidate.get('schema_version')} — regenerate the baseline")
        return result
    if candidate.get("cells_with_failed_gates"):
        failed = [f"{cell['key']}: {', '.join(cell['gates_failed'])}"
                  for cell in candidate["cells"] if cell["gates_failed"]]
        result.problems.append(
            "candidate has failed trial gates — " + "; ".join(failed))

    base_cells = {cell["key"]: cell for cell in baseline["cells"]}
    cand_cells = {cell["key"]: cell for cell in candidate["cells"]}
    for key in base_cells:
        if key not in cand_cells:
            result.problems.append(
                f"cell {key!r} is in the baseline but missing from the "
                "candidate (grid shrank? run the same shape)")
    result.new_cells = [key for key in cand_cells if key not in base_cells]

    meta = candidate.get("metrics", {})
    for key, base_cell in sorted(base_cells.items()):
        cand_cell = cand_cells.get(key)
        if cand_cell is None:
            continue
        if base_cell["seeds"] != cand_cell["seeds"]:
            result.notes.append(
                f"cell {key!r}: seeds {base_cell['seeds']} vs "
                f"{cand_cell['seeds']}, fingerprint not compared")
        elif base_cell["fingerprint"] != cand_cell["fingerprint"]:
            result.problems.append(
                f"cell {key!r}: the simulation moved (fingerprint "
                f"{base_cell['fingerprint'][:12]} -> "
                f"{cand_cell['fingerprint'][:12]}); diff its trial files "
                "seed by seed")
        for name, info in sorted(meta.items()):
            direction = info.get("direction", "info")
            threshold = (max_regression_pct
                         if max_regression_pct is not None
                         else info.get("regression_pct"))
            if direction not in ("higher", "lower") or threshold is None:
                continue
            if (name not in base_cell["metrics"]
                    or name not in cand_cell["metrics"]):
                result.problems.append(
                    f"cell {key!r}: metric {name!r} missing from "
                    f"{'baseline' if name not in base_cell['metrics'] else 'candidate'}")
                continue
            base = _median(base_cell, name)
            cand = _median(cand_cell, name)
            if base == 0:
                status = OK if cand == 0 else ZERO_BASELINE
                result.rows.append(DiffRow(
                    cell=key, metric=name, direction=direction,
                    baseline=base, candidate=cand, delta_pct=None,
                    threshold_pct=threshold, status=status))
                continue
            delta_pct = (cand - base) / abs(base) * 100.0
            worse = -delta_pct if direction == "higher" else delta_pct
            if worse > threshold:
                status = REGRESSION
            elif worse < -threshold:
                status = IMPROVED
            else:
                status = OK
            result.rows.append(DiffRow(
                cell=key, metric=name, direction=direction,
                baseline=base, candidate=cand,
                delta_pct=round(delta_pct, 3),
                threshold_pct=threshold, status=status))
    return result
