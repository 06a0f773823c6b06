"""Declarative experiment-campaign specifications.

A campaign is the unit of the perf trajectory: one parameter grid, one
seed list, one trial function, one machine-readable ``BENCH_<AREA>.json``
artifact at the repo root.  The spec is *declarative* — everything the
runner, the aggregator, the diff gate and the handbook need (knobs,
metric directions, regression thresholds, the smoke shape CI runs) lives
here, so a registered campaign is self-describing.

The trial callable has the signature ``trial(params, seed) -> dict`` and
must return ``{"metrics": {name: number}, "gates": {name: bool}}``
(``gates`` optional).  Trials must be deterministic in ``(params, seed)``
— the runner fans them out across processes and re-aggregation after a
resume must be byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

#: Version of the BENCH_<AREA>.json artifact layout.  Bump on any
#: structural change and document the migration in docs/BENCHMARKS.md.
SCHEMA_VERSION = 2

_NAME_RE = re.compile(r"^[a-z][a-z0-9-]*$")
_AREA_RE = re.compile(r"^[A-Z][A-Z0-9_]*$")

#: Allowed metric directions: "higher" / "lower" say which way is
#: *better* (the diff gate fails on moves the other way beyond the
#: threshold); "info" metrics are recorded but never gated.
DIRECTIONS = ("higher", "lower", "info")


class SpecError(ValueError):
    """A campaign spec (or a spec/state mismatch) is invalid."""


@dataclass(frozen=True)
class Metric:
    """One column of the campaign's artifact.

    ``regression_pct`` is the default diff-gate threshold: a relative
    move beyond it in the bad direction fails ``campaign diff``.  ``None``
    (or direction ``"info"``) means the metric is informational only.
    """

    name: str
    unit: str
    direction: str = "info"
    regression_pct: Optional[float] = None

    def __post_init__(self) -> None:
        if self.direction not in DIRECTIONS:
            raise SpecError(
                f"metric {self.name!r}: direction {self.direction!r} "
                f"not in {DIRECTIONS}")
        if self.regression_pct is not None and self.regression_pct <= 0:
            raise SpecError(
                f"metric {self.name!r}: regression_pct must be positive, "
                f"got {self.regression_pct}")

    @property
    def gated(self) -> bool:
        return (self.direction in ("higher", "lower")
                and self.regression_pct is not None)


@dataclass(frozen=True)
class CampaignSpec:
    """One registered campaign: grid x seeds -> trials -> artifact."""

    name: str                         # CLI name (kebab-case)
    area: str                         # artifact is BENCH_<area>.json
    title: str                        # one-line, for tables and docs
    paper_ref: str                    # which figure/section it reproduces
    trial: Callable[[dict, int], dict]
    grid: Mapping[str, Sequence]      # param -> sweep values
    seeds: Sequence[int]
    metrics: Sequence[Metric]
    fixed: Mapping[str, object] = field(default_factory=dict)
    smoke_grid: Optional[Mapping[str, Sequence]] = None
    smoke_seeds: Optional[Sequence[int]] = None
    expected_runtime: str = "seconds"   # handbook hint, full (non-smoke)

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise SpecError(f"campaign name {self.name!r} must be "
                            "kebab-case ([a-z][a-z0-9-]*)")
        if not _AREA_RE.match(self.area):
            raise SpecError(f"campaign {self.name}: area {self.area!r} "
                            "must be UPPER_SNAKE ([A-Z][A-Z0-9_]*)")
        if not callable(self.trial):
            raise SpecError(f"campaign {self.name}: trial is not callable")
        _check_grid(self.name, self.grid)
        _check_seeds(self.name, self.seeds)
        if not self.metrics:
            raise SpecError(f"campaign {self.name}: no metrics declared")
        names = [m.name for m in self.metrics]
        if len(set(names)) != len(names):
            raise SpecError(f"campaign {self.name}: duplicate metric "
                            f"names in {names}")
        overlap = set(self.grid) & set(self.fixed)
        if overlap:
            raise SpecError(f"campaign {self.name}: params {sorted(overlap)}"
                            " appear in both grid and fixed")
        if self.smoke_grid is not None:
            _check_grid(self.name, self.smoke_grid, kind="smoke grid")
            stray = set(self.smoke_grid) - set(self.grid)
            if stray:
                raise SpecError(
                    f"campaign {self.name}: smoke grid params "
                    f"{sorted(stray)} not in the full grid")
        if self.smoke_seeds is not None:
            _check_seeds(self.name, self.smoke_seeds, kind="smoke seeds")

    # -- shape resolution --------------------------------------------------
    def resolved_grid(self, smoke: bool) -> dict:
        """The grid actually swept (smoke overrides merged over full)."""
        grid = dict(self.grid)
        if smoke and self.smoke_grid is not None:
            grid.update(self.smoke_grid)
        return {key: list(values) for key, values in sorted(grid.items())}

    def resolved_seeds(self, smoke: bool) -> list[int]:
        seeds = (self.smoke_seeds
                 if smoke and self.smoke_seeds is not None else self.seeds)
        return list(seeds)

    def cells(self, smoke: bool) -> list[dict]:
        """Every grid cell, deterministically ordered: params sorted by
        name, values in declared order, row-major product."""
        grid = self.resolved_grid(smoke)
        keys = list(grid)
        return [dict(zip(keys, combo))
                for combo in itertools.product(*(grid[k] for k in keys))]

    def trials(self, smoke: bool) -> list[tuple[int, dict, int]]:
        """The full work list: ``(cell_index, cell_params, seed)``."""
        return [(index, params, seed)
                for index, params in enumerate(self.cells(smoke))
                for seed in self.resolved_seeds(smoke)]

    def trial_params(self, cell_params: dict) -> dict:
        """What the trial function actually receives: fixed + cell."""
        merged = dict(self.fixed)
        merged.update(cell_params)
        return merged

    @property
    def artifact_name(self) -> str:
        return f"BENCH_{self.area}.json"

    def metric(self, name: str) -> Metric:
        for metric in self.metrics:
            if metric.name == name:
                return metric
        raise KeyError(name)


def _check_grid(name: str, grid: Mapping[str, Sequence],
                kind: str = "grid") -> None:
    for param, values in grid.items():
        if not isinstance(param, str) or not param:
            raise SpecError(f"campaign {name}: {kind} param {param!r} "
                            "must be a non-empty string")
        values = list(values)
        if not values:
            raise SpecError(f"campaign {name}: {kind} param {param!r} "
                            "has no values")
        if len(set(map(repr, values))) != len(values):
            raise SpecError(f"campaign {name}: {kind} param {param!r} "
                            f"has duplicate values {values}")


def _check_seeds(name: str, seeds: Sequence[int],
                 kind: str = "seeds") -> None:
    seeds = list(seeds)
    if not seeds:
        raise SpecError(f"campaign {name}: {kind} list is empty")
    if any(not isinstance(s, int) or isinstance(s, bool) for s in seeds):
        raise SpecError(f"campaign {name}: {kind} must be ints, "
                        f"got {seeds}")
    if len(set(seeds)) != len(seeds):
        raise SpecError(f"campaign {name}: duplicate {kind} in {seeds}")


_SAFE_RE = re.compile(r"[^A-Za-z0-9_.=-]")


def cell_key(params: Mapping[str, object]) -> str:
    """Filesystem- and JSON-safe canonical key for one grid cell."""
    if not params:
        return "cell"
    parts = [f"{k}={_SAFE_RE.sub('_', str(v))}"
             for k, v in sorted(params.items())]
    return ",".join(parts)
