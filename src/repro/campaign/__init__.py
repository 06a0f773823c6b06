"""Experiment-campaign orchestration + the machine-readable perf trajectory.

``repro.campaign`` turns the repo's scattered bench scripts into
*registered campaigns*: a declarative spec (parameter grid x seed list x
trial function) fans out across a multiprocess pool, per-cell statistics
(min/median/mean/95 % CI over seeds) are aggregated, and a
schema-versioned ``BENCH_<AREA>.json`` artifact lands at the repo root.
Runs are resumable (per-trial state files; a resumed run's artifact is
byte-identical to an uninterrupted one) and diffable (``campaign diff``
is the CI regression gate against the committed baselines).

CLI: ``python -m repro campaign list|run|resume|report|diff`` —
handbook in docs/BENCHMARKS.md.
"""

from repro.campaign.aggregate import aggregate_cell, aggregate_values
from repro.campaign.diffing import DiffResult, DiffRow, diff_artifacts
from repro.campaign.registry import (all_campaigns, campaign_names,
                                     get_campaign, register, unregister)
from repro.campaign.runner import (IncompleteRunError,
                                   artifact_from_reports, build_artifact,
                                   git_metadata, load_artifact,
                                   run_campaign, run_trial, state_dir_for,
                                   write_artifact)
from repro.campaign.spec import (SCHEMA_VERSION, CampaignSpec, Metric,
                                 SpecError, cell_key)

__all__ = [
    "SCHEMA_VERSION",
    "CampaignSpec",
    "DiffResult",
    "DiffRow",
    "IncompleteRunError",
    "Metric",
    "SpecError",
    "aggregate_cell",
    "aggregate_values",
    "all_campaigns",
    "artifact_from_reports",
    "build_artifact",
    "campaign_names",
    "cell_key",
    "diff_artifacts",
    "get_campaign",
    "git_metadata",
    "load_artifact",
    "register",
    "run_campaign",
    "run_trial",
    "state_dir_for",
    "unregister",
    "write_artifact",
]
