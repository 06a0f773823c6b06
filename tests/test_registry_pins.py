"""Whole-registry pins for the two workloads that carry a registry.

The ``kv`` and ``dsm`` campaign cells fingerprint the trials' *reports*
(their evidence), which carry a few histogram quantiles but not the
registry itself.  A metric handle that bound the wrong label, or created
a series before its first record, would pass them.  These pins hash the
full ``MetricsRegistry.snapshot()`` of a small trial instead.

The trials install their registry inside the call and do not return it,
so the test wraps ``MetricsRegistry.install`` to catch it (the way
``perfbench/tracing.py`` does).

The digests were taken on the commit before bound metric handles
existed, when every record went through ``count``/``observe``/
``set_gauge``; they must not move.
"""

from __future__ import annotations

import pytest

from repro.dsm.bench import run_dsm_trial
from repro.kv.bench import run_kv_trial
from repro.obs.metrics import MetricsRegistry
from repro.sim.fingerprint import value_fingerprint

PINS = {
    ("kv", "clean"):
        "318455be6ee2366aba561366f7d91e0529eb2ff58a88eb2456e1eb146385168b",
    ("kv", "error-burst"):
        "1eab61016fa3ef31cbe72da7a017933c365ee6445ae882e6d2de181924d2da0c",
    ("dsm", "clean"):
        "a74c22186f2f9d797bb55ba42f82ff0c0661144b0f7ea8f51ba2a38941ff7542",
    ("dsm", "daemon-cold-crash"):
        "9b9f64ef905d349297f2014a507671ab42617f1dddaffe90acba122932f3f497",
}


def _trial(workload: str, scenario: str) -> None:
    if workload == "kv":
        run_kv_trial(0, requests=40, scenario=scenario)
    else:
        run_dsm_trial(0, ops_per_node=8, scenario=scenario)


@pytest.mark.parametrize("workload,scenario", sorted(PINS))
def test_registry_snapshot_is_pinned(monkeypatch, workload, scenario):
    installed: list[MetricsRegistry] = []
    original = MetricsRegistry.install

    def install(self, env):
        installed.append(self)
        return original(self, env)

    monkeypatch.setattr(MetricsRegistry, "install", install)
    _trial(workload, scenario)
    assert len(installed) == 1
    snapshot = installed[0].snapshot()
    assert value_fingerprint(snapshot) == PINS[workload, scenario]
