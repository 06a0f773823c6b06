"""Event-core shapes, kept because ``perfbench/probes.py:18,43`` times
them (``sim.chain_ns_per_event``, ``sim.storm_ns_per_event``):

* ``chain`` — one process, N sequential timeouts.  The
  Timeout→resume→Timeout pattern of the LANai/DMA/link pipelines;
  generator resumption dominates.
* ``storm`` — N independent timeouts pre-scheduled at scattered
  deadlines.  Pure heap churn with trivial callbacks.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.sim import Environment

__all__ = ["SIMCORE_WORKLOADS"]


def _chain(env: Environment, events: int, seed: int) -> dict[str, Any]:
    step = 3 + (seed % 5)

    def proc():
        for _ in range(events):
            yield env.timeout(step)

    env.process(proc())
    env.run()
    return {}


def _storm(env: Environment, events: int, seed: int) -> dict[str, Any]:
    # Deterministic scattered deadlines (Knuth multiplicative hash).
    for i in range(events):
        env.timeout(((i + seed) * 2654435761) % 10_000)
    env.run()
    return {}


SIMCORE_WORKLOADS: dict[str, Callable[[Environment, int, int],
                                      dict[str, Any]]] = {
    "chain": _chain,
    "storm": _storm,
}
