"""Event-core throughput bench: scalar oracle vs vector fast path.

Measures raw simulated-events/sec of the two engines on three workload
shapes that bracket the repo's real simulations:

* ``chain`` — one process, N sequential timeouts.  The
  Timeout→resume→Timeout pattern of the LANai/DMA/link pipelines;
  generator resumption dominates and both engines drain with the same
  loop, so the speedup here reads ≈1×.
* ``storm`` — N independent timeouts pre-scheduled at scattered
  deadlines.  Pure heap churn with trivial callbacks.
* ``ring`` — N slot-ring deadlines armed in batches through
  :meth:`~repro.sim.core.Environment.timeout_batch` with quantized
  expiry times.  The shape the vectorized batch rings exist for: DMA
  completion timers, link-hop arrival waves, retransmission slot rings.
  This is the cell the ≥10x acceptance gate rides on.

Each point runs the same workload on both engines in one process
(best-of-``repeats`` wall time), cross-checks a behavioral fingerprint
(final simulated time, events processed, and the ring's on_fire group
digest must be equal — a throughput number from a divergent simulation
is meaningless), and reports the intra-trial speedup.  Wall-clock
throughput is machine-dependent, so the campaign publishes the numbers
as ``info`` metrics and enforces via trial *gates*: ``identical`` and,
on the ring cell, ``speedup_10x`` — both machine-independent claims.
"""

from __future__ import annotations

import time
from typing import Any, Callable

import numpy as np

from repro.sim import Environment
from repro.sim.fingerprint import value_fingerprint

__all__ = ["SIMCORE_WORKLOADS", "run_simcore_point"]


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


def _ring(env: Environment, events: int, seed: int) -> dict[str, Any]:
    rng = np.random.default_rng(seed)
    waves = 32
    per_wave = events // waves
    digest = {"groups": 0, "acc": 0}

    def on_fire(when: int, indices: np.ndarray) -> None:
        digest["groups"] += 1
        digest["acc"] ^= when * len(indices) + int(indices[0])

    def proc():
        for _ in range(waves):
            # Quantized deadlines: many members share each expiry tick,
            # like completion timers clocked by a slot ring.
            delays = rng.integers(0, 64, size=per_wave) * 16
            yield env.timeout_batch(delays, on_fire)

    env.process(proc())
    env.run()
    return dict(digest)


SIMCORE_WORKLOADS: dict[str, Callable[[Environment, int, int],
                                      dict[str, Any]]] = {
    "chain": _chain,
    "storm": _storm,
    "ring": _ring,
}


def _measure(workload: str, engine: str, events: int, seed: int,
             repeats: int) -> tuple[float, dict[str, Any]]:
    """Best-of-``repeats`` wall seconds plus the behavioral fingerprint."""
    run = SIMCORE_WORKLOADS[workload]
    best = None
    fingerprint: dict[str, Any] = {}
    for _ in range(repeats):
        env = Environment(engine=engine)
        t0 = time.perf_counter()
        extra = run(env, events, seed)
        elapsed = time.perf_counter() - t0
        fingerprint = {"final_time_ns": env.now,
                       "events_processed": env.events_processed, **extra}
        best = elapsed if best is None else min(best, elapsed)
    return best, fingerprint


def run_simcore_point(workload: str, events: int, seed: int,
                      repeats: int = 3) -> dict[str, Any]:
    """One scalar-vs-vector throughput point; see the module docstring."""
    scalar_s, scalar_fp = _measure(workload, "scalar", events, seed, repeats)
    vector_s, vector_fp = _measure(workload, "vector", events, seed, repeats)
    processed = scalar_fp["events_processed"]
    return {
        "workload": workload,
        "events": processed,
        "scalar_events_per_sec": processed / scalar_s,
        "vector_events_per_sec": processed / vector_s,
        "speedup": scalar_s / vector_s,
        "identical": (value_fingerprint(scalar_fp)
                      == value_fingerprint(vector_fp)),
        "scalar_fingerprint": scalar_fp,
        "vector_fingerprint": vector_fp,
    }
