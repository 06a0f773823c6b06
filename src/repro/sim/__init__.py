"""Discrete-event simulation engine.

This package is the foundation of the whole reproduction: simulated
software (the VMMC LCP, drivers, daemons, user processes) runs as
generator-based :class:`~repro.sim.core.Process` es, and simulated
hardware (buses, DMA engines, Myrinet links and switches) as plain calls
that schedule events, all over a shared
:class:`~repro.sim.core.Environment`.

The engine is deliberately SimPy-like (processes yield events) but written
from scratch, with integer-nanosecond time to keep event ordering exact and
reproducible.

Public surface
--------------

* :class:`Environment` — event queue and clock.
* :class:`Event`, :class:`Timeout`, :class:`Process` — core event types.
* :class:`AllOf`, :class:`AnyOf` — condition events.
* :class:`Interrupt` — exception thrown into interrupted processes.
* :class:`SimulationError` — engine misuse; its :class:`SimulationStalled`
  says which event a drained ``run(until=...)`` was still waiting for.
* :class:`Resource` — capacity-limited resource a process requests.
* :class:`Server` — capacity-1 FIFO server run by callbacks (the buses
  and DMA engines of :mod:`repro.hw`).
* :class:`Store` — FIFO object queue (daemon mailboxes, protocol
  delivery queues...).
* Time helpers: :data:`NS`, :data:`US`, :data:`MS`, :data:`SEC`,
  :func:`us`, :func:`ns_to_us`.
"""

from repro.sim.core import (
    NS,
    US,
    MS,
    SEC,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    SimulationStalled,
    Timeout,
    VectorEnvironment,
    ns_to_us,
    resolve_engine,
    us,
)
from repro.sim.conditions import AllOf, AnyOf
from repro.sim.resources import Resource, Store
from repro.sim.server import Server
from repro.sim.trace import TraceRecord, Tracer, TracerOverflowWarning

__all__ = [
    "NS",
    "US",
    "MS",
    "SEC",
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "Resource",
    "Server",
    "SimulationError",
    "SimulationStalled",
    "Store",
    "Timeout",
    "TraceRecord",
    "Tracer",
    "TracerOverflowWarning",
    "VectorEnvironment",
    "ns_to_us",
    "resolve_engine",
    "us",
]
