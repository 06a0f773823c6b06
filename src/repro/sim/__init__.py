"""Discrete-event simulation engine.

This package is the foundation of the whole reproduction: every piece of
simulated hardware (buses, DMA engines, Myrinet links, the LANai processor)
and software (the VMMC LCP, drivers, daemons, user processes) runs as a
generator-based :class:`~repro.sim.core.Process` over a shared
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
* :class:`Resource`, :class:`PriorityResource` — capacity-limited resources.
* :class:`Store` — FIFO object queue (used for DMA request queues, NIC
  packet queues, daemon mailboxes...).
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
from repro.sim.resources import PriorityResource, Resource, Store
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
    "PriorityResource",
    "Process",
    "Resource",
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
