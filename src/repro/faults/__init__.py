"""Fault-injection campaigns (extension beyond the paper).

The paper's VMMC assumes a reliable network: CRC errors are "detected,
counted, dropped — never recovered" (section 4.2), and daemons/links are
assumed to stay up.  This package manufactures the opposite world — a
deterministic chaos harness over the simulated cluster:

* :class:`FaultEvent` / :class:`FaultCampaign` — a pure-data schedule of
  timed faults: per-link bit-error bursts, link/switch-port down/up,
  LANai stalls, daemon crash+restart.
* :class:`FaultInjector` — runs a campaign as simulation processes against
  a booted :class:`~repro.cluster.cluster.Cluster`, emitting
  ``fault.<kind>.raise`` / ``fault.<kind>.clear`` trace points.  Event
  times are offsets from ``run()``: a workload starts its campaign the
  moment it wants the campaign's clock to start.  A
  composed fault is one campaign whose events overlap: raises on one
  target stack in the hardware and daemon hooks, and the target stays
  faulted until the last clear.
* :class:`FaultStats` — aggregate counters queryable after the run; equal
  across reruns of the same (campaign, workload) pair, which is what makes
  the chaos experiments debuggable.

Used by the ``chaos`` and ``lossy-link`` campaigns to prove that
:mod:`repro.vmmc.reliable` delivers byte-exact payloads where base VMMC
silently drops.
"""

from repro.faults.campaign import (
    DAEMON_COLD_CRASH,
    DAEMON_CRASH,
    FAULT_KINDS,
    FaultCampaign,
    FaultEvent,
    FaultStats,
    LANAI_STALL,
    LINK_DOWN,
    LINK_ERROR_BURST,
    SWITCH_PORT_DOWN,
)
from repro.faults.injector import FaultInjector

__all__ = [
    "DAEMON_COLD_CRASH",
    "DAEMON_CRASH",
    "FAULT_KINDS",
    "FaultCampaign",
    "FaultEvent",
    "FaultInjector",
    "FaultStats",
    "LANAI_STALL",
    "LINK_DOWN",
    "LINK_ERROR_BURST",
    "SWITCH_PORT_DOWN",
]
