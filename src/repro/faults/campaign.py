"""Deterministic fault campaigns: *what* goes wrong and *when*.

A :class:`FaultCampaign` is a pure-data schedule of timed
:class:`FaultEvent` s — raise a bit-error burst on a link, take a cable or
a switch port down, stall a LANai, crash a node's daemon — that the
:class:`~repro.faults.injector.FaultInjector` drives as simulation
processes.  Campaigns are deterministic by construction: the schedule is a
plain list, and the randomised builders draw every choice from one seeded
``numpy`` generator, so the same ``(topology, seed)`` pair always yields
the same fault sequence, packet for packet.

The paper's VMMC explicitly assumes a reliable network (CRC errors are
detected, counted and dropped — section 4.2); this module manufactures the
unreliable networks against which :mod:`repro.vmmc.reliable` earns its
keep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

import numpy as np

#: The fault kinds the injector understands.
LINK_ERROR_BURST = "link_error_burst"
LINK_DOWN = "link_down"
SWITCH_PORT_DOWN = "switch_port_down"
LANAI_STALL = "lanai_stall"
DAEMON_CRASH = "daemon_crash"
DAEMON_COLD_CRASH = "daemon_cold_crash"

FAULT_KINDS = frozenset({
    LINK_ERROR_BURST,
    LINK_DOWN,
    SWITCH_PORT_DOWN,
    LANAI_STALL,
    DAEMON_CRASH,
    DAEMON_COLD_CRASH,
})


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``target`` names the victim:

    =====================  ==================================================
    kind                   target
    =====================  ==================================================
    ``link_error_burst``   link name (``"node0->sw0"``, or a
                           generated-topology link such as
                           ``"ft0:edge[0][0]->ft0:agg[0][1]"``);
                           ``params["rate"]`` is the per-packet corruption
                           probability while the burst is active
    ``link_down``          link name (same forms)
    ``switch_port_down``   ``"<switch>:<port>"`` — the port may carry a
                           ``p`` prefix, and the switch may be a
                           generated-topology name with its own colons:
                           ``"sw0:3"``, ``"ft0:agg[0][1]:p3"``,
                           ``"mesh0:sw[1][2]:0"``
    ``lanai_stall``        node name (``"node1"``); the LANai freezes for
                           ``duration_ns``
    ``daemon_crash``       node name; the daemon is dead for ``duration_ns``
                           then restarted (warm: NIC state survives)
    ``daemon_cold_crash``  node name; the daemon is dead for ``duration_ns``
                           then *cold*-restarted: the export table and the
                           NIC page-table state are lost, the epoch bumps,
                           and the invalidation/recovery protocol runs
                           (:meth:`repro.vmmc.daemon.VMMCDaemon.restart`)
    =====================  ==================================================

    ``duration_ns`` of ``None`` means the fault is raised and never
    cleared (a permanent failure for the rest of the run).  For
    ``lanai_stall`` the duration *is* the fault, so it must be given.

    ``at_ns`` is an offset from the moment the campaign is started
    (:meth:`~repro.faults.injector.FaultInjector.run`), never an absolute
    clock value, so a campaign means the same thing whenever the workload
    starts it.
    """

    at_ns: int
    kind: str
    target: str
    duration_ns: Optional[int] = None
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} "
                             f"(must be one of {sorted(FAULT_KINDS)})")
        if self.at_ns < 0:
            raise ValueError(f"fault scheduled at negative time {self.at_ns}")
        if self.duration_ns is not None and self.duration_ns < 0:
            raise ValueError(f"negative fault duration {self.duration_ns}")
        if self.kind == LANAI_STALL and self.duration_ns is None:
            raise ValueError("lanai_stall requires a duration")
        if self.kind == LINK_ERROR_BURST:
            if "rate" not in self.params:
                raise ValueError("link_error_burst requires params['rate']")
            if not 0.0 <= self.params["rate"] <= 1.0:
                raise ValueError(
                    f"error rate {self.params['rate']} outside [0, 1]")

    @property
    def sort_key(self) -> tuple:
        """A **total** ordering key: ``(at_ns, kind, target)`` ties are
        broken by duration (permanent faults last) and a canonical params
        repr, so same-seed campaigns sort bit-identically regardless of
        the order the events were constructed in."""
        return (self.at_ns, self.kind, self.target,
                self.duration_ns is None, self.duration_ns or 0,
                repr(sorted(self.params.items(), key=lambda kv: kv[0])))


@dataclass(frozen=True)
class FaultCampaign:
    """A named, seeded schedule of faults."""

    name: str
    events: tuple[FaultEvent, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "events",
                           tuple(sorted(self.events,
                                        key=lambda e: e.sort_key)))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    # -- builders -------------------------------------------------------------
    @classmethod
    def of(cls, name: str, events: Iterable[FaultEvent],
           seed: int = 0) -> "FaultCampaign":
        return cls(name=name, events=tuple(events), seed=seed)

    @classmethod
    def random_link_bursts(cls, link_names: list[str], *, seed: int,
                           nbursts: int = 4, rate: float = 0.25,
                           start_ns: int = 50_000, window_ns: int = 2_000_000,
                           burst_ns: int = 100_000,
                           name: str = "random_link_bursts"
                           ) -> "FaultCampaign":
        """Clustered bit-error bursts on random links (section 4.2's
        "errors occur in bursts when a hardware component is about to
        fail"), deterministically drawn from ``seed``."""
        if not link_names:
            raise ValueError("no links to burst")
        rng = np.random.default_rng(seed)
        events = []
        for _ in range(nbursts):
            link = link_names[int(rng.integers(0, len(link_names)))]
            at = start_ns + int(rng.integers(0, max(1, window_ns)))
            events.append(FaultEvent(at_ns=at, kind=LINK_ERROR_BURST,
                                     target=link, duration_ns=burst_ns,
                                     params={"rate": rate}))
        return cls(name=name, events=tuple(events), seed=seed)


@dataclass
class FaultStats:
    """Aggregate counters filled in by the injector, queryable after a run.

    Everything here is derived from the (deterministic) campaign schedule
    and the simulation clock, so two runs of the same campaign against the
    same workload produce identical stats — the acceptance test for
    reproducible chaos.
    """

    campaign: str = ""
    seed: int = 0
    faults_raised: int = 0
    faults_cleared: int = 0
    #: kind → number of raises.
    by_kind: dict[str, int] = field(default_factory=dict)
    #: target → total ns spent faulted, summed over raises: each fault is
    #: charged its own span, so two overlapping faults on one target both
    #: count the overlap.  Cleared faults are charged their
    #: raise-to-clear span; **permanent** faults (``duration_ns=None``)
    #: are charged ``now - raised_at`` by :meth:`finalize`, which the
    #: injector calls once, when the campaign completes.
    fault_ns_by_target: dict[str, int] = field(default_factory=dict)
    #: target → list of (raised_at, charged_until) fault intervals, one
    #: per raise, in clear order; overlapping faults on one target show
    #: as overlapping intervals.  Open (permanent) faults appear after
    #: finalize().
    intervals_by_target: dict[str, list[tuple[int, int]]] = \
        field(default_factory=dict)
    #: (kind, target, at_ns) log of raises, in raise order.
    log: list[tuple[str, str, int]] = field(default_factory=list)
    #: Clock value of finalize() (None: not finalized yet).
    finalized_at: Optional[int] = None
    #: Still-open raises as (kind, target, raised_at) (internal
    #: bookkeeping).
    _open: list[tuple[str, str, int]] = field(default_factory=list,
                                              repr=False, compare=False)

    def record_raise(self, event: FaultEvent, now: int) -> None:
        self.faults_raised += 1
        self.by_kind[event.kind] = self.by_kind.get(event.kind, 0) + 1
        self.log.append((event.kind, event.target, now))
        self._open.append((event.kind, event.target, now))

    def _charge(self, target: str, raised_at: int, until: int) -> None:
        """Charge ``target`` the fault interval ``(raised_at, until)``."""
        self.fault_ns_by_target[target] = \
            self.fault_ns_by_target.get(target, 0) + (until - raised_at)
        self.intervals_by_target.setdefault(target, []).append(
            (raised_at, until))

    def record_clear(self, event: FaultEvent, raised_at: int,
                     now: int) -> None:
        self.faults_cleared += 1
        self._open.remove((event.kind, event.target, raised_at))
        self._charge(event.target, raised_at, now)

    def finalize(self, now: int) -> "FaultStats":
        """Charge every still-open (permanent) fault up to ``now`` —
        without this, permanent faults would never appear in
        ``fault_ns_by_target``."""
        for _kind, target, raised_at in self._open:
            self._charge(target, raised_at, now)
        self.finalized_at = now
        return self

    @property
    def open_faults(self) -> int:
        """Faults raised and never cleared (permanent, or still active)."""
        return len(self._open)

    def as_dict(self) -> dict[str, Any]:
        """Canonical, comparable form (determinism assertions)."""
        return {
            "campaign": self.campaign,
            "seed": self.seed,
            "faults_raised": self.faults_raised,
            "faults_cleared": self.faults_cleared,
            "open_faults": self.open_faults,
            "finalized_at": self.finalized_at,
            "by_kind": dict(sorted(self.by_kind.items())),
            "fault_ns_by_target":
                dict(sorted(self.fault_ns_by_target.items())),
            "intervals_by_target":
                {target: list(intervals) for target, intervals
                 in sorted(self.intervals_by_target.items())},
            "log": list(self.log),
        }
