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

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Union

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
class PhaseAnchor:
    """A point in time relative to a *named workload phase* instead of the
    absolute clock: ``phase("warmup") + 10_000`` is 10 µs after the
    workload announces the start of its ``warmup`` phase.

    Campaigns authored against phases survive workload-timing changes
    (cluster boot got slower, a barrier moved) that would silently shift
    absolute-ns campaigns off their intended target — the carry-over the
    DSM bench needed, where "crash the daemon mid-write-storm" is a
    statement about the ``mixed`` phase, not about nanosecond 2_400_000.
    """

    phase: str
    offset_ns: int = 0

    def __post_init__(self) -> None:
        if not self.phase:
            raise ValueError("phase anchor needs a phase name")
        if self.offset_ns < 0:
            raise ValueError(
                f"negative offset {self.offset_ns} from phase "
                f"{self.phase!r}")

    def __add__(self, extra_ns: int) -> "PhaseAnchor":
        return PhaseAnchor(self.phase, self.offset_ns + int(extra_ns))

    __radd__ = __add__


def phase(name: str, offset_ns: int = 0) -> PhaseAnchor:
    """Author a :class:`FaultEvent` time as ``phase("mixed") + 50_000``."""
    return PhaseAnchor(name, offset_ns)


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

    ``at_ns`` may be a :class:`PhaseAnchor` (``phase("warmup") + 10_000``)
    instead of an absolute time: the anchor's phase name lands in
    :attr:`phase` and its offset in :attr:`at_ns`, and the injector fires
    the event ``at_ns`` after the workload's
    :class:`~repro.faults.injector.PhaseSchedule` enters that phase.
    Phase-relative events are immune to :meth:`FaultCampaign.shifted`
    (they are already relative to a moving origin).
    """

    at_ns: Union[int, "PhaseAnchor"]
    kind: str
    target: str
    duration_ns: Optional[int] = None
    params: dict[str, Any] = field(default_factory=dict)
    #: Workload phase this event is anchored to (``None`` = absolute ns).
    phase: Optional[str] = None

    def __post_init__(self) -> None:
        if isinstance(self.at_ns, PhaseAnchor):
            object.__setattr__(self, "phase", self.at_ns.phase)
            object.__setattr__(self, "at_ns", self.at_ns.offset_ns)
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} "
                             f"(must be one of {sorted(FAULT_KINDS)})")
        if self.at_ns < 0:
            raise ValueError(f"fault scheduled at negative time {self.at_ns}")
        if self.duration_ns is not None and self.duration_ns < 0:
            raise ValueError(f"negative fault duration {self.duration_ns}")
        if self.kind == LANAI_STALL and self.duration_ns is None:
            raise ValueError("lanai_stall requires a duration")
        if self.kind == LINK_ERROR_BURST and "rate" not in self.params:
            raise ValueError("link_error_burst requires params['rate']")

    @property
    def sort_key(self) -> tuple:
        """A **total** ordering key: ``(phase, at_ns, kind, target)`` ties
        are broken by duration (permanent faults last) and a canonical
        params repr, so same-seed campaigns sort bit-identically
        regardless of the order the events were constructed in.
        Absolute events (empty phase) sort before phase-anchored ones."""
        return (self.phase or "", self.at_ns, self.kind, self.target,
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

    def shifted(self, offset_ns: int) -> "FaultCampaign":
        """A copy with every event delayed by ``offset_ns`` — campaigns
        are authored relative to t=0 and shifted to the workload's start
        time at run time (events scheduled in the past would otherwise
        all fire immediately, collapsing their relative timing).

        Phase-anchored events are left untouched: their origin is the
        phase start, which moves with the workload by construction."""
        if offset_ns == 0:
            return self
        return FaultCampaign(
            name=self.name,
            events=tuple(e if e.phase is not None
                         else dataclasses.replace(e, at_ns=e.at_ns
                                                  + offset_ns)
                         for e in self.events),
            seed=self.seed)

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
    #: are charged ``now - raised_at`` when :meth:`finalize` is called at
    #: run end (the injector finalizes at campaign completion; callers may
    #: re-finalize later to extend the charge to the true end of the
    #: measurement window).
    fault_ns_by_target: dict[str, int] = field(default_factory=dict)
    #: target → list of (raised_at, charged_until) fault intervals, one
    #: per raise, in clear order; overlapping faults on one target show
    #: as overlapping intervals.  Open (permanent) faults appear after
    #: finalize().
    intervals_by_target: dict[str, list[tuple[int, int]]] = \
        field(default_factory=dict)
    #: (kind, target, at_ns) log of raises, in raise order.
    log: list[tuple[str, str, int]] = field(default_factory=list)
    #: Clock value of the last finalize() (None: never finalized).
    finalized_at: Optional[int] = None
    #: Still-open raises: mutable [kind, target, raised_at,
    #: charged_interval-or-None] entries (internal bookkeeping).
    _open: list[list] = field(default_factory=list, repr=False,
                              compare=False)

    def record_raise(self, event: FaultEvent, now: int) -> None:
        self.faults_raised += 1
        self.by_kind[event.kind] = self.by_kind.get(event.kind, 0) + 1
        self.log.append((event.kind, event.target, now))
        self._open.append([event.kind, event.target, now, None])

    def _pop_open(self, kind: str, target: str, raised_at: int):
        for i, entry in enumerate(self._open):
            if entry[0] == kind and entry[1] == target \
                    and entry[2] == raised_at:
                return self._open.pop(i)
        return None

    def _charge(self, target: str, raised_at: int, until: int,
                prev: Optional[tuple[int, int]]) -> tuple[int, int]:
        """Extend ``target``'s fault interval ``(raised_at, …)`` to
        ``until``, charging only the not-yet-charged span."""
        already = (prev[1] - prev[0]) if prev else 0
        self.fault_ns_by_target[target] = \
            self.fault_ns_by_target.get(target, 0) \
            + (until - raised_at) - already
        intervals = self.intervals_by_target.setdefault(target, [])
        interval = (raised_at, until)
        if prev is None:
            intervals.append(interval)
        else:
            intervals[intervals.index(prev)] = interval
        return interval

    def record_clear(self, event: FaultEvent, raised_at: int,
                     now: int) -> None:
        self.faults_cleared += 1
        entry = self._pop_open(event.kind, event.target, raised_at)
        self._charge(event.target, raised_at, now,
                     entry[3] if entry else None)

    def finalize(self, now: int) -> "FaultStats":
        """Charge every still-open (permanent) fault up to ``now`` —
        without this, permanent faults would never appear in
        ``fault_ns_by_target``.  Idempotent and extendable: calling again
        with a later clock re-charges only the new span."""
        for entry in self._open:
            kind, target, raised_at, prev = entry
            until = max(now, prev[1] if prev else raised_at)
            entry[3] = self._charge(target, raised_at, until, prev)
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
