"""Multi-campaign orchestration: concurrent fault schedules, one cluster.

A :class:`CampaignSet` bundles several seeded :class:`FaultCampaign` s to
be driven **concurrently** against one cluster
(:meth:`repro.faults.injector.FaultInjector.run_all`).  Most overlapping
faults compose in the hardware hooks themselves — link down-depth
counters, per-link error-rate stacks, per-switch-port down counts, daemon
crash nesting with cold-dominates-warm — so two campaigns raising on the
same target simply stack, and the target stays faulted until the *last*
clear.

What cannot compose is a **semantically incompatible** pair of raises:
a *warm* (``daemon_crash``) and a *cold* (``daemon_cold_crash``) crash
overlapping on the same node ask for two different recovery protocols.
The **conflict guard** detects those statically at :meth:`resolve` time
and serializes them deterministically by ``(campaign, seed)`` priority
order (campaigns are kept sorted by ``(name, seed)``; the
earlier-ordered campaign wins): the losing event's ``at_ns`` is pushed
to 1 ns past the winning event's clear, repeatedly until no
incompatible overlap remains.  The shift is recorded as a
:class:`Conflict` so reports can show exactly what moved where.

A conflict with a **permanent** incompatible crash (``duration_ns=None``)
can never be serialized — the loser would wait forever — so it is always
rejected: :class:`CampaignConflictError` lists every such conflict in a
deterministic order.

Everything here is pure schedule arithmetic: same campaigns in, same
plan out, byte for byte, which is what keeps multi-campaign chaos runs
reproducible.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.faults.campaign import (
    DAEMON_COLD_CRASH,
    DAEMON_CRASH,
    FaultCampaign,
    FaultEvent,
)

#: Kinds whose overlapping raises on one target can be incompatible.
_CRASH_KINDS = frozenset({DAEMON_CRASH, DAEMON_COLD_CRASH})


class CampaignConflictError(ValueError):
    """Semantically incompatible concurrent raises that cannot be
    serialized: nothing waits out a permanent fault."""

    def __init__(self, conflicts: list["Conflict"]):
        self.conflicts = conflicts
        lines = "; ".join(c.describe() for c in conflicts)
        super().__init__(f"incompatible concurrent faults: {lines}")


@dataclass(frozen=True)
class Conflict:
    """One incompatible overlap and how it was (or was not) resolved."""

    target: str
    #: The losing (lower-priority) side.
    campaign: str
    kind: str
    at_ns: int
    #: The winning (higher-priority) side it collided with.
    blocking_campaign: str
    blocking_kind: str
    blocking_at_ns: int
    #: ``serialized`` (shifted to ``resolved_at_ns``) or ``rejected``.
    action: str
    resolved_at_ns: Optional[int] = None

    def describe(self) -> str:
        where = (f"-> {self.resolved_at_ns}"
                 if self.action == "serialized" else "rejected")
        return (f"{self.campaign}/{self.kind}@{self.at_ns} on "
                f"{self.target} vs {self.blocking_campaign}/"
                f"{self.blocking_kind}@{self.blocking_at_ns} [{where}]")

    def as_dict(self) -> dict:
        return {
            "target": self.target,
            "campaign": self.campaign,
            "kind": self.kind,
            "at_ns": self.at_ns,
            "blocking_campaign": self.blocking_campaign,
            "blocking_kind": self.blocking_kind,
            "blocking_at_ns": self.blocking_at_ns,
            "action": self.action,
            "resolved_at_ns": self.resolved_at_ns,
        }


def _overlaps(a_start: int, a_end: Optional[int],
              b_start: int, b_end: Optional[int]) -> bool:
    """Half-open interval overlap; ``None`` end means permanent."""
    after_a = a_end is not None and b_start >= a_end
    after_b = b_end is not None and a_start >= b_end
    return not (after_a or after_b)


@dataclass(frozen=True)
class CampaignSet:
    """A bundle of uniquely-named campaigns to run concurrently.

    Campaigns are canonicalised to ``(name, seed)`` order on
    construction; that order is the conflict-guard **priority** (earlier
    wins) — see the module docstring.
    """

    campaigns: tuple[FaultCampaign, ...]

    def __post_init__(self) -> None:
        if not self.campaigns:
            raise ValueError("empty campaign set")
        ordered = tuple(sorted(self.campaigns,
                               key=lambda c: (c.name, c.seed)))
        names = [c.name for c in ordered]
        if len(set(names)) != len(names):
            raise ValueError(
                f"campaign names must be unique, got {names}")
        object.__setattr__(self, "campaigns", ordered)

    @classmethod
    def of(cls, campaigns: Iterable[FaultCampaign]) -> "CampaignSet":
        return cls(campaigns=tuple(campaigns))

    def __len__(self) -> int:
        return len(self.campaigns)

    def __iter__(self):
        return iter(self.campaigns)

    # -- conflict guard -------------------------------------------------------
    def resolve(self) -> tuple[tuple[FaultCampaign, ...], list[Conflict]]:
        """Deterministic conflict resolution.

        Returns ``(plan, conflicts)`` where ``plan`` is the campaigns
        with serialized events shifted (everything else untouched) and
        ``conflicts`` records each decision.  Raises
        :class:`CampaignConflictError` when serialization is impossible
        (a permanent incompatible overlap).
        """
        # Crash-family events in priority order: (campaign index, event
        # sort key).  All other kinds compose in the hardware hooks.
        queue: list[tuple[int, FaultCampaign, FaultEvent]] = []
        for ci, campaign in enumerate(self.campaigns):
            for event in campaign:
                if event.kind in _CRASH_KINDS:
                    queue.append((ci, campaign, event))
        queue.sort(key=lambda item: (item[0], item[2].sort_key))

        #: target → placed [(start, end|None, kind, campaign)] windows.
        placed: dict[str, list[tuple[int, Optional[int], str, str]]] = {}
        conflicts: list[Conflict] = []
        rejected: list[Conflict] = []
        #: (campaign name, event sort_key) → shifted at_ns.
        moved: dict[tuple[str, tuple], int] = {}

        for _, campaign, event in queue:
            start = event.at_ns
            end = (None if event.duration_ns is None
                   else start + event.duration_ns)
            first_block: Optional[tuple[int, Optional[int], str, str]] = None
            reject: Optional[Conflict] = None
            while True:
                blocker = next(
                    (w for w in placed.get(event.target, [])
                     if w[2] != event.kind
                     and _overlaps(w[0], w[1], start, end)), None)
                if blocker is None:
                    break
                first_block = first_block or blocker
                if blocker[1] is None or event.duration_ns is None:
                    # Permanent incompatible overlap: nothing to wait
                    # for (or the loser itself never clears) — reject.
                    reject = Conflict(
                        target=event.target, campaign=campaign.name,
                        kind=event.kind, at_ns=event.at_ns,
                        blocking_campaign=blocker[3],
                        blocking_kind=blocker[2],
                        blocking_at_ns=blocker[0], action="rejected")
                    break
                start = blocker[1] + 1
                end = start + event.duration_ns
            if reject is not None:
                rejected.append(reject)
                continue
            placed.setdefault(event.target, []).append(
                (start, end, event.kind, campaign.name))
            if start != event.at_ns:
                assert first_block is not None
                conflicts.append(Conflict(
                    target=event.target, campaign=campaign.name,
                    kind=event.kind, at_ns=event.at_ns,
                    blocking_campaign=first_block[3],
                    blocking_kind=first_block[2],
                    blocking_at_ns=first_block[0],
                    action="serialized", resolved_at_ns=start))
                moved[(campaign.name, event.sort_key)] = start

        if rejected:
            raise CampaignConflictError(rejected)

        if not moved:
            return self.campaigns, conflicts
        plan = []
        for campaign in self.campaigns:
            events = tuple(
                dataclasses.replace(
                    e, at_ns=moved[(campaign.name, e.sort_key)])
                if (campaign.name, e.sort_key) in moved else e
                for e in campaign)
            plan.append(FaultCampaign(name=campaign.name, events=events,
                                      seed=campaign.seed))
        return tuple(plan), conflicts
