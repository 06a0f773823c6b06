"""The fault injector: drives campaigns against a booted cluster.

One simulation process per scheduled :class:`FaultEvent` sleeps until the
event's time, applies the fault through the hardware/daemon hooks, emits a
``fault.<kind>.raise`` trace point, sleeps the fault's duration, clears it
(``fault.<kind>.clear``), and accounts everything in a
:class:`~repro.faults.campaign.FaultStats`.

The injector touches only public fault hooks:

* ``Link.set_error_rate`` / ``set_down`` / ``set_up``
* ``Switch.set_port_down`` / ``set_port_up``
* ``LANaiProcessor.stall``
* ``VMMCDaemon.crash`` / ``restart``

so it composes with any workload that runs on the same cluster — the chaos
benchmark runs VMMC traffic while the injector pulls cables out.

Faults compose in those hooks, not in the schedule.  A composed scenario
is one campaign whose events overlap: raises on one target stack
(link down-depth, the error-rate stack, switch per-port down counts,
daemon crash nesting with cold dominating warm), so the target stays
faulted until the *last* clear.
"""

from __future__ import annotations

from typing import Optional

from repro.sim import Environment, Process
from repro.sim.trace import emit
from repro.obs.metrics import count, observe
from repro.faults.campaign import (
    DAEMON_COLD_CRASH,
    DAEMON_CRASH,
    FaultCampaign,
    FaultEvent,
    FaultStats,
    LANAI_STALL,
    LINK_DOWN,
    LINK_ERROR_BURST,
    SWITCH_PORT_DOWN,
)


class PhaseSchedule:
    """Named workload phases that phase-anchored :class:`FaultEvent` s
    wait on.

    The workload calls :meth:`enter` as it crosses each phase boundary;
    the injector parks every ``phase("name") + offset`` event until the
    phase is entered, then counts ``offset`` ns from the *actual* entry
    time.  Entry times are recorded in :attr:`started_at` (the bench
    reports them, so a campaign's placement is auditable after the run).
    """

    def __init__(self, env: Environment):
        self.env = env
        #: phase name → absolute ns at which the workload entered it.
        self.started_at: dict[str, int] = {}
        self._waiters: dict[str, object] = {}

    def enter(self, name: str) -> None:
        """Announce that the workload just entered phase ``name``."""
        if name in self.started_at:
            raise ValueError(f"phase {name!r} entered twice")
        self.started_at[name] = self.env.now
        count(self.env, "faults.phases_entered")
        emit(self.env, "workload.phase", phase=name)
        waiter = self._waiters.pop(name, None)
        if waiter is not None and not waiter.triggered:
            waiter.succeed()

    def _pending(self, name: str):
        """Event that fires when ``name`` is entered (injector-side)."""
        waiter = self._waiters.get(name)
        if waiter is None:
            waiter = self.env.event()
            self._waiters[name] = waiter
        return waiter


class FaultInjector:
    """Applies :class:`FaultCampaign` s to one cluster."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.env: Environment = cluster.env
        #: Stats of the most recently *started* campaign.  With several
        #: campaigns in flight this reference moves — each :meth:`run`
        #: process's value is its own campaign's stats.
        self.stats: Optional[FaultStats] = None

    # -- target resolution ---------------------------------------------------
    def _node(self, name: str):
        return self.cluster.node(name)

    def _switch_port(self, target: str):
        """Resolve a ``switch_port_down`` target to (switch, port).

        The target is ``<switch>:<port>``; the port token may carry a
        ``p`` prefix.  Generated-topology switch names contain colons
        themselves (``ft0:agg[0][1]:p3``, ``mesh0:sw[1][2]:3``), so only
        the *last* colon splits off the port.
        """
        switch_name, sep, port = target.rpartition(":")
        token = port[1:] if port[:1] == "p" else port
        if not sep or not token.isdigit():
            raise ValueError(
                f"bad switch_port_down target {target!r} "
                "(want '<switch>:<port>', e.g. 'sw0:3' or "
                "'ft0:agg[0][1]:p3')")
        if switch_name not in self.cluster.fabric.switches:
            raise KeyError(
                f"no switch {switch_name!r} in fabric (target {target!r}); "
                f"have: {sorted(self.cluster.fabric.switches)}")
        return self.cluster.fabric.switches[switch_name], int(token)

    def _apply(self, event: FaultEvent):
        """Raise one fault (instantaneous state flip).  Returns an opaque
        handle that :meth:`_clear` needs to release exactly this raise
        (e.g. the link error-rate stack token)."""
        fabric = self.cluster.fabric
        if event.kind == LINK_ERROR_BURST:
            return fabric.find_link(event.target).set_error_rate(
                float(event.params["rate"]))
        if event.kind == LINK_DOWN:
            fabric.find_link(event.target).set_down()
        elif event.kind == SWITCH_PORT_DOWN:
            switch, port = self._switch_port(event.target)
            switch.set_port_down(port)
        elif event.kind == LANAI_STALL:
            self._node(event.target).nic.processor.stall(event.duration_ns)
        elif event.kind in (DAEMON_CRASH, DAEMON_COLD_CRASH):
            self._node(event.target).daemon.crash()
        else:  # pragma: no cover - FaultEvent validates kinds
            raise ValueError(f"unknown fault kind {event.kind!r}")
        return None

    def _clear(self, event: FaultEvent, handle=None) -> None:
        """Clear one fault (inverse state flip)."""
        fabric = self.cluster.fabric
        if event.kind == LINK_ERROR_BURST:
            fabric.find_link(event.target).clear_error_rate(handle)
        elif event.kind == LINK_DOWN:
            fabric.find_link(event.target).set_up()
        elif event.kind == SWITCH_PORT_DOWN:
            switch, port = self._switch_port(event.target)
            switch.set_port_up(port)
        elif event.kind == LANAI_STALL:
            pass  # the stall expires on its own inside the processor
        elif event.kind == DAEMON_CRASH:
            self._node(event.target).daemon.restart()
        elif event.kind == DAEMON_COLD_CRASH:
            self._node(event.target).daemon.restart(cold=True)

    # -- execution ------------------------------------------------------------
    def run(self, campaign: FaultCampaign,
            phases: Optional[PhaseSchedule] = None) -> Process:
        """Process: drive the whole campaign; value is its
        :class:`FaultStats`.  One child process per event, so overlapping
        faults on different targets proceed independently.

        Phase-anchored events require ``phases`` — the
        :class:`PhaseSchedule` the workload announces its phases on; a
        campaign with anchored events but no schedule is refused up front
        (the event would otherwise wait forever).

        The campaign's stats are :attr:`stats` from the moment this
        returns (until the next :meth:`run`); at campaign end they are
        :meth:`~FaultStats.finalize` d so permanent faults are charged up
        to the campaign's completion time (re-finalize with a later clock
        to extend the charge to a longer measurement window)."""
        anchored = [e for e in campaign if e.phase is not None]
        if anchored and phases is None:
            raise ValueError(
                f"campaign {campaign.name!r} has phase-anchored events "
                f"({sorted({e.phase for e in anchored})}) but no "
                f"PhaseSchedule was given")
        stats = FaultStats(campaign=campaign.name, seed=campaign.seed)
        self.stats = stats
        count(self.env, "faults.campaigns")

        def drive_one(event: FaultEvent):
            if event.phase is not None:
                if event.phase not in phases.started_at:
                    yield phases._pending(event.phase)
                delay = (phases.started_at[event.phase] + event.at_ns
                         - self.env.now)
            else:
                delay = event.at_ns - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            raised_at = self.env.now
            handle = self._apply(event)
            stats.record_raise(event, raised_at)
            count(self.env, "faults.raised", kind=event.kind)
            emit(self.env, f"fault.{event.kind}.raise",
                 target=event.target, duration_ns=event.duration_ns,
                 campaign=campaign.name, **event.params)
            if event.duration_ns is None and event.kind != LANAI_STALL:
                return  # permanent fault — never cleared
            yield self.env.timeout(event.duration_ns)
            self._clear(event, handle)
            stats.record_clear(event, raised_at, self.env.now)
            count(self.env, "faults.cleared", kind=event.kind)
            observe(self.env, "faults.duration_ns",
                    self.env.now - raised_at, kind=event.kind)
            emit(self.env, f"fault.{event.kind}.clear",
                 target=event.target, campaign=campaign.name)

        def drive_all():
            children = [
                self.env.process(drive_one(event),
                                 name=f"fault.{event.kind}.{event.target}")
                for event in campaign
            ]
            for child in children:
                yield child
            stats.finalize(self.env.now)
            return stats

        return self.env.process(drive_all(),
                                name=f"faults.campaign.{campaign.name}")
