"""The fault injector: drives campaigns against a booted cluster.

A campaign runs on its own clock, which starts when
:meth:`FaultInjector.run` is called.  One simulation process per
scheduled :class:`FaultEvent` sleeps the event's ``at_ns`` offset,
applies the fault through the hardware/daemon hooks, emits a
``fault.<kind>.raise`` trace point, sleeps the fault's duration, clears
it (``fault.<kind>.clear``), and accounts everything in a
:class:`~repro.faults.campaign.FaultStats`.

The injector touches only public fault hooks:

* ``Link.set_error_rate`` / ``clear_error_rate`` / ``set_down`` /
  ``set_up``
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

from repro.sim import Environment, Process
from repro.sim.trace import emit
from repro.obs.metrics import count, observe
from repro.faults.campaign import (
    DAEMON_COLD_CRASH,
    FaultCampaign,
    FaultEvent,
    FaultStats,
    LANAI_STALL,
    LINK_DOWN,
    LINK_ERROR_BURST,
    SWITCH_PORT_DOWN,
)


class FaultInjector:
    """Applies :class:`FaultCampaign` s to one cluster."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.env: Environment = cluster.env

    # -- target resolution ---------------------------------------------------
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

    def _resolve(self, event: FaultEvent):
        """The object ``event`` acts on: a link, a (switch, port) pair or
        a node.  Raises ``KeyError``/``ValueError`` for a bad target."""
        if event.kind in (LINK_ERROR_BURST, LINK_DOWN):
            return self.cluster.fabric.find_link(event.target)
        if event.kind == SWITCH_PORT_DOWN:
            return self._switch_port(event.target)
        return self.cluster.node(event.target)

    def _apply(self, event: FaultEvent, victim):
        """Raise one fault on the resolved ``victim`` (instantaneous state
        flip).  Returns an opaque handle that :meth:`_clear` needs to
        release exactly this raise (e.g. the link error-rate stack
        token)."""
        if event.kind == LINK_ERROR_BURST:
            return victim.set_error_rate(float(event.params["rate"]))
        if event.kind == LINK_DOWN:
            victim.set_down()
        elif event.kind == SWITCH_PORT_DOWN:
            switch, port = victim
            switch.set_port_down(port)
        elif event.kind == LANAI_STALL:
            victim.nic.processor.stall(event.duration_ns)
        else:  # DAEMON_CRASH, DAEMON_COLD_CRASH
            victim.daemon.crash()
        return None

    def _clear(self, event: FaultEvent, victim, handle) -> None:
        """Clear one fault (inverse state flip)."""
        if event.kind == LINK_ERROR_BURST:
            victim.clear_error_rate(handle)
        elif event.kind == LINK_DOWN:
            victim.set_up()
        elif event.kind == SWITCH_PORT_DOWN:
            switch, port = victim
            switch.set_port_up(port)
        elif event.kind == LANAI_STALL:
            pass  # the stall expires on its own inside the processor
        else:
            victim.daemon.restart(cold=event.kind == DAEMON_COLD_CRASH)

    # -- execution ------------------------------------------------------------
    def run(self, campaign: FaultCampaign) -> Process:
        """Process: drive the whole campaign; value is its
        :class:`FaultStats`.  The campaign's clock starts now: each event
        fires ``at_ns`` after this call.  One child process per event, so
        overlapping faults on different targets proceed independently.

        Every event's target is resolved here, before anything is
        scheduled, so a bad target raises at the call.  At campaign end
        the stats are :meth:`~FaultStats.finalize` d, which charges
        permanent faults up to the campaign's completion time."""
        victims = [self._resolve(event) for event in campaign]
        stats = FaultStats(campaign=campaign.name, seed=campaign.seed)
        count(self.env, "faults.campaigns")

        def drive_one(event: FaultEvent, victim):
            if event.at_ns:  # offset 0 raises at once, scheduling nothing
                yield self.env.timeout(event.at_ns)
            raised_at = self.env.now
            handle = self._apply(event, victim)
            stats.record_raise(event, raised_at)
            count(self.env, "faults.raised", kind=event.kind)
            emit(self.env, f"fault.{event.kind}.raise",
                 target=event.target, duration_ns=event.duration_ns,
                 campaign=campaign.name, **event.params)
            if event.duration_ns is None and event.kind != LANAI_STALL:
                return  # permanent fault — never cleared
            yield self.env.timeout(event.duration_ns)
            self._clear(event, victim, handle)
            stats.record_clear(event, raised_at, self.env.now)
            count(self.env, "faults.cleared", kind=event.kind)
            observe(self.env, "faults.duration_ns",
                    self.env.now - raised_at, kind=event.kind)
            emit(self.env, f"fault.{event.kind}.clear",
                 target=event.target, campaign=campaign.name)

        def drive_all():
            children = [
                self.env.process(drive_one(event, victim),
                                 name=f"fault.{event.kind}.{event.target}")
                for event, victim in zip(campaign, victims)
            ]
            for child in children:
                yield child
            stats.finalize(self.env.now)
            return stats

        return self.env.process(drive_all(),
                                name=f"faults.campaign.{campaign.name}")
