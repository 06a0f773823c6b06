"""LANai processor: a 33 MHz control CPU whose time we account in cycles.

Every step of the LANai Control Program charges cycles here.  The paper's
section-6 comparison hinges on these costs: "virtual-to-physical
translation and header preparation is done by the LANai in software",
making Myrinet send initiation at least twice SHRIMP's 2–3 µs.

The processor is *single threaded* — the LCP is one big loop — which is
modelled naturally by running the whole LCP as a single simulation process
that yields one timer per charge: :meth:`cycles`, or a ``Timeout`` of what
:meth:`charge` returns (the same duration, one call fewer; the VMMC LCP's
form).  The internal bus runs at 2× the CPU clock, letting the DMA engines
move data concurrently with the processor; hence DMA engines do not
contend with charged time.
"""

from __future__ import annotations

from repro.sim import Environment, Timeout
from repro.obs.metrics import count

#: 33 MHz → one cycle ≈ 30 ns.
CYCLE_NS = 30


class LANaiProcessor:
    """Cycle-time accounting for the LANai control processor."""

    def __init__(self, env: Environment, cycle_ns: int = CYCLE_NS):
        self.env = env
        self.cycle_ns = cycle_ns
        self.cycles_charged = 0
        #: Fault hook: absolute sim time until which the processor is
        #: frozen (clock-stop / firmware-hang injection).
        self._stall_until = 0
        self.stall_ns_served = 0

    def stall(self, duration_ns: int) -> None:
        """Freeze the processor for ``duration_ns`` (fault injection).

        The next charge (:meth:`charge` or :meth:`cycles`) is delayed
        until the stall window has passed — the whole LCP pauses, since it
        is one process whose every step funnels through this accounting.
        Overlapping stalls extend, never shorten.  A stall that starts
        inside a charge is served by the next one; a charge the LCP fuses
        from two steps nothing observes apart is one charge here.
        """
        if duration_ns < 0:
            raise ValueError("negative stall duration")
        count(self.env, "lanai.stalls")
        count(self.env, "lanai.stall_ns", duration_ns)
        self._stall_until = max(self._stall_until,
                                self.env.now + duration_ns)

    def charge(self, n: int) -> int:
        """Charge ``n`` processor cycles now and return how long they take
        in ns, any pending injected stall included.  Schedules nothing: a
        caller that overlaps the charge with other work waits for what is
        left of it once that work is done, and a firmware step waits on a
        ``Timeout`` of it.  The only copy of the stall arithmetic."""
        self.cycles_charged += n
        duration = n * self.cycle_ns
        extra = self._stall_until - self.env._now
        if extra > 0:
            self.stall_ns_served += extra
            duration += extra
        return duration

    def cycles(self, n: int):
        """Timeout event worth ``n`` processor cycles (plus any pending
        injected stall time)."""
        return Timeout(self.env, self.charge(n))

    def work_ns(self, ns: int):
        """Timeout event for ``ns`` nanoseconds of firmware work, rounded
        up to whole cycles."""
        n = max(1, (ns + self.cycle_ns - 1) // self.cycle_ns)
        return self.cycles(n)

    @property
    def busy_time_ns(self) -> int:
        """Total firmware time charged so far."""
        return self.cycles_charged * self.cycle_ns
