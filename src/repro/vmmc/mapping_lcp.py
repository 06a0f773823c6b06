"""Boot-time network mapping (section 4.3).

"When the system boots, each VMMC daemon loads a special LANai control
program ... that automatically maps the network ... After each node has
mapped the entire network, each VMMC daemon extracts the routing
information, and then replaces the mapping LCP with an LCP that implements
VMMC.  When the VMMC LCP operates, no dynamic remapping of the network
takes place and all the routing information resides in static tables."

We model exactly that life cycle: a mapping phase that runs *before* the
VMMC LCPs start, computes candidate routes, and **verifies each route by
sending a probe packet along it through the real simulated fabric** and
checking it arrives at the right node.  The verified routes become the
static tables installed into each VMMC LCP.  The topology is assumed
static afterwards (section 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.sim import Environment, Event, Timeout
from repro.sim.server import then
from repro.sim.trace import emit
from repro.hw.lanai.nic import LanaiNIC
from repro.hw.myrinet.network import MyrinetNetwork, natural_key
from repro.hw.myrinet.packet import MyrinetPacket, ProbeHeader
from repro.hw.myrinet.topology import DeadlockReport, check_deadlock_free


class MappingError(RuntimeError):
    """A probe did not arrive where the candidate route claimed."""


@dataclass
class MappingResult:
    """Static routing state handed to each node's VMMC LCP."""

    #: node name → (destination node index → route bytes)
    routes: dict[str, dict[int, list[int]]]
    #: node name → node index (the cluster-wide numbering).
    indices: dict[str, int]
    probes_sent: int = 0
    mapping_time_ns: int = 0
    #: Deadlock-freedom proof of the fabric's installed routing function.
    deadlock: Optional[DeadlockReport] = None


class MappingPhase:
    """Runs the mapping protocol over the simulated fabric.

    ``indices`` is the authoritative node numbering (the cluster passes
    ``{node.name: node.index}``); when omitted, names are numbered in
    natural order (``node9`` before ``node10``) so routing tables line up
    with host indices on fabrics of any size.
    """

    def __init__(self, env: Environment, network: MyrinetNetwork,
                 nics: dict[str, LanaiNIC],
                 indices: Optional[dict[str, int]] = None):
        self.env = env
        self.network = network
        self.nics = nics
        if indices is not None and set(indices) != set(nics):
            raise ValueError("indices must cover exactly the mapped NICs")
        self.indices = indices

    def run(self):
        """Process: map the network; value is a :class:`MappingResult`."""
        def mapping():
            start = self.env.now
            if self.indices is not None:
                indices = dict(self.indices)
                names = sorted(indices, key=indices.get)
            else:
                names = sorted(self.nics, key=natural_key)
                indices = {name: i for i, name in enumerate(names)}
            # Before trusting the fabric's routing function, prove it
            # cannot wedge the wormhole network: the channel dependency
            # graph of the installed route table must be cycle-free.
            # (``topology.build`` does not prove it: this is the boot's
            # one proof.)
            report = check_deadlock_free(self.network)
            routes: dict[str, dict[int, list[int]]] = {n: {} for n in names}
            probes = 0
            n = len(names)
            # All-pairs probe verification in n-1 rounds of n parallel
            # probes: round r pairs every src with the dst r steps ahead,
            # so each round targets every destination exactly once (one
            # inflight probe per inbox) while loading the fabric the way
            # real traffic will.
            for r in range(1, n):
                round_probes = []
                for i, src in enumerate(names):
                    dst = names[(i + r) % n]
                    candidate = self.network.compute_route(src, dst)
                    routes[src][indices[dst]] = candidate
                    round_probes.append(
                        _Probe(self, src, dst, candidate, indices).done)
                for probe in round_probes:
                    yield probe
                probes += n
            duration = self.env.now - start
            if self.env.tracer is not None:
                emit(self.env, "mapping.done", probes=probes,
                     duration_ns=duration,
                     topology=type(self.network.topology).__name__,
                     channels=report.channels,
                     channel_deps=report.dependencies)
            return MappingResult(routes=routes, indices=indices,
                                 probes_sent=probes,
                                 mapping_time_ns=duration,
                                 deadlock=report)

        return self.env.process(mapping(), name="mapping_phase")


class _Probe:
    """One mapping probe, verifying that ``route`` leads from ``src`` to
    ``dst``: a callback chain started from one event at ``now`` that
    sends the probe along the route, takes the next packet of ``dst``'s
    inbox, and ends ``done`` if that is this probe (or fails it with
    :class:`MappingError`).  Making one starts it."""

    __slots__ = ("phase", "src", "dst", "route", "header", "done")

    def __init__(self, phase: MappingPhase, src: str, dst: str,
                 route: list[int], indices: dict[str, int]):
        self.phase = phase
        self.src = src
        self.dst = dst
        self.route = route
        self.header = ProbeHeader("map_probe", indices[src], indices[dst])
        self.done = Event(phase.env)
        Timeout(phase.env, 0).callbacks.append(self.send)

    def send(self, _start: Timeout) -> None:
        probe = MyrinetPacket(self.route, self.header, b"")
        then(self.phase.nics[self.src].net_send.send(probe), self.receive)

    def receive(self, _sent: Event) -> None:
        then(self.phase.nics[self.dst].net_recv.get(), self.check)

    def check(self, got: Event) -> None:
        arrived = got._value
        if arrived.header != self.header or not arrived.route_exhausted:
            self.done.fail(MappingError(
                f"probe {self.src}->{self.dst} misrouted: "
                f"got {arrived.header}"))
        else:
            self.done._end()
