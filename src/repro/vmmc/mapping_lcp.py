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

from repro.sim import Environment
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
                    round_probes.append(self.env.process(
                        self._verify_route(src, dst, candidate, indices)))
                for proc in round_probes:
                    yield proc
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

    def _verify_route(self, src: str, dst: str, route: list[int],
                      indices: dict[str, int]):
        """Send a probe along ``route`` and confirm it lands on ``dst``."""
        header = ProbeHeader("map_probe", indices[src], indices[dst])
        probe = MyrinetPacket(route, header, b"")
        yield self.nics[src].net_send.send(probe)
        # Wait for the probe to surface in the claimed destination's inbox.
        arrived = yield self.nics[dst].net_recv.get()
        if arrived.header != header or not arrived.route_exhausted:
            raise MappingError(
                f"probe {src}->{dst} misrouted: got {arrived.header}")
