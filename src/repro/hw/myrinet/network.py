"""Topology container: hosts, switches, cables, and route computation.

The network-mapping LCP of section 4.3 discovers the topology at boot and
builds static routing tables.  Our fabric object *is* the ground truth the
mapping LCP discovers: it holds the cabling (one port map: device → port →
neighbour) and the installed source-route table — but protocol code never
calls :meth:`compute_route` directly; it goes through the mapping LCP
(:mod:`repro.vmmc.mapping_lcp`) exactly as the paper's daemons do.

Fabrics are built declaratively: :func:`repro.hw.myrinet.topology.build`
materializes a :class:`~repro.hw.myrinet.topology.TopologySpec`
(single/dual switch, fat-tree, mesh/torus) and installs the topology's
route table via :meth:`MyrinetNetwork.install_topology` (the mapping phase
proves it deadlock-free at boot); :meth:`compute_route` serves that
table (up*/down* on fat-trees, dimension-order on meshes) and nothing else.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.sim import Environment, Timeout
from repro.hw.myrinet.link import Link, LinkParams
from repro.hw.myrinet.packet import MyrinetPacket
from repro.hw.myrinet.switch import Switch

_NUM_RE = re.compile(r"(\d+)")


def natural_key(name: str):
    """Sort key placing ``node10`` after ``node9`` (not after ``node1``)."""
    return tuple(int(tok) if tok.isdigit() else tok
                 for tok in _NUM_RE.split(name))


@dataclass
class PortRef:
    """A (device name, port number) endpoint of a cable."""

    device: str
    port: int = 0


@dataclass
class _HostPort:
    """A host attachment point: one full-duplex cable to the fabric.

    Until a NIC attaches, the incoming link delivers here and packets
    queue; once one has, the link delivers to the NIC directly."""

    name: str
    out_link: Optional[Link] = None
    in_link: Optional[Link] = None
    sink: Optional[Callable[[MyrinetPacket], None]] = None
    queued: list = field(default_factory=list)

    def receive(self, packet: MyrinetPacket) -> None:
        if self.sink is None:
            # NIC not attached yet (e.g. during fabric construction).
            self.queued.append(packet)
        else:
            self.sink(packet)


class MyrinetNetwork:
    """The switched fabric: devices, cables, and the installed routes."""

    def __init__(self, env: Environment, link_params: LinkParams | None = None):
        self.env = env
        self.link_params = link_params or LinkParams()
        self.switches: dict[str, Switch] = {}
        self.hosts: dict[str, _HostPort] = {}
        self._links: list[Link] = []
        #: Set by :meth:`install_topology` (declarative fabrics).
        self.topology = None
        self._route_table: Optional[dict[tuple[str, str], list[int]]] = None
        #: device → port → neighbour device (both ends of every cable).
        self._port_map: dict[str, dict[int, str]] = {}

    # -- construction ---------------------------------------------------------
    def add_switch(self, name: str, nports: int = 8) -> Switch:
        if name in self.switches or name in self.hosts:
            raise ValueError(f"duplicate device name {name!r}")
        switch = Switch(self.env, nports=nports, name=name)
        self.switches[name] = switch
        return switch

    def add_host(self, name: str) -> str:
        if name in self.switches or name in self.hosts:
            raise ValueError(f"duplicate device name {name!r}")
        self.hosts[name] = _HostPort(name)
        return name

    def attach_host_sink(self, name: str,
                         sink: Callable[[MyrinetPacket], None]) -> None:
        """Register the NIC's receive entry point for host ``name``."""
        port = self.hosts[name]
        port.sink = sink
        if port.in_link is not None:
            port.in_link.connect(sink)
        for packet in port.queued:
            sink(packet)
        port.queued.clear()

    def connect(self, a: PortRef, b: PortRef,
                link_params: LinkParams | None = None) -> None:
        """Run a full-duplex cable between two endpoints."""
        params = link_params or self.link_params
        for ref in (a, b):
            if ref.port in self._port_map.get(ref.device, {}):
                raise ValueError(
                    f"{ref.device}: port {ref.port} already cabled to "
                    f"{self._port_map[ref.device][ref.port]}")
        # Distinct RNG streams per link come from the name-derived seed
        # fallback in Link: two hops must never flip the same bit and
        # silently cancel an injected error.
        link_ab = Link(self.env, params, name=f"{a.device}->{b.device}")
        link_ba = Link(self.env, params, name=f"{b.device}->{a.device}")
        self._links += [link_ab, link_ba]
        link_ab.connect(self._sink_of(b, link_ab))
        link_ba.connect(self._sink_of(a, link_ba))
        self._outlet_of(a, link_ab)
        self._outlet_of(b, link_ba)
        self._port_map.setdefault(a.device, {})[a.port] = b.device
        self._port_map.setdefault(b.device, {})[b.port] = a.device

    def _sink_of(self, ref: PortRef,
                 link: Link) -> Callable[[MyrinetPacket], None]:
        """Where ``link`` delivers at ``ref``: a switch's crossbar, or a
        host's NIC once attached (its port until then)."""
        if ref.device in self.switches:
            return self.switches[ref.device].receive
        host = self.hosts[ref.device]
        host.in_link = link
        return host.receive if host.sink is None else host.sink

    def _outlet_of(self, ref: PortRef, link: Link) -> None:
        if ref.device in self.switches:
            self.switches[ref.device].attach_output(ref.port, link)
        else:
            host = self.hosts[ref.device]
            if host.out_link is not None:
                raise ValueError(f"host {ref.device} already cabled")
            host.out_link = link

    # -- use ------------------------------------------------------------------------
    def inject(self, host: str, packet: MyrinetPacket) -> Timeout:
        """Host NIC puts a packet on its outgoing cable: stamps
        ``packet.injected_at`` and returns :meth:`Link.transmit`'s
        tail timer; an uncabled host raises here, at the call."""
        out = self.hosts[host].out_link
        if out is None:
            raise RuntimeError(f"host {host} is not cabled to the fabric")
        packet.injected_at = self.env._now
        return out.transmit(packet)

    def install_topology(self, spec, table: dict[tuple[str, str],
                                                 list[int]]) -> None:
        """Install a declarative topology's route table as ground truth.

        ``table`` must cover every ordered pair of distinct hosts;
        :meth:`compute_route` then serves it verbatim, so the fabric
        follows the topology's routing discipline (up*/down*,
        dimension-order, …).  Called by
        :func:`repro.hw.myrinet.topology.build`.
        """
        hosts = self.host_names
        missing = [(s, d) for s in hosts for d in hosts
                   if s != d and (s, d) not in table]
        if missing:
            raise ValueError(
                f"route table incomplete: missing {len(missing)} "
                f"pair(s), first {missing[0]}")
        self.topology = spec
        self._route_table = {pair: list(route)
                             for pair, route in table.items()}

    @property
    def route_table(self) -> Optional[dict[tuple[str, str], list[int]]]:
        """The installed route table, or ``None`` for hand-built fabrics."""
        return self._route_table

    def compute_route(self, src: str, dst: str) -> list[int]:
        """Source-route bytes (one per switch hop) from ``src`` to ``dst``.

        Ground truth used by the mapping LCP: the installed topology
        route table, served verbatim.  Raises on a fabric with no table
        or a pair the table does not hold.
        """
        if src == dst:
            return []
        if self._route_table is None:
            raise ValueError(
                f"no route table installed for {src!r} -> {dst!r}: build "
                "the fabric with repro.hw.myrinet.topology.build")
        try:
            return list(self._route_table[(src, dst)])
        except KeyError:
            raise ValueError(
                f"no installed route {src!r} -> {dst!r} "
                f"(topology {self.topology!r})") from None

    def port_neighbor(self, device: str, port: int) -> Optional[str]:
        """The device cabled to ``device``'s ``port`` (None if uncabled)."""
        return self._port_map.get(device, {}).get(port)

    def host_uplink(self, host: str) -> str:
        """The switch (or peer) a host's single cable runs to."""
        ports = self._port_map.get(host)
        if not ports:
            raise ValueError(f"host {host!r} is not cabled")
        return next(iter(ports.values()))

    @property
    def host_names(self) -> list[str]:
        """Hosts in index order (natural sort: node9 before node10)."""
        return sorted(self.hosts, key=natural_key)

    # -- fault-injection surface ----------------------------------------------
    @property
    def links(self) -> list[Link]:
        """All unidirectional links in the fabric (fault-injection surface)."""
        return list(self._links)

    def find_link(self, name: str) -> Link:
        """Look up a unidirectional link by its ``src->dst`` name."""
        for link in self._links:
            if link.name == name:
                return link
        raise KeyError(f"no link named {name!r} "
                       f"(have: {[l.name for l in self._links]})")

    def links_of(self, device: str) -> list[Link]:
        """Every unidirectional link touching ``device`` (either end)."""
        found = [l for l in self._links if device in l.name.split("->")]
        if not found:
            raise KeyError(f"no links touch device {device!r}")
        return found
