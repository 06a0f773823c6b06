"""Myrinet crossbar switch (the testbed used the 8-port M2F-SW8).

Source routing: each arriving packet surrenders one route byte naming the
output port.  The crossbar is non-blocking — distinct output ports forward
concurrently — but each output port serialises (back-pressure), modelled by
one integer per port: when its last tail leaves.  A crossing is three timers:
the crossbar (cut-through latency), the tail leaving and the cable delivery.
"""

from __future__ import annotations

from typing import Optional

from repro.sim import Environment, Timeout
from repro.sim.trace import emit
from repro.hw.myrinet.link import Link
from repro.hw.myrinet.packet import MyrinetPacket

#: Per-hop cut-through latency of the crossbar (Myricom quotes ~550 ns
#: including fall-through on this generation of switches).
SWITCH_LATENCY_NS = 550


class PortRangeError(ValueError):
    """A port number is outside a switch's radix.

    Carries ``switch`` (the device name — essential in multi-switch
    fabrics where every crossbar has ports 0..N), ``port``, and
    ``nports`` so callers and tests can discriminate without parsing
    the message.
    """

    def __init__(self, switch: str, port: int, nports: int):
        super().__init__(
            f"{switch}: port {port} out of range 0..{nports - 1}")
        self.switch = switch
        self.port = port
        self.nports = nports


class Switch:
    """An ``nports``-port crossbar with source routing."""

    def __init__(self, env: Environment, nports: int = 8,
                 name: str = "switch", latency_ns: int = SWITCH_LATENCY_NS):
        self.env = env
        self.nports = nports
        self.name = name
        self.latency_ns = latency_ns
        self._out_links: list[Optional[Link]] = [None] * nports
        #: port → when the tail of the last worm forwarded there leaves.
        self._port_free_at = [0] * nports
        #: port → number of outstanding down-faults (absent == up).
        #: Depth-counted so overlapping faults compose: the port only
        #: forwards again once every overlapping fault has cleared.
        self._down_ports: dict[int, int] = {}
        self.packets_forwarded = 0
        self.drops = 0
        self.port_down_drops = 0
        env.collectors.append(self._collect)

    def _collect(self):
        name = self.name
        yield ("counter", "switch.drops",
               {"switch": name, "reason": "unconnected"},
               self.drops - self.port_down_drops)
        yield ("counter", "switch.drops",
               {"switch": name, "reason": "port_down"}, self.port_down_drops)
        yield "counter", "switch.forwarded", {"switch": name}, \
            self.packets_forwarded

    def attach_output(self, port: int, link: Link) -> None:
        """Connect the outgoing side of ``port`` to a link."""
        self._check_port(port)
        self._out_links[port] = link

    # -- fault hooks ----------------------------------------------------------
    def set_port_down(self, port: int) -> None:
        """Disable an output port: worms routed to it are dropped by the
        crossbar exactly like worms naming an unconnected port.
        Depth-counted — each call stacks one down-fault on the port."""
        self._check_port(port)
        self._down_ports[port] = self._down_ports.get(port, 0) + 1
        if self.env.tracer is not None:
            emit(self.env, f"{self.name}.port_down", port=port,
                 depth=self._down_ports[port])

    def set_port_up(self, port: int) -> None:
        """Release one down-fault on ``port``; the port forwards again
        only at depth 0 (stray extra calls are harmless)."""
        self._check_port(port)
        depth = self._down_ports.get(port, 0)
        if depth <= 1:
            self._down_ports.pop(port, None)
        else:
            self._down_ports[port] = depth - 1
        if self.env.tracer is not None:
            emit(self.env, f"{self.name}.port_up", port=port,
                 depth=self._down_ports.get(port, 0))

    def port_down_depth(self, port: int) -> int:
        """How many overlapping down-faults currently hold ``port``."""
        self._check_port(port)
        return self._down_ports.get(port, 0)

    def port_is_up(self, port: int) -> bool:
        self._check_port(port)
        return port not in self._down_ports

    def receive(self, packet: MyrinetPacket) -> None:
        """Sink for incoming links: route the worm, time its crossing.

        The hot path of every hop, so the route byte, the port check and
        the wire size are read inline (what ``next_port``,
        ``_check_port``, ``wire_bytes`` and ``wire_time_ns`` compute),
        and the crossing is one closure on the crossbar timer."""
        route, hop = packet.route, packet._hop
        if hop >= len(route):
            raise ValueError("packet ran out of route bytes")
        port = route[hop]
        packet._hop = hop = hop + 1
        if not 0 <= port < self.nports:
            raise PortRangeError(self.name, port, self.nports)
        env = self.env
        link = self._out_links[port]
        if link is None:
            # Route byte names an unconnected port: the worm is dropped by
            # the hardware (this is what the mapping phase repairs).
            self.drops += 1
            if env.tracer is not None:
                emit(env, f"{self.name}.drop", port=port)
            return
        if port in self._down_ports:
            # Faulted output port: the crossbar sinks the worm silently.
            self.drops += 1
            self.port_down_drops += 1
            if env.tracer is not None:
                emit(env, f"{self.name}.drop_port_down", port=port)
            return
        wire_bytes = len(route) - hop + packet._fixed_bytes
        wire_time = wire_bytes * link.params.ns_per_kb // 1000
        if wire_time < 1:
            wire_time = 1
        now = env._now
        free_at = self._port_free_at[port]
        crossbar = (free_at if free_at > now else now) + self.latency_ns
        self._port_free_at[port] = crossbar + wire_time

        def forward(_crossbar: Timeout) -> None:
            self.packets_forwarded += 1
            if env.tracer is not None:
                emit(env, f"{self.name}.forward", port=port,
                     bytes=wire_bytes)
            link.transmit(packet)

        Timeout(env, crossbar - now).callbacks.append(forward)

    def _check_port(self, port: int) -> None:
        if not 0 <= port < self.nports:
            raise PortRangeError(self.name, port, self.nports)
