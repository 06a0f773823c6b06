"""Myrinet link: 160 MB/s per direction, cut-through, in-order, lossless.

A :class:`Link` is unidirectional (full-duplex cables are two links).  We
model wormhole cut-through at packet granularity: the tail leaves this end
one wire time (``wire_bytes / rate``) after :meth:`Link.transmit` and
reaches the far end one cable latency later, so back-to-back packets
pipeline.  The link has no arbiter: its one feeder (a switch output port
or a NIC's send engine) serialises it, and a transmit before the
previous tail has left raises.

Bit errors are injected by an optional error process with the paper's
"very rare, clustered" character (section 4.2): a Bernoulli draw per packet
under normal operation, or a burst when a simulated hardware fault is
switched on.

Fault hooks (used by :mod:`repro.faults`):

* :meth:`set_down` / :meth:`set_up` — a dead cable.  Packets whose tail
  would arrive while the link is down are lost in the fabric (the worm is
  truncated; downstream hardware sees nothing and the sender is not told —
  exactly the failure VMMC's base layer cannot survive).  Down state is
  **depth-counted** so overlapping faults compose: every ``set_down``
  increments the depth, every ``set_up`` decrements it, and the cable
  only carries traffic again at depth 0 (the *last* clear wins).
* :meth:`set_error_rate` / :meth:`clear_error_rate` — a temporary
  per-packet corruption-probability override modelling a clustered
  bit-error burst.  Overrides form a **stack**: each ``set_error_rate``
  pushes an entry and returns a token; the effective rate is the most
  recently pushed entry (*last-wins*, documented contract), and clearing
  by token removes only that entry, so two overlapping bursts keep the
  link faulted until the last one clears.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.sim import Environment, Timeout
from repro.sim.trace import emit
from repro.hw.myrinet.packet import MyrinetPacket


@dataclass(frozen=True)
class LinkParams:
    """Per-link timing and error parameters."""

    #: 1.28 Gb/s = 160 MB/s = 0.16 bytes/ns → 6.25 ns per byte.
    ns_per_kb: int = 6250
    #: Cable propagation + SAN interface latency per traversal.
    latency_ns: int = 100
    #: Per-packet corruption probability (paper: BER below 1e-15; the
    #: default 0 keeps normal runs error-free, tests raise it).
    error_rate: float = 0.0

    def wire_time_ns(self, wire_bytes: int) -> int:
        return max(1, (wire_bytes * self.ns_per_kb) // 1000)


def _seed_from_name(name: str) -> int:
    """Deterministic per-link RNG seed derived from the link's name.

    Independently-constructed links must not share an error sequence: a
    shared ``default_rng(0)`` fallback made two lossy hops draw identical
    Bernoulli streams (and could even flip the same bit twice, silently
    cancelling an injected error).  CRC-32 of the name is stable across
    runs and processes (unlike ``hash``) and distinct per link name.
    """
    return zlib.crc32(name.encode("utf-8"))


class Link:
    """Unidirectional link from a source port to a sink callable.

    The sink is ``receive(packet)`` on a switch input port or a NIC, a
    plain call made when the packet **tail** arrives, i.e. when the
    packet is fully deliverable to the next stage's buffer.
    """

    def __init__(self, env: Environment, params: LinkParams | None = None,
                 name: str = "link", rng: Optional[np.random.Generator] = None):
        self.env = env
        self.params = params or LinkParams()
        self.name = name
        self.sink: Optional[Callable[[MyrinetPacket], None]] = None
        self._tail_at = 0           # when the last tail leaves this end
        #: The error stream; made from the name's seed by the first
        #: packet sent while an error rate is in force.
        self._rng = rng
        #: Stack of ``(token, rate)`` error-rate overrides (last-wins).
        self._error_stack: list[tuple[int, float]] = []
        self._error_tokens = 0
        #: Number of outstanding :meth:`set_down` raises (0 == cable up).
        self._down_depth = 0
        self.packets_carried = 0
        self.bytes_carried = 0
        self.busy_ns = 0
        self.errors_injected = 0
        self.packets_lost_down = 0
        env.collectors.append(self._collect)

    def _collect(self):
        link = {"link": self.name}
        packets = self.packets_carried
        yield "counter", "link.errors_injected", link, self.errors_injected
        yield "counter", "link.packets", link, packets
        yield "counter", "link.bytes", link, (self.bytes_carried, packets)
        yield "counter", "link.busy_ns", link, (self.busy_ns, packets)
        yield "counter", "link.lost_down", link, self.packets_lost_down

    # -- fault hooks ----------------------------------------------------------
    @property
    def is_up(self) -> bool:
        return self._down_depth == 0

    @property
    def down_depth(self) -> int:
        """How many overlapping down-faults currently hold the cable."""
        return self._down_depth

    @property
    def error_burst_depth(self) -> int:
        """How many overlapping error-rate overrides are active."""
        return len(self._error_stack)

    @property
    def effective_error_rate(self) -> float:
        """Per-packet corruption probability in force right now: the most
        recently pushed override (last-wins), else the configured
        baseline."""
        if self._error_stack:
            return self._error_stack[-1][1]
        return self.params.error_rate

    def set_down(self) -> None:
        """Take the cable down: in-flight and future worms are lost.
        Depth-counted — overlapping down-faults compose, and the link
        stays down until the matching number of :meth:`set_up` calls."""
        self._down_depth += 1
        if self.env.tracer is not None:
            emit(self.env, f"{self.name}.down", depth=self._down_depth)

    def set_up(self) -> None:
        """Release one down-fault; the cable carries traffic again only
        when every overlapping down-fault has been released (clamped at
        0 so stray extra calls are harmless)."""
        self._down_depth = max(0, self._down_depth - 1)
        if self.env.tracer is not None:
            emit(self.env, f"{self.name}.up", depth=self._down_depth)

    def set_error_rate(self, rate: float) -> int:
        """Push a per-packet corruption-probability override (error
        burst) and return a token for :meth:`clear_error_rate`.  The
        effective rate is always the most recent push (last-wins)."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"error rate {rate} outside [0, 1]")
        self._error_tokens += 1
        token = self._error_tokens
        self._error_stack.append((token, rate))
        if self.env.tracer is not None:
            emit(self.env, f"{self.name}.error_burst", rate=rate,
                 depth=len(self._error_stack))
        return token

    def clear_error_rate(self, token: int) -> None:
        """Remove the override identified by ``token`` (idempotent: an
        unknown token is a no-op)."""
        self._error_stack = [entry for entry in self._error_stack
                             if entry[0] != token]
        if self.env.tracer is not None:
            emit(self.env, f"{self.name}.error_clear",
                 depth=len(self._error_stack))

    # -- data path ------------------------------------------------------------
    def connect(self, sink: Callable[[MyrinetPacket], None]) -> None:
        self.sink = sink

    def transmit(self, packet: MyrinetPacket) -> Timeout:
        """Put ``packet``'s head on the wire now.  Returns the timer that
        fires when the **tail** has left this end (so the sender's DMA
        engine frees up); delivery to the sink happens ``latency`` later.
        An unconnected link, or a second feeder overlapping the first,
        raises here, at the call.

        Every packet on every hop comes through here, so the wire size
        (what ``packet.wire_bytes`` and ``params.wire_time_ns`` compute)
        and the error rate in force are read inline."""
        env = self.env
        now = env._now
        if self.sink is None:
            raise RuntimeError(f"{self.name}: link not connected")
        if now < self._tail_at:
            raise RuntimeError(f"{self.name}: transmit before the previous "
                               f"tail left at {self._tail_at} ns")
        params = self.params
        wire_bytes = len(packet.route) - packet._hop + packet._fixed_bytes
        wire_time = wire_bytes * params.ns_per_kb // 1000
        if wire_time < 1:
            wire_time = 1
        self._tail_at = now + wire_time
        if env.tracer is not None:
            emit(env, f"{self.name}.tx", bytes=wire_bytes,
                 wire_time=wire_time)
        errors = self._error_stack
        error_rate = errors[-1][1] if errors else params.error_rate
        if error_rate > 0:
            rng = self._rng
            if rng is None:
                rng = self._rng = np.random.default_rng(
                    _seed_from_name(self.name))
            if rng.random() < error_rate:
                packet.corrupt(bit=int(rng.integers(0, 1 << 16)))
                self.errors_injected += 1
        self.packets_carried += 1
        self.bytes_carried += wire_bytes
        self.busy_ns += wire_time

        def arrive(_arrival: Timeout) -> None:
            if self._down_depth:
                # Dead cable: the worm never reaches the far end.  Nobody
                # is notified — Myrinet hardware gives the sender no
                # feedback.
                self.packets_lost_down += 1
                if env.tracer is not None:
                    emit(env, f"{self.name}.lost_down", bytes=wire_bytes)
                return
            self.sink(packet)

        def tail_left(_tail: Timeout) -> None:
            # The head surfaces at the far end one cable latency after the
            # tail left this one, whatever the sender does meanwhile.
            Timeout(env, self.params.latency_ns).callbacks.append(arrive)

        tail = Timeout(env, wire_time)
        tail.callbacks.append(tail_left)
        return tail
