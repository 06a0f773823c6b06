"""Myrinet packet format.

A packet on the wire is::

    [route bytes][type][header words][payload][CRC-8]

* **route** — one byte per switch hop, consumed by each switch (source
  routing, section 3).  We keep a cursor instead of destructively popping
  so traces remain readable; wire-size accounting uses the *remaining*
  route length like real hardware.
* **header** — protocol-defined; VMMC's header carries the message length
  and *two* physical destination addresses for the page-boundary scatter
  (section 4.5).  The fabric treats it as an opaque mapping plus a wire
  size.
* **payload** — real bytes (numpy array), checked end-to-end by tests.
* **crc** — CRC-8 over header+payload, appended on send, verified on
  arrival.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.hw.myrinet.crc import crc8


@dataclass
class PacketHeader:
    """Typed header: a protocol tag plus free-form fields.

    ``wire_bytes`` is the serialized size charged on the wire; VMMC's long
    header is 16 bytes (length word, two destination addresses, flags) and
    the short format carries data inline.
    """

    kind: str
    fields: dict[str, Any] = field(default_factory=dict)
    wire_bytes: int = 16

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)


class MyrinetPacket:
    """One packet travelling the fabric."""

    __slots__ = ("route", "_hop", "header", "payload", "crc",
                 "injected_at", "meta", "_fixed_bytes")

    def __init__(self, route: list[int], header: PacketHeader,
                 payload: np.ndarray | bytes):
        self.route = list(route)
        self._hop = 0
        self.header = header
        self.payload = (np.frombuffer(bytes(payload), dtype=np.uint8)
                        if isinstance(payload, (bytes, bytearray))
                        else np.asarray(payload, dtype=np.uint8))
        #: Type byte + header + payload + CRC: what no switch consumes.
        self._fixed_bytes = 1 + header.wire_bytes + self.payload.size + 1
        self.crc: Optional[int] = None
        self.injected_at: Optional[int] = None
        self.meta: dict[str, Any] = {}

    # -- routing -------------------------------------------------------------
    def next_port(self) -> int:
        """The output port at the current switch; consumes one route byte."""
        if self._hop >= len(self.route):
            raise ValueError("packet ran out of route bytes")
        port = self.route[self._hop]
        self._hop += 1
        return port

    @property
    def hops_remaining(self) -> int:
        return len(self.route) - self._hop

    @property
    def route_exhausted(self) -> bool:
        return self._hop >= len(self.route)

    # -- sizing ----------------------------------------------------------------
    @property
    def payload_bytes(self) -> int:
        return int(self.payload.size)

    @property
    def wire_bytes(self) -> int:
        """Bytes occupying the wire at this hop: remaining route + type byte
        + header + payload + CRC."""
        return len(self.route) - self._hop + self._fixed_bytes

    # -- CRC -----------------------------------------------------------------------
    def _compute_crc(self) -> int:
        """CRC-8 over the encoded header fields, chained into the payload."""
        head = repr(sorted(self.header.fields.items())).encode()
        return crc8(self.payload, initial=crc8(head))

    def seal(self) -> None:
        """Compute and append the hardware CRC (done by the sending NIC)."""
        self.crc = self._compute_crc()

    def crc_ok(self) -> bool:
        """Verify the CRC (done by the receiving NIC)."""
        return self.crc is not None and self.crc == self._compute_crc()

    def corrupt(self, bit: int = 0) -> None:
        """Flip one payload bit — wire error injection (section 4.2)."""
        if self.payload_bytes == 0:
            # No payload: corrupt the CRC itself.
            self.crc = (self.crc or 0) ^ 1
            return
        idx = (bit // 8) % self.payload_bytes
        self.payload = self.payload.copy()
        self.payload[idx] ^= np.uint8(1 << (bit % 8))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MyrinetPacket({self.header.kind}, "
                f"{self.payload_bytes}B, hops={self.hops_remaining})")
