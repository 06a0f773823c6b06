"""Myrinet packet format.

A packet on the wire is::

    [route bytes][type][header][payload][CRC-8]

* **route** — one byte per switch hop, consumed by each switch (source
  routing, section 3).  We keep a cursor instead of destructively popping
  so traces remain readable; wire-size accounting uses the *remaining*
  route length like real hardware.
* **type + header** — the packet's *image*: one type byte naming the
  header's kind, then the header's fixed layout, packed little-endian by
  ``struct``.  There are three layouts (DESIGN.md §2, "Packet headers"):
  the 16-byte *deposit* header VMMC and SHRIMP share (two physical
  destination addresses for the page-boundary scatter of section 4.5),
  the mapping LCP's 8-byte *probe* and the baselines' 16-byte header.
  The image is packed once, when the packet is built; the fabric
  charges its length and never looks inside.
* **payload** — real bytes (numpy array), checked end-to-end by tests.
* **crc** — CRC-8 over image then payload, appended on send, verified on
  arrival.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, ClassVar, Optional

import numpy as np

from repro.hw.myrinet.crc import crc8


def _bits(value: int, width: int) -> int:
    """``value`` as an unsigned ``width``-bit header field."""
    if not 0 <= value < 1 << width:
        raise ValueError(f"{value} does not fit a {width}-bit header field")
    return value


@dataclass(frozen=True, slots=True)
class PacketHeader:
    """One wire layout.  A subclass maps each of its kinds to a type
    byte (unique across layouts) in ``TYPES`` and packs its fields to
    ``LAYOUT.size`` bytes."""

    kind: str

    TYPES: ClassVar[dict[str, int]] = {}
    LAYOUT: ClassVar[struct.Struct] = struct.Struct("")

    def pack(self) -> bytes:
        """The header as the wire carries it, type byte excluded."""
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class DepositHeader(PacketHeader):
    """Section 4.5's data header, 16 bytes: two u32 physical
    destination addresses, a u32 of len1:13 | len2:13 | notify | last,
    and a u32 of src_node:8 | msg_length:24.  The length word is
    len1 + len2; a one-extent packet carries len2 = 0."""

    TYPES = {"vmmc_data": 0x10, "shrimp_du": 0x11, "shrimp_au": 0x12}
    LAYOUT = struct.Struct("<4I")

    #: One or two (physical address, length) pieces: the scatter.
    extents: tuple[tuple[int, int], ...]
    notify: bool
    last: bool
    src_node: int
    #: Length of the whole message this packet is a chunk of.
    msg_length: int

    def pack(self) -> bytes:
        (addr1, len1), (addr2, len2) = \
            self.extents + ((0, 0),) * (2 - len(self.extents))
        return self.LAYOUT.pack(
            addr1, addr2,
            _bits(len1, 13) | _bits(len2, 13) << 13
            | self.notify << 26 | self.last << 27,
            _bits(self.src_node, 8) | _bits(self.msg_length, 24) << 8)


@dataclass(frozen=True, slots=True)
class ProbeHeader(PacketHeader):
    """The mapping LCP's route probe (section 4.3), 8 bytes: the u32
    host indices of its source and claimed destination."""

    TYPES = {"map_probe": 0x20}
    LAYOUT = struct.Struct("<2I")

    src: int
    dst: int

    def pack(self) -> bytes:
        return self.LAYOUT.pack(self.src, self.dst)


@dataclass(frozen=True, slots=True)
class BaselineHeader(PacketHeader):
    """The section-7 baselines' header, 16 bytes of u32: message
    sequence number, message length, this packet's offset in it, and one
    protocol word (PM's ACK count, AM's handler word)."""

    TYPES = {"pm_msg": 0x30, "pm_ack": 0x31, "fm_frag": 0x32,
             "am_request": 0x33, "api_msg": 0x34}
    LAYOUT = struct.Struct("<4I")

    seq: int = 0
    msg_length: int = 0
    offset: int = 0
    word: int = 0

    def pack(self) -> bytes:
        return self.LAYOUT.pack(self.seq, self.msg_length, self.offset,
                                self.word)


class MyrinetPacket:
    """One packet travelling the fabric."""

    __slots__ = ("route", "_hop", "header", "image", "payload", "crc",
                 "injected_at", "meta", "_fixed_bytes")

    def __init__(self, route: list[int], header: PacketHeader,
                 payload: np.ndarray | bytes):
        self.route = list(route)
        self._hop = 0
        self.header = header
        #: Type byte + packed header, packed once: what the CRC covers
        #: ahead of the payload.
        self.image = bytes((header.TYPES[header.kind],)) + header.pack()
        self.payload = (np.frombuffer(bytes(payload), dtype=np.uint8)
                        if isinstance(payload, (bytes, bytearray))
                        else np.asarray(payload, dtype=np.uint8))
        #: Image + payload + CRC: what no switch consumes.
        self._fixed_bytes = len(self.image) + self.payload.size + 1
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
        """Bytes occupying the wire at this hop: remaining route + image
        + payload + CRC."""
        return len(self.route) - self._hop + self._fixed_bytes

    # -- CRC -----------------------------------------------------------------------
    def _compute_crc(self) -> int:
        """CRC-8 over the image, chained into the payload."""
        return crc8(self.payload, initial=crc8(self.image))

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
