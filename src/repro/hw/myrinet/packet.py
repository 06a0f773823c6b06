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
* **payload** — real bytes (a read-only numpy array), checked
  end-to-end by tests.
* **crc** — CRC-8 over image then payload, appended on send, verified on
  arrival.

The image and payload are frozen once the packet is built: neither can
be rebound or written, so the only thing that changes a packet's bytes
between the sending NIC's ``seal`` and the receiving NIC's ``crc_ok`` is
:meth:`MyrinetPacket.flip`, the wire error.  The CRC is linear over
GF(2), so a packet keeps its *syndrome* — the wire CRC XOR the CRC of
the bytes it now carries — instead of the CRC itself: ``seal`` starts it
at 0, each flip XORs in :func:`~repro.hw.myrinet.crc.flip_syndrome`, and
the check is ``syndrome == 0``.  That is exactly the recompute
``crc == crc8(image + payload)``, at a cost of O(flips) instead of
O(bytes); the wire CRC itself is derived on demand (``crc``) for tests
and oracles, which nothing on the packet path reads.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, ClassVar, Optional

import numpy as np

from repro.hw.myrinet.crc import crc8, flip_syndrome


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
        src_node, msg_length = self.src_node, self.msg_length
        # Every data packet is packed once: the four field checks are
        # _bits's, inline, and call it only to raise its error.
        if not (0 <= len1 < 1 << 13 and 0 <= len2 < 1 << 13
                and 0 <= src_node < 1 << 8 and 0 <= msg_length < 1 << 24):
            for value, width in ((len1, 13), (len2, 13), (src_node, 8),
                                 (msg_length, 24)):
                _bits(value, width)
        return self.LAYOUT.pack(
            addr1, addr2,
            len1 | len2 << 13 | self.notify << 26 | self.last << 27,
            src_node | msg_length << 8)


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


#: The payload of every empty packet (a mapping probe): read-only, and
#: :meth:`MyrinetPacket.flip` never reaches it, so packets share it.
_NO_PAYLOAD = np.frombuffer(b"", dtype=np.uint8)


class MyrinetPacket:
    """One packet travelling the fabric.

    The packet owns a copy of ``route`` (the one copy made of it), so a
    caller may pass its routing table's list as it is."""

    __slots__ = ("route", "_hop", "header", "_image", "_payload",
                 "_syndrome", "injected_at", "meta", "_fixed_bytes")

    def __init__(self, route: list[int], header: PacketHeader,
                 payload: np.ndarray | bytes):
        self.route = list(route)
        self._hop = 0
        self.header = header
        self._image = bytes((header.TYPES[header.kind],)) + header.pack()
        if isinstance(payload, (bytes, bytearray)):
            self._payload = (np.frombuffer(bytes(payload), dtype=np.uint8)
                             if payload else _NO_PAYLOAD)
        else:
            # A read-only view: the caller's array stays writable, but
            # nothing writes the packet's bytes through it.
            self._payload = np.asarray(payload, dtype=np.uint8).view()
            self._payload.setflags(write=False)
        #: Image + payload + CRC: what no switch consumes.
        self._fixed_bytes = len(self._image) + self._payload.size + 1
        #: Wire CRC XOR the CRC of the bytes now carried; None until sealed.
        self._syndrome: Optional[int] = None
        self.injected_at: Optional[int] = None
        self.meta: dict[str, Any] = {}

    @property
    def image(self) -> bytes:
        """Type byte + packed header, packed once: what the CRC covers
        ahead of the payload."""
        return self._image

    @property
    def payload(self) -> np.ndarray:
        """The payload bytes, read-only."""
        return self._payload

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
        return self._payload.size

    @property
    def wire_bytes(self) -> int:
        """Bytes occupying the wire at this hop: remaining route + image
        + payload + CRC."""
        return len(self.route) - self._hop + self._fixed_bytes

    # -- CRC -----------------------------------------------------------------------
    @property
    def crc(self) -> Optional[int]:
        """The CRC field on the wire: ``None`` before :meth:`seal`, then
        the CRC of the bytes sealed XOR any flips of the field itself."""
        if self._syndrome is None:
            return None
        return crc8(self._payload, initial=crc8(self._image)) ^ self._syndrome

    def seal(self) -> None:
        """Append the hardware CRC (done by the sending NIC): the CRC of
        the bytes carried now, so the syndrome starts at 0."""
        self._syndrome = 0

    def crc_ok(self) -> bool:
        """Verify the CRC (done by the receiving NIC): exactly
        ``crc == crc8(image + payload)``, read off the syndrome."""
        return self._syndrome == 0

    def flip(self, bit: int) -> None:
        """Flip bit ``bit % 8`` of byte ``bit // 8`` of image + payload +
        CRC field — the one way a packet's bytes change — and carry the
        flip's syndrome."""
        image, payload = self._image, self._payload
        covered = len(image) + payload.size
        index, mask = bit >> 3, 1 << (bit & 7)
        if not 0 <= index <= covered:
            raise ValueError(f"bit {bit} is outside the packet's "
                             f"{covered + 1} CRC-covered and CRC bytes")
        if index < len(image):
            flipped = bytearray(image)
            flipped[index] ^= mask
            self._image = bytes(flipped)
        elif index < covered:
            if payload.base is not None:
                # First write: until now the bytes may be the sender's.
                payload = self._payload = payload.copy()
            else:
                payload.setflags(write=True)
            payload[index - len(image)] ^= mask
            payload.setflags(write=False)
        else:
            # The CRC field itself: the check compares against it directly.
            if self._syndrome is not None:
                self._syndrome ^= mask
            return
        if self._syndrome is not None:
            self._syndrome ^= flip_syndrome(covered - 1 - index, bit & 7)

    def corrupt(self, bit: int = 0) -> None:
        """Flip one payload bit, ``bit`` taken modulo the payload, or the
        CRC's lowest bit when there is no payload — wire error injection
        (section 4.2)."""
        size = self._payload.size
        offset = (bit // 8) % size * 8 + bit % 8 if size else 0
        self.flip(8 * len(self._image) + offset)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MyrinetPacket({self.header.kind}, "
                f"{self.payload_bytes}B, hops={self.hops_remaining})")
