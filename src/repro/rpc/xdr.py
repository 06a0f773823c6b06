"""XDR (RFC 1014) marshalling — the wire format of SunRPC.

A real, bit-exact implementation: big-endian 4-byte alignment, the basic
types SunRPC needs (unsigned/signed 32- and 64-bit integers, booleans,
opaque byte strings, strings, fixed and counted arrays).  vRPC keeps this
exact format for SunRPC compatibility (section 5.4: "we changed only the
runtime library ... and remain fully compatible with the existing SunRPC
implementations").
"""

from __future__ import annotations

import struct
from typing import Callable, Sequence


_UINT = struct.Struct(">I")
_INT = struct.Struct(">i")
_UHYPER = struct.Struct(">Q")


class XdrError(ValueError):
    """Malformed XDR data or out-of-range value."""


def pack_uints(*values: int) -> bytes:
    """``values`` as consecutive XDR unsigned ints, in one ``struct``
    call — a fixed header's words.  A value out of range raises what
    :meth:`XdrEncoder.pack_uint` raises on the first bad field."""
    try:
        return struct.pack(f">{len(values)}I", *values)
    except struct.error:
        encoder = XdrEncoder()
        for value in values:
            encoder.pack_uint(value)
        raise


class XdrEncoder:
    """Builds an XDR byte stream."""

    def __init__(self):
        self._parts: list[bytes] = []

    # -- integers ------------------------------------------------------------
    def pack_uint(self, value: int) -> "XdrEncoder":
        if not 0 <= value < (1 << 32):
            raise XdrError(f"uint out of range: {value}")
        self._parts.append(_UINT.pack(value))
        return self

    def pack_int(self, value: int) -> "XdrEncoder":
        if not -(1 << 31) <= value < (1 << 31):
            raise XdrError(f"int out of range: {value}")
        self._parts.append(_INT.pack(value))
        return self

    def pack_uhyper(self, value: int) -> "XdrEncoder":
        if not 0 <= value < (1 << 64):
            raise XdrError(f"uhyper out of range: {value}")
        self._parts.append(_UHYPER.pack(value))
        return self

    def pack_bool(self, value: bool) -> "XdrEncoder":
        return self.pack_uint(1 if value else 0)

    # -- byte strings -----------------------------------------------------------
    def pack_fixed_opaque(self, data: bytes) -> "XdrEncoder":
        pad = (4 - len(data) % 4) % 4
        self._parts.append(bytes(data) + b"\0" * pad)
        return self

    def pack_opaque(self, data: bytes) -> "XdrEncoder":
        self.pack_uint(len(data))
        return self.pack_fixed_opaque(data)

    def pack_string(self, text: str) -> "XdrEncoder":
        return self.pack_opaque(text.encode("utf-8"))

    # -- arrays --------------------------------------------------------------------
    def pack_array(self, items: Sequence, pack_item: Callable) -> "XdrEncoder":
        self.pack_uint(len(items))
        for item in items:
            pack_item(self, item)
        return self

    def getvalue(self) -> bytes:
        return b"".join(self._parts)

    def __len__(self) -> int:
        return sum(len(p) for p in self._parts)


class XdrDecoder:
    """Consumes an XDR byte stream: each ``unpack_*`` reads its field
    with one ``struct`` call at the cursor; a field that runs past the
    end raises :class:`XdrError` (an underrun) and leaves the cursor at
    that field."""

    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes):
        self._data = bytes(data)
        self._pos = 0

    def _underrun(self, n: int) -> XdrError:
        return XdrError(
            f"XDR underrun: need {n} bytes at {self._pos}, have "
            f"{len(self._data)}")

    # -- integers ------------------------------------------------------------
    def unpack_uint(self) -> int:
        pos = self._pos
        try:
            value = _UINT.unpack_from(self._data, pos)[0]
        except struct.error:
            raise self._underrun(4) from None
        self._pos = pos + 4
        return value

    def unpack_int(self) -> int:
        pos = self._pos
        try:
            value = _INT.unpack_from(self._data, pos)[0]
        except struct.error:
            raise self._underrun(4) from None
        self._pos = pos + 4
        return value

    def unpack_uhyper(self) -> int:
        pos = self._pos
        try:
            value = _UHYPER.unpack_from(self._data, pos)[0]
        except struct.error:
            raise self._underrun(8) from None
        self._pos = pos + 8
        return value

    def unpack_bool(self) -> bool:
        value = self.unpack_uint()
        if value not in (0, 1):
            raise XdrError(f"bad bool {value}")
        return bool(value)

    def unpack_uints(self, count: int) -> tuple:
        """``count`` consecutive unsigned ints in one ``struct`` call (a
        fixed header, a counted array's items); an underrun names the
        first word missing, as ``count`` :meth:`unpack_uint` calls
        would."""
        data, pos = self._data, self._pos
        end = pos + 4 * count
        if end > len(data):
            self._pos = pos + (len(data) - pos) // 4 * 4
            raise self._underrun(4)
        self._pos = end
        return struct.unpack_from(f">{count}I", data, pos)

    # -- byte strings -----------------------------------------------------------
    def unpack_opaque(self) -> bytes:
        n = self.unpack_uint()
        pos = self._pos
        end = pos + n + (4 - n % 4) % 4
        if end > len(self._data):
            raise self._underrun(end - pos)
        self._pos = end
        return self._data[pos:pos + n]

    def unpack_string(self) -> str:
        return self.unpack_opaque().decode("utf-8")

    # -- arrays --------------------------------------------------------------------
    def unpack_array(self, unpack_item: Callable) -> list:
        return [unpack_item(self) for _ in range(self.unpack_uint())]

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def done(self) -> bool:
        return self.remaining == 0
