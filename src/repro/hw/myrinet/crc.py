"""CRC-8 as computed by the Myrinet link hardware.

Myrinet appends an 8-bit CRC to every packet on send and checks it on
arrival (paper section 3).  We use the CRC-8/ATM (HEC) polynomial
x^8 + x^2 + x + 1 (0x07), computed over the real bytes the packet
carries — so wire-level bit-flip injection is genuinely detected.

The register step ``crc' = T[crc ^ byte]`` is GF(2)-linear, so (zero
init, no final XOR) ``crc = XOR_i T^(n-i)[data[i]]``: output bit *o* is
the parity of ``message AND mask_o``, and ``mask_o``'s byte for a
message byte depends only on that byte's distance from the **end**.
With the message as one big-endian Python int, eight ANDs and eight
popcounts give the eight bits; ``initial`` is XOR-ed into the first byte,
which is where it enters the register.  ``T`` has finite order (127 for
this polynomial), so the masks repeat with that period and bytes one
period apart contribute alike: a long buffer is first XOR-folded, in one
numpy reduce, onto its first period plus the ragged tail.

The same table gives a flip's *syndrome*: flipping bit *j* of the byte
*d* places from the end changes the CRC by ``T^(d+1)[1 << j]``
(:func:`flip_syndrome`), one column of the power table the masks are
read from.  A packet keeps the XOR of its flips' syndromes and checks
that, so :func:`crc8` is no longer on the per-packet path: it is the
oracle the syndrome is held to and what derives a packet's wire CRC on
demand.  The shift register itself lives in the tests, as the oracle
this form is held to in turn.
"""

from __future__ import annotations

import numpy as np

_POLY = 0x07
#: Buffers up to this many mask periods go through the int form as they
#: are; numpy's fixed cost is repaid from about here.
_SMALL_PERIODS = 4


def _build_masks() -> tuple[list[list[int]], list[int]]:
    """The powers of ``T`` over one period and the eight masks,
    ``_SMALL_PERIODS`` periods long, as big-endian ints (lowest byte =
    last message byte)."""
    step = []
    for crc in range(256):
        for _ in range(8):
            crc = ((crc << 1) ^ _POLY) & 0xFF if crc & 0x80 else crc << 1
        step.append(crc)
    # powers[d][j] = T^(d+1)[1 << j]: what bit j of the byte at distance
    # d from the end leaves in the register; stop at T^k == identity.
    basis = [1 << j for j in range(8)]
    column, powers = basis, []
    while not powers or column != basis:
        column = [step[c] for c in column]
        powers.append(column)
    masks = []
    for o in range(8):
        row = bytes(sum((column[j] >> o & 1) << j for j in range(8))
                    for column in reversed(powers))
        masks.append(int.from_bytes(row * _SMALL_PERIODS, "big"))
    return powers, masks


_POWERS, _MASKS = _build_masks()
_PERIOD = len(_POWERS)
_SMALL = _SMALL_PERIODS * _PERIOD


def flip_syndrome(distance: int, bit: int) -> int:
    """How flipping bit ``bit`` of the byte ``distance`` places from the
    end of a message changes its CRC-8: ``crc8`` of the flipped message
    is ``crc8`` of the original XOR this."""
    return _POWERS[distance % _PERIOD][bit]


def crc8(data: bytes | bytearray | memoryview | np.ndarray,
         initial: int = 0) -> int:
    """CRC-8/ATM over ``data`` (bytes-like or a 1-D ``uint8`` array,
    never written to); returns a value in [0, 255].  ``crc8(a + b) ==
    crc8(b, initial=crc8(a))``."""
    array = isinstance(data, np.ndarray)
    n = data.size if array else len(data)
    if n > _SMALL:
        buf = np.asarray(data, dtype=np.uint8) if array \
            else np.frombuffer(data, dtype=np.uint8)
        whole = n - n % _PERIOD
        data = np.bitwise_xor.reduce(
            buf[:whole].reshape(-1, _PERIOD), axis=0).tobytes() \
            + buf[whole:].tobytes()
        n = len(data)
    elif array:
        data = np.asarray(data, dtype=np.uint8).tobytes()
    if n == 0:
        return initial & 0xFF
    message = int.from_bytes(data, "big") ^ ((initial & 0xFF) << 8 * (n - 1))
    crc = 0
    for o, mask in enumerate(_MASKS):
        crc |= ((message & mask).bit_count() & 1) << o
    return crc
