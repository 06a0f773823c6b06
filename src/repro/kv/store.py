"""The per-shard store and its RPC program (XDR wire format).

One :class:`KVStore` per server rank, exported as an
:class:`~repro.rpc.sunrpc.RPCProgram` with two procedures::

    GET(key: uhyper) -> (found: bool, value: opaque, version: uhyper)
    PUT(key: uhyper, value: opaque) -> (version: uhyper)

Versions are per-key monotone counters, so a client can assert
read-your-writes ordering from replies alone.  The handlers are plain
functions over the decoder — exactly the rpcgen server-stub shape
:mod:`repro.rpc.sunrpc` expects — so the same program object serves
over vRPC or the reliable RPC layer unchanged.
"""

from __future__ import annotations

import struct

from repro.rpc.sunrpc import RPCProgram
from repro.rpc.xdr import XdrDecoder, XdrError

__all__ = ["KVStore", "KV_PROGRAM_NUMBER", "KV_PROGRAM_VERSION",
           "PROC_GET", "PROC_PUT", "encode_get_args", "encode_put_args",
           "decode_get_reply", "decode_put_reply"]

KV_PROGRAM_NUMBER = 0x20000101
KV_PROGRAM_VERSION = 1
PROC_GET = 1
PROC_PUT = 2


#: XDR words packed in one call: a uhyper (a key, a version), a PUT's
#: key and value length, a GET reply's found flag and value length.
_U64 = struct.Struct(">Q")
_U64_U32 = struct.Struct(">QI")
_FOUND_LENGTH = struct.Struct(">II")


def _key(key: int) -> int:
    if not 0 <= key < (1 << 64):
        raise XdrError(f"uhyper out of range: {key}")
    return key


# -- argument / reply marshalling (shared by client and tests) -------------
# Each message is a few struct calls over the same XDR layout the
# XdrEncoder chain writes (a uhyper key, an opaque padded to 4 bytes).
def encode_get_args(key: int) -> bytes:
    return _U64.pack(_key(key))


def encode_put_args(key: int, value: bytes) -> bytes:
    value = bytes(value)
    return (_U64_U32.pack(_key(key), len(value)) + value
            + b"\0" * (-len(value) % 4))


def decode_get_reply(dec: XdrDecoder) -> tuple[bool, bytes, int]:
    """(found, value, version); value is ``b""`` when not found."""
    found = dec.unpack_bool()
    return found, dec.unpack_opaque(), dec.unpack_uhyper()


def decode_put_reply(dec: XdrDecoder) -> int:
    return dec.unpack_uhyper()


class KVStore:
    """One shard's in-memory store with per-key versions."""

    def __init__(self, name: str):
        self.name = name
        self._data: dict[int, tuple[bytes, int]] = {}
        self.gets = 0
        self.puts = 0

    def get(self, key: int) -> tuple[bool, bytes, int]:
        self.gets += 1
        entry = self._data.get(key)
        if entry is None:
            return False, b"", 0
        return True, entry[0], entry[1]

    def put(self, key: int, value: bytes) -> int:
        self.puts += 1
        version = self._data.get(key, (b"", 0))[1] + 1
        self._data[key] = (bytes(value), version)
        return version

    def __len__(self) -> int:
        return len(self._data)

    # -- the RPC surface ----------------------------------------------------
    def program(self) -> RPCProgram:
        """This store as an RPC program (GET/PUT handlers registered)."""
        prog = RPCProgram(KV_PROGRAM_NUMBER, KV_PROGRAM_VERSION)

        def handle_get(dec: XdrDecoder) -> bytes:
            found, value, version = self.get(dec.unpack_uhyper())
            return (_FOUND_LENGTH.pack(found, len(value)) + value
                    + b"\0" * (-len(value) % 4) + _U64.pack(version))

        def handle_put(dec: XdrDecoder) -> bytes:
            key = dec.unpack_uhyper()
            version = self.put(key, dec.unpack_opaque())
            return _U64.pack(version)

        prog.register(PROC_GET, handle_get)
        prog.register(PROC_PUT, handle_put)
        return prog
