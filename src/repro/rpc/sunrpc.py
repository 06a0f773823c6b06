"""SunRPC (RFC 1057) message format + the stock UDP/Ethernet transport.

This is the commodity baseline vRPC is measured against: each call crosses
the kernel socket layer, UDP/IP, the shared Ethernet segment and the whole
stack again on the far side — hundreds of microseconds per round trip
against vRPC's 66 µs.

The message format is real XDR, shared verbatim by the vRPC transport
(that is the compatibility constraint that forces vRPC's one receive-side
copy).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

from repro.sim import Environment, Store
from repro.hostos.ethernet import EthernetNetwork
from repro.rpc.xdr import XdrDecoder, XdrError, pack_uints

CALL = 0
REPLY = 1
MSG_ACCEPTED = 0
SUCCESS = 0
PROC_UNAVAIL = 3

#: Host CPU cost of XDR marshalling per byte (walks + converts the data)
#: plus a fixed per-message cost.
MARSHAL_FIXED_NS = 3_000
MARSHAL_NS_PER_KB = 12_000  # ≈83 MB/s marshalling walk


class RPCError(RuntimeError):
    """Call failed (no such procedure, decode error...)."""


@dataclass
class RPCProgram:
    """A program: number, version, and named procedures.

    Procedures take ``(XdrDecoder) -> bytes`` — they decode their own
    arguments and return pre-encoded XDR results, exactly like rpcgen
    server stubs.
    """

    number: int
    version: int

    def __post_init__(self):
        self._procs: dict[int, Callable[[XdrDecoder], bytes]] = {}

    def register(self, proc_number: int,
                 handler: Callable[[XdrDecoder], bytes]) -> None:
        self._procs[proc_number] = handler

    def lookup(self, proc_number: int):
        return self._procs.get(proc_number)


def encode_call(xid: int, prog: int, vers: int, proc: int,
                args: bytes) -> bytes:
    """The 10-word call header (RPC version 2, null credential and
    verifier), then ``args``."""
    return pack_uints(xid, CALL, 2, prog, vers, proc, 0, 0, 0, 0) + args


def decode_call(data: bytes):
    """``(xid, prog, vers, proc, args decoder)``; the 10-word header is
    read in one call, then its message type and RPC version checked."""
    dec = XdrDecoder(data)
    xid, mtype, rpcvers, prog, vers, proc, _, _, _, _ = dec.unpack_uints(10)
    if mtype != CALL:
        raise XdrError("not a call")
    if rpcvers != 2:
        raise XdrError("bad RPC version")
    return xid, prog, vers, proc, dec


def encode_reply(xid: int, status: int, result: bytes = b"") -> bytes:
    """The 6-word accepted-reply header (null verifier), then
    ``result``."""
    return pack_uints(xid, REPLY, MSG_ACCEPTED, 0, 0, status) + result


def decode_reply(data: bytes):
    """``(xid, status, result decoder)``; the 6-word header is read in
    one call, then its message type and acceptance checked."""
    dec = XdrDecoder(data)
    xid, mtype, accepted, _, _, status = dec.unpack_uints(6)
    if mtype != REPLY:
        raise XdrError("not a reply")
    if accepted != MSG_ACCEPTED:
        raise XdrError("message rejected")
    return xid, status, dec


def marshal_time_ns(nbytes: int) -> int:
    return MARSHAL_FIXED_NS + (nbytes * MARSHAL_NS_PER_KB) // 1000


def serve_call(env: Environment, program: RPCProgram, request: bytes):
    """Generator: the server dispatch every transport shares — decode
    the call, check program and version, run the handler (a generator
    handler runs as a process) and encode the reply.  Its value is the
    reply record, or ``None`` for a request that does not decode."""
    try:
        xid, prog, vers, proc, args = decode_call(request)
    except XdrError:
        return None
    handler = (program.lookup(proc)
               if (prog, vers) == (program.number, program.version)
               else None)
    if handler is None:
        return encode_reply(xid, PROC_UNAVAIL)
    result = handler(args)
    if hasattr(result, "__next__"):
        result = yield env.process(result)
    return encode_reply(xid, SUCCESS, result)


def check_reply(data: bytes, xid: int) -> XdrDecoder:
    """The reply to call ``xid``'s result decoder; raises
    :class:`RPCError` on a mismatched xid or a non-SUCCESS status."""
    reply_xid, status, dec = decode_reply(data)
    if reply_xid != xid:
        raise RPCError("xid mismatch")
    if status != SUCCESS:
        raise RPCError(f"status {status}")
    return dec


class SunRPCServer:
    """The stock server loop on one node's UDP endpoint."""

    def __init__(self, env: Environment, ether: EthernetNetwork,
                 address: str, program: RPCProgram):
        self.env = env
        self.ether = ether
        self.address = address
        self.program = program
        ether.register(address)
        self.calls_served = 0
        env.process(self._serve(), name=f"sunrpc.{address}")

    def _serve(self):
        while True:
            datagram = yield self.ether.receive(self.address)
            request = datagram.payload
            yield self.env.timeout(marshal_time_ns(len(request)))
            reply = yield from serve_call(self.env, self.program, request)
            if reply is None:
                continue
            self.calls_served += 1
            yield self.env.timeout(marshal_time_ns(len(reply)))
            yield self.ether.send(self.address, datagram.src, reply,
                                  nbytes=len(reply))


class UDPRPCClient:
    """The stock client on one node's UDP endpoint."""

    def __init__(self, env: Environment, ether: EthernetNetwork,
                 address: str, server_address: str,
                 prog: int, vers: int):
        self.env = env
        self.ether = ether
        self.address = address
        self.server_address = server_address
        self.prog = prog
        self.vers = vers
        ether.register(address)
        self._xids = itertools.count(1)

    def call(self, proc: int, args: bytes = b""):
        """Process: one RPC; value is the result's XdrDecoder."""
        def run():
            xid = next(self._xids)
            request = encode_call(xid, self.prog, self.vers, proc, args)
            yield self.env.timeout(marshal_time_ns(len(request)))
            yield self.ether.send(self.address, self.server_address,
                                  request, nbytes=len(request))
            while True:
                datagram = yield self.ether.receive(self.address)
                yield self.env.timeout(
                    marshal_time_ns(len(datagram.payload)))
                reply_xid, status, dec = decode_reply(datagram.payload)
                if reply_xid != xid:
                    continue  # stale retransmission
                if status != SUCCESS:
                    raise RPCError(f"status {status}")
                return dec

        return self.env.process(run(), name="sunrpc.call")
