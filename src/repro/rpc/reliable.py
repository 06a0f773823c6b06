"""RPC service plumbing over the reliable VMMC layer.

:mod:`repro.rpc.vrpc` is the paper's section-5.4 artifact: raw VMMC
deposits with spin-wait receive — the right transport for a trusted
ping-pong benchmark, but a service that must *stay up* under link error
bursts and daemon cold crashes needs retransmission, exactly-once
delivery and transparent re-import.  This module runs the same SunRPC
XDR wire format (:mod:`repro.rpc.sunrpc`, unchanged) over a pair of
:mod:`repro.vmmc.reliable` channels, one per direction:

* calls pipeline through the sender's AIMD window (several requests in
  flight per connection, FIFO, exactly once);
* replies are demultiplexed by xid, so the server may finish calls in
  any order and reply sends never serialise on the client's ACK;
* both channels ride the reliable layer's loss recovery and stale-import
  reimport machinery, so the connection survives the chaos scenarios the
  KV campaign schedules.

Cost model: the same collapsed thin layer + fixed stub cost per message
as vRPC (:data:`~repro.rpc.vrpc.THIN_LAYER_NS`,
:data:`~repro.rpc.vrpc.STUB_FIXED_NS`); the transport cost is whatever
the reliable channel actually spends.
"""

from __future__ import annotations

import itertools

from repro.sim import Environment, Event, Timeout
from repro.sim.server import then
from repro.vmmc.api import VMMCEndpoint
from repro.vmmc.errors import RetriesExhausted
from repro.vmmc.reliable import ReliableError, open_channel
from repro.rpc.sunrpc import (
    SUCCESS,
    RPCError,
    RPCProgram,
    decode_reply,
    encode_call,
    serve_call,
)
from repro.rpc.vrpc import STUB_FIXED_NS, THIN_LAYER_NS
from repro.rpc.xdr import XdrError

__all__ = ["ReliableRPCClient", "ReliableRPCServer", "connect_reliable_rpc"]


class ReliableRPCServer:
    """Serves one :class:`~repro.rpc.sunrpc.RPCProgram` over a reliable
    connection (requests in via ``receiver``, replies out via
    ``sender``)."""

    def __init__(self, program: RPCProgram, receiver, sender, name: str):
        self.program = program
        self.receiver = receiver
        self.sender = sender
        self.name = name
        self.env: Environment = sender.env
        self.calls_served = 0
        #: Replies the transport gave up on (retry budget exhausted mid
        #: chaos window); the bench's delivery gate counts these.
        self.reply_failures = 0

    def start(self):
        """Start the serve loop; returns its (never-ending) process."""
        return self.env.process(self._serve(), name=f"rrpc.serve.{self.name}")

    def _serve(self):
        env, recv = self.env, self.receiver.recv
        while True:
            request = yield recv()
            yield Timeout(env, THIN_LAYER_NS + STUB_FIXED_NS)
            reply = yield from serve_call(env, self.program, bytes(request))
            if reply is None:
                continue
            self.calls_served += 1
            yield Timeout(env, THIN_LAYER_NS + STUB_FIXED_NS)
            # Replies pipeline through the channel window; blocking the
            # serve loop on the client's transport ACK would put one
            # round trip between every pair of requests.  The reply send
            # starts from an event at ``now``, so the loop posts its next
            # ``recv`` first.
            Timeout(env, 0, reply).callbacks.append(self._reply)

    def _reply(self, start: Timeout) -> None:
        self.sender.send(start._value).callbacks.append(self._replied)

    def _replied(self, sent: Event) -> None:
        """A reply send ended; a transport failure is counted, not
        raised."""
        if not sent._ok:
            if not isinstance(sent._value,
                              (ReliableError, RetriesExhausted)):
                raise sent._value
            sent.defuse()
            self.reply_failures += 1


class ReliableRPCClient:
    """Client side of one reliable RPC connection.

    Concurrent :meth:`call` s pipeline through the request channel's
    AIMD window; a single demux process matches replies to callers by
    xid, so calls complete as their replies arrive regardless of order.
    A reply nobody waits for — a duplicate, one for a call that already
    failed, or one that does not decode — is dropped.
    """

    def __init__(self, prog: int, vers: int, sender, receiver, name: str):
        self.prog = prog
        self.vers = vers
        self.sender = sender
        self.receiver = receiver
        self.name = name
        self.env: Environment = sender.env
        self.calls_sent = 0
        self._xids = itertools.count(1)
        self._pending: dict[int, Event] = {}
        self._demux_started = False

    def _demux(self):
        """Match each reply to its caller; the waiter's value is the
        reply's ``(status, result decoder)``."""
        recv, pending = self.receiver.recv, self._pending
        while True:
            raw = yield recv()
            try:
                xid, status, dec = decode_reply(raw)
            except XdrError:
                continue
            waiter = pending.pop(xid, None)
            if waiter is not None:
                waiter.succeed((status, dec))

    def call(self, proc: int, args: bytes = b"") -> Event:
        """Event: one RPC; value is the reply's XdrDecoder.

        Fails with :class:`~repro.rpc.sunrpc.RPCError` on a non-SUCCESS
        reply status; transport-level exhaustion surfaces as
        :class:`~repro.vmmc.reliable.RetriesExhausted`.  The call starts
        from one event at ``now``, where it takes its xid.
        """
        env = self.env
        if not self._demux_started:
            self._demux_started = True
            env.process(self._demux(), name=f"rrpc.demux.{self.name}")
        done = Event(env)
        Timeout(env, 0, (proc, args, done)).callbacks.append(self._call)
        return done

    def _call(self, start: Timeout) -> None:
        proc, args, done = start._value
        env = self.env
        xid = next(self._xids)
        waiter = Event(env)

        def post(_stub):
            self._pending[xid] = waiter
            self.sender.send(encode_call(
                xid, self.prog, self.vers, proc, args)).callbacks.append(sent)

        def sent(event):
            if not event._ok:
                event.defuse()
                self._pending.pop(xid, None)
                return done.fail(event._value)
            self.calls_sent += 1
            then(waiter, replied)

        def replied(_reply):
            Timeout(env, THIN_LAYER_NS + STUB_FIXED_NS).callbacks.append(
                decode)

        def decode(_stub):
            status, dec = waiter._value
            if status != SUCCESS:
                return done.fail(RPCError(f"status {status}"))
            done._end(dec)

        Timeout(env, THIN_LAYER_NS + STUB_FIXED_NS).callbacks.append(post)


def connect_reliable_rpc(client_ep: VMMCEndpoint, server_ep: VMMCEndpoint,
                         tag: str, program: RPCProgram):
    """Process: wire one reliable RPC connection (one default-geometry
    :func:`~repro.vmmc.reliable.open_channel` per direction) and start
    its serve loop; value is the ``(ReliableRPCClient,
    ReliableRPCServer)`` pair."""
    env = client_ep.env

    def run():
        req_tx, req_rx = yield open_channel(
            client_ep, server_ep, f"rrpc.{tag}.req")
        rep_tx, rep_rx = yield open_channel(
            server_ep, client_ep, f"rrpc.{tag}.rep")
        server = ReliableRPCServer(program, req_rx, rep_tx, tag)
        client = ReliableRPCClient(program.number, program.version,
                                   req_tx, rep_rx, tag)
        server.start()
        return client, server

    return env.process(run(), name=f"rrpc.connect.{tag}")
