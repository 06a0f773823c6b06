"""vRPC: the SunRPC-compatible RPC library over VMMC (section 5.4).

Design points taken from the paper:

* **wire/stub compatibility** — the call/reply records are the exact XDR
  SunRPC format from :mod:`repro.rpc.sunrpc`; only the runtime transport
  changed;
* **network layer re-implemented directly on VMMC** — client and server
  export request/reply regions to each other and deposit records with
  ``SendMsg``; no kernel, no sockets;
* **collapsed thin layer** — one small fixed cost per message instead of
  the SunRPC stack traversal;
* **one copy on every message receive** — compatibility with SunRPC stubs
  requires handing the decoder a private copy of the record, so each side
  bcopy's the record out of the exported region (two copies per round
  trip).  Bulk arguments are *sent* zero-copy straight from user buffers
  (gather on the send side costs nothing under VMMC), which is why
  bandwidth is limited by the single receive-side copy: with bcopy at
  ≈50 MB/s against a 98 MB/s transport the sustained rate lands at
  ≈33 MB/s — well below peak VMMC but far above SunRPC/UDP.

Protocol inside an exported region::

    offset 0:  u32 seq | u32 record length      (header, written last)
    offset 8:  the XDR record (call or reply)

In-order VMMC delivery guarantees the record is in place before the
header's sequence number becomes visible, so the receiver just spins on
the header word — no receive operation, no interrupts.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.mem.buffers import UserBuffer
from repro.sim.server import then
from repro.vmmc.api import VMMCEndpoint
from repro.rpc.sunrpc import RPCProgram, check_reply, encode_call, serve_call

#: The collapsed runtime layer: per-message fixed cost on each side
#: (dispatch, xid bookkeeping, null-auth processing).
THIN_LAYER_NS = 6_700
#: Fixed XDR stub cost per message (headers only — bulk opaque data is
#: passed by reference and gathered by VMMC, not walked by the stub).
STUB_FIXED_NS = 2_400

#: Region layout.
_HEADER_BYTES = 8
_DATA_OFFSET = 8


def _header(seq: int, length: int) -> bytes:
    return np.array([seq, length], dtype=">u4").tobytes()


def _parse_header(raw: np.ndarray) -> tuple[int, int]:
    words = np.frombuffer(raw.tobytes(), dtype=">u4")
    return int(words[0]), int(words[1])


class _Channel:
    """One direction of a vRPC connection: a remote region we deposit
    records into, and a local exported region we receive from."""

    def __init__(self, ep: VMMCEndpoint, local: UserBuffer, remote,
                 scratch: UserBuffer):
        self.ep = ep
        self.local = local          # exported region (we receive here)
        self.remote = remote        # ImportedBuffer (we send there)
        self.scratch = scratch      # staging for outgoing records
        self.rx_seq = 0

    def deposit(self, seq: int, record: bytes,
                bulk: UserBuffer | None = None, bulk_nbytes: int = 0):
        """Process: place a record (+ optional zero-copy bulk payload)
        into the remote region, header last."""
        ep = self.ep

        def run():
            total = len(record) + bulk_nbytes
            self.scratch.write(record)
            yield ep.send(self.scratch, self.remote.at(_DATA_OFFSET),
                          len(record))
            if bulk is not None and bulk_nbytes:
                # Bulk arguments go straight from the user's buffer —
                # VMMC's zero-copy send side.
                yield ep.send(bulk,
                              self.remote.at(_DATA_OFFSET + len(record)),
                              bulk_nbytes)
            self.scratch.write(_header(seq, total))
            yield ep.send(self.scratch, self.remote.at(0), _HEADER_BYTES)

        return ep.env.process(run(), name="vrpc.deposit")

    def await_record(self, expected_seq: int):
        """Event: spin until the next record lands; value is its bytes
        after the mandatory compatibility copy."""
        ep, local, header = self.ep, self.local, []

        def ready() -> bool:
            header[:] = _parse_header(local.read(0, _HEADER_BYTES))
            return header[0] == expected_seq

        def copy_out(done) -> None:
            # The one copy per receive that SunRPC compatibility forces.
            then(ep.membus.bcopy(header[1]), lambda _copy: done._end(
                local.read(_DATA_OFFSET, header[1]).tobytes()))

        return ep.spin(local, 0, _HEADER_BYTES, ready, copy_out)


def _connect(client_ep: VMMCEndpoint, server_ep: VMMCEndpoint,
             server_node: str, client_node: str, tag: str,
             region_bytes: int):
    """Process: wire the two regions of one connection; value is the
    (client channel, server channel) pair."""
    env = client_ep.env

    def run():
        req_region = server_ep.alloc_buffer(region_bytes)
        rep_region = client_ep.alloc_buffer(region_bytes)
        yield server_ep.export(req_region, f"vrpc.req.{tag}")
        yield client_ep.export(rep_region, f"vrpc.rep.{tag}")
        to_server = yield client_ep.import_buffer(server_node,
                                                  f"vrpc.req.{tag}")
        to_client = yield server_ep.import_buffer(client_node,
                                                  f"vrpc.rep.{tag}")
        client_chan = _Channel(client_ep, rep_region, to_server,
                               client_ep.alloc_buffer(region_bytes))
        server_chan = _Channel(server_ep, req_region, to_client,
                               server_ep.alloc_buffer(region_bytes))
        return client_chan, server_chan

    return env.process(run(), name="vrpc.connect")


class VRPCServer:
    """A vRPC server endpoint serving one program."""

    def __init__(self, ep: VMMCEndpoint, node_name: str,
                 program: RPCProgram, region_bytes: int = 512 * 1024):
        self.ep = ep
        self.env = ep.env
        self.node_name = node_name
        self.program = program
        self.region_bytes = region_bytes
        self.calls_served = 0

    def accept(self, client_ep: VMMCEndpoint, client_node: str, tag: str):
        """Process: accept one client connection and start serving it;
        value is the client's :class:`_Channel`."""
        def run():
            client_chan, server_chan = yield _connect(
                client_ep, self.ep, self.node_name, client_node, tag,
                self.region_bytes)
            self.env.process(self._serve(server_chan),
                             name=f"vrpc.serve.{tag}")
            return client_chan

        return self.env.process(run(), name="vrpc.accept")

    def _serve(self, channel: _Channel):
        seq = 1
        while True:
            request = yield channel.await_record(seq)
            yield self.env.timeout(THIN_LAYER_NS + STUB_FIXED_NS)
            reply = yield from serve_call(self.env, self.program, request)
            if reply is None:
                seq += 1
                continue
            self.calls_served += 1
            yield self.env.timeout(THIN_LAYER_NS + STUB_FIXED_NS)
            yield channel.deposit(seq, reply)
            seq += 1


class VRPCClient:
    """A vRPC client bound to one server connection."""

    def __init__(self, channel: _Channel, prog: int, vers: int):
        self.channel = channel
        self.env = channel.ep.env
        self.prog = prog
        self.vers = vers
        self._xids = itertools.count(1)
        self._seq = itertools.count(1)

    def call(self, proc: int, args: bytes = b"",
             bulk: UserBuffer | None = None, bulk_nbytes: int = 0):
        """Process: one RPC; value is the reply's XdrDecoder.

        ``bulk`` carries large opaque arguments zero-copy from the user's
        own buffer (the stub encodes only their length).
        """
        def run():
            seq = next(self._seq)
            xid = next(self._xids)
            yield self.env.timeout(THIN_LAYER_NS + STUB_FIXED_NS)
            request = encode_call(xid, self.prog, self.vers, proc, args)
            yield self.channel.deposit(seq, request, bulk, bulk_nbytes)
            reply = yield self.channel.await_record(seq)
            yield self.env.timeout(THIN_LAYER_NS + STUB_FIXED_NS)
            return check_reply(reply, xid)

        return self.env.process(run(), name="vrpc.call")
