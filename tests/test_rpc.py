"""Tests for XDR, SunRPC/UDP and vRPC (section 5.4)."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro import Cluster, TestbedConfig
from repro.sim import Environment
from repro.hostos.ethernet import EthernetNetwork
from repro.rpc import (
    RPCError,
    RPCProgram,
    SunRPCServer,
    UDPRPCClient,
    VRPCClient,
    VRPCServer,
    XdrDecoder,
    XdrEncoder,
    XdrError,
)
from repro.rpc import sunrpc


# ----------------------------------------------------------------------- XDR
def test_xdr_uint_roundtrip():
    data = XdrEncoder().pack_uint(0).pack_uint(12345).pack_uint(
        (1 << 32) - 1).getvalue()
    dec = XdrDecoder(data)
    assert [dec.unpack_uint() for _ in range(3)] == [0, 12345, (1 << 32) - 1]
    assert dec.done()


def test_xdr_int_negative():
    data = XdrEncoder().pack_int(-1).pack_int(-(1 << 31)).getvalue()
    dec = XdrDecoder(data)
    assert dec.unpack_int() == -1
    assert dec.unpack_int() == -(1 << 31)


def test_xdr_range_checks():
    with pytest.raises(XdrError):
        XdrEncoder().pack_uint(-1)
    with pytest.raises(XdrError):
        XdrEncoder().pack_uint(1 << 32)
    with pytest.raises(XdrError):
        XdrEncoder().pack_int(1 << 31)


def test_xdr_opaque_padding_to_4():
    data = XdrEncoder().pack_opaque(b"abcde").getvalue()
    assert len(data) == 4 + 8  # length word + 5 bytes padded to 8
    assert XdrDecoder(data).unpack_opaque() == b"abcde"


def test_xdr_string_utf8():
    data = XdrEncoder().pack_string("héllo").getvalue()
    assert XdrDecoder(data).unpack_string() == "héllo"


def test_xdr_bool_and_hyper():
    data = XdrEncoder().pack_bool(True).pack_bool(False) \
        .pack_uhyper(1 << 40).getvalue()
    dec = XdrDecoder(data)
    assert dec.unpack_bool() is True
    assert dec.unpack_bool() is False
    assert dec.unpack_uhyper() == 1 << 40


def test_xdr_array():
    data = XdrEncoder().pack_array(
        [1, 2, 3], lambda e, v: e.pack_uint(v)).getvalue()
    assert XdrDecoder(data).unpack_array(
        lambda d: d.unpack_uint()) == [1, 2, 3]


def test_xdr_underrun_detected():
    with pytest.raises(XdrError):
        XdrDecoder(b"\0\0").unpack_uint()


def test_xdr_bad_bool():
    with pytest.raises(XdrError):
        XdrDecoder(XdrEncoder().pack_uint(7).getvalue()).unpack_bool()


# ----------------------------------------------------------- SunRPC messages
def test_call_reply_roundtrip():
    args = XdrEncoder().pack_string("arg").getvalue()
    raw = sunrpc.encode_call(42, 100, 1, 7, args)
    xid, prog, vers, proc, dec = sunrpc.decode_call(raw)
    assert (xid, prog, vers, proc) == (42, 100, 1, 7)
    assert dec.unpack_string() == "arg"

    reply = sunrpc.encode_reply(42, sunrpc.SUCCESS,
                                XdrEncoder().pack_uint(9).getvalue())
    rxid, status, rdec = sunrpc.decode_reply(reply)
    assert (rxid, status) == (42, sunrpc.SUCCESS)
    assert rdec.unpack_uint() == 9


def test_decode_call_rejects_reply():
    reply = sunrpc.encode_reply(1, sunrpc.SUCCESS)
    with pytest.raises(XdrError):
        sunrpc.decode_call(reply)


# ------------------------------------- header codecs against field by field
# The 10-word call header and the 6-word reply header are packed and
# unpacked in one struct call each.  The oracle is the field-by-field
# codec they replaced: ``pack_uint`` per word, and a decoder that takes
# each word with a bounds-checked slice.
class FieldDecoder:
    """One word at a time, each a bounds-checked slice."""

    def __init__(self, data):
        self.data, self.pos = bytes(data), 0

    def uint(self):
        if self.pos + 4 > len(self.data):
            raise XdrError("underrun")
        self.pos += 4
        return struct.unpack(">I", self.data[self.pos - 4:self.pos])[0]


def field_encode_call(xid, prog, vers, proc, args):
    enc = XdrEncoder()
    for word in (xid, sunrpc.CALL, 2, prog, vers, proc, 0, 0, 0, 0):
        enc.pack_uint(word)
    return enc.getvalue() + args


def field_decode_call(data):
    dec = FieldDecoder(data)
    xid = dec.uint()
    if dec.uint() != sunrpc.CALL:
        raise XdrError("not a call")
    if dec.uint() != 2:
        raise XdrError("bad RPC version")
    prog, vers, proc = dec.uint(), dec.uint(), dec.uint()
    for _ in range(4):                   # null credential and verifier
        dec.uint()
    return xid, prog, vers, proc, dec.data[dec.pos:]


def field_encode_reply(xid, status, result):
    enc = XdrEncoder()
    for word in (xid, sunrpc.REPLY, sunrpc.MSG_ACCEPTED, 0, 0, status):
        enc.pack_uint(word)
    return enc.getvalue() + result


def field_decode_reply(data):
    dec = FieldDecoder(data)
    xid = dec.uint()
    if dec.uint() != sunrpc.REPLY:
        raise XdrError("not a reply")
    if dec.uint() != sunrpc.MSG_ACCEPTED:
        raise XdrError("message rejected")
    dec.uint(), dec.uint()               # null verifier
    return xid, dec.uint(), dec.data[dec.pos:]


def outcome(function, *args):
    """The value, with a result decoder as the bytes it has left, or the
    type of the exception raised."""
    try:
        value = function(*args)
    except Exception as exc:            # noqa: BLE001 - compared by type
        return type(exc)
    if value and isinstance(value, tuple) and \
            isinstance(value[-1], XdrDecoder):
        dec = value[-1]
        value = (*value[:-1], bytes(dec._data[dec._pos:]))
    return value


_FIELD = st.integers(-(1 << 33), 1 << 33)
_WORD = st.one_of(st.integers(0, 3), st.integers(0, (1 << 32) - 1))


@settings(max_examples=300, deadline=None)
@given(fields=st.tuples(_FIELD, _FIELD, _FIELD, _FIELD),
       args=st.binary(max_size=12))
def test_call_header_encodes_as_field_by_field(fields, args):
    assert outcome(sunrpc.encode_call, *fields, args) == \
        outcome(field_encode_call, *fields, args)
    xid, _prog, _vers, status = fields
    assert outcome(sunrpc.encode_reply, xid, status, args) == \
        outcome(field_encode_reply, xid, status, args)


@settings(max_examples=300, deadline=None)
@given(words=st.lists(_WORD, min_size=10, max_size=10),
       tail=st.binary(max_size=9))
def test_headers_decode_as_field_by_field_at_every_truncation(words, tail):
    # Arbitrary words, so the message type, RPC version and acceptance
    # are often wrong, and every prefix, so each can be followed by an
    # underrun.
    image = struct.pack(">10I", *words) + tail
    for cut in range(len(image) + 1):
        data = image[:cut]
        assert outcome(sunrpc.decode_call, data) == \
            outcome(field_decode_call, data)
        assert outcome(sunrpc.decode_reply, data) == \
            outcome(field_decode_reply, data)


def test_a_bad_message_type_then_an_underrun_is_an_xdr_error():
    data = struct.pack(">II", 5, sunrpc.REPLY)           # a call's first words
    for decode in (sunrpc.decode_call, field_decode_call):
        with pytest.raises(XdrError):
            decode(data)
    with pytest.raises(XdrError):
        sunrpc.decode_reply(struct.pack(">II", 5, sunrpc.CALL))


_OPS = st.lists(st.sampled_from(
    ["uint", "int", "uhyper", "bool", "opaque", "uints0", "uints3"]),
    max_size=6)


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=40), ops=_OPS)
def test_decoder_fields_read_as_bounds_checked_slices(data, ops):
    """Each ``unpack_*`` against the slice-per-field reading it replaced:
    the same values, the same position, an ``XdrError`` on the same
    field."""
    dec, pos, got, want = XdrDecoder(data), 0, [], []

    def take(n):
        nonlocal pos
        if pos + n > len(data):
            raise XdrError("underrun")
        pos += n
        return data[pos - n:pos]

    def oracle(op):
        if op == "uint":
            return struct.unpack(">I", take(4))[0]
        if op == "int":
            return struct.unpack(">i", take(4))[0]
        if op == "uhyper":
            return struct.unpack(">Q", take(8))[0]
        if op == "bool":
            value = struct.unpack(">I", take(4))[0]
            if value not in (0, 1):
                raise XdrError("bad bool")
            return bool(value)
        if op == "opaque":
            n = struct.unpack(">I", take(4))[0]
            return take(n + (4 - n % 4) % 4)[:n]
        return tuple(struct.unpack(">I", take(4))[0]
                     for _ in range(int(op[-1])))

    for op in ops:
        read = (lambda: dec.unpack_uints(int(op[-1]))) \
            if op.startswith("uints") else getattr(dec, f"unpack_{op}")
        got.append(outcome(read))
        want.append(outcome(oracle, op))
        if want[-1] is XdrError:
            break
        assert dec._pos == pos
    assert got == want


# --------------------------------------------------------------- UDP baseline
def make_udp_pair():
    env = Environment()
    ether = EthernetNetwork(env)
    prog = RPCProgram(0x20000001, 1)
    prog.register(0, lambda dec: b"")
    prog.register(1, lambda dec: XdrEncoder().pack_uint(
        dec.unpack_uint() + 1).getvalue())
    server = SunRPCServer(env, ether, "srv", prog)
    client = UDPRPCClient(env, ether, "cli", "srv", prog.number, 1)
    return env, server, client


def test_udp_rpc_roundtrip():
    env, server, client = make_udp_pair()
    got = {}

    def app():
        dec = yield client.call(1, XdrEncoder().pack_uint(41).getvalue())
        got["result"] = dec.unpack_uint()

    env.run(until=env.process(app()))
    assert got["result"] == 42
    assert server.calls_served == 1


def test_udp_rpc_unknown_proc():
    env, server, client = make_udp_pair()

    def app():
        with pytest.raises(RPCError):
            yield client.call(99)

    env.run(until=env.process(app()))


def test_udp_null_rpc_takes_hundreds_of_us():
    env, server, client = make_udp_pair()
    times = {}

    def app():
        t0 = env.now
        yield client.call(0)
        times["rt"] = env.now - t0

    env.run(until=env.process(app()))
    assert times["rt"] > 300_000  # > 300 us


# ----------------------------------------------------------------------- vRPC
def make_vrpc(region_bytes=256 * 1024):
    cluster = Cluster.build(TestbedConfig(nnodes=2, memory_mb=32))
    env = cluster.env
    _, client_ep = cluster.nodes[0].attach_process("client")
    _, server_ep = cluster.nodes[1].attach_process("server")
    prog = RPCProgram(0x20000001, 1)
    prog.register(0, lambda dec: b"")
    prog.register(1, lambda dec: XdrEncoder().pack_uint(
        dec.unpack_uint() * 2).getvalue())
    prog.register(2, lambda dec: XdrEncoder().pack_uint(
        dec.unpack_uint()).getvalue())  # bulk: echo declared length
    server = VRPCServer(server_ep, "node1", prog, region_bytes=region_bytes)
    state = {}

    def setup():
        chan = yield server.accept(client_ep, "node0", "t")
        state["client"] = VRPCClient(chan, prog.number, prog.version)

    env.run(until=env.process(setup()))
    return cluster, env, server, state["client"], client_ep


def test_vrpc_call_roundtrip():
    cluster, env, server, client, _ = make_vrpc()
    got = {}

    def app():
        dec = yield client.call(1, XdrEncoder().pack_uint(21).getvalue())
        got["result"] = dec.unpack_uint()

    env.run(until=env.process(app()))
    assert got["result"] == 42
    assert server.calls_served == 1


def test_vrpc_many_sequential_calls():
    cluster, env, server, client, _ = make_vrpc()
    results = []

    def app():
        for i in range(10):
            dec = yield client.call(1, XdrEncoder().pack_uint(i).getvalue())
            results.append(dec.unpack_uint())

    env.run(until=env.process(app()))
    assert results == [2 * i for i in range(10)]


def test_vrpc_null_roundtrip_near_66us():
    """The headline vRPC number: 66 us round trip on Myrinet VMMC."""
    cluster, env, server, client, _ = make_vrpc()
    times = {}

    def app():
        yield client.call(0)  # warm
        t0 = env.now
        for _ in range(8):
            yield client.call(0)
        times["rt_us"] = (env.now - t0) / 8 / 1000

    env.run(until=env.process(app()))
    assert times["rt_us"] == pytest.approx(66, rel=0.08)


def test_vrpc_bulk_bandwidth_copy_limited():
    """One receive-side copy at ~50 MB/s against a 98 MB/s transport:
    sustained bulk bandwidth lands near 33 MB/s — far below peak VMMC,
    far above SunRPC/UDP."""
    cluster, env, server, client, client_ep = make_vrpc()
    res = {}

    def app():
        bulk = client_ep.alloc_buffer(128 * 1024)
        args = XdrEncoder().pack_uint(128 * 1024).getvalue()
        yield client.call(2, args=args, bulk=bulk, bulk_nbytes=128 * 1024)
        t0 = env.now
        for _ in range(4):
            yield client.call(2, args=args, bulk=bulk,
                              bulk_nbytes=128 * 1024)
        res["mbps"] = 4 * 128 * 1024 / (env.now - t0) * 1000

    env.run(until=env.process(app()))
    assert 25 <= res["mbps"] <= 40
    # Below VMMC peak (98.4), above the UDP baseline (<10).
    assert res["mbps"] < 90


def test_vrpc_unknown_proc_raises():
    cluster, env, server, client, _ = make_vrpc()

    def app():
        with pytest.raises(RPCError):
            yield client.call(42)

    env.run(until=env.process(app()))
