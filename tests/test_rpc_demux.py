"""The reliable RPC client's xid demultiplexer, against hostile replies.

``ReliableRPCClient`` matches replies to callers by xid in one demux
loop.  Here both channel ends are a scripted stand-in, so the reply
stream can be anything: replies out of call order, duplicates, replies
for xids nobody issued, bytes that do not decode, and late replies for
calls whose request send already failed.  Every caller must get exactly
its own (first) reply or its own send failure, every other reply must be
dropped, a caller with no reply must still be waiting, and nothing may
escape when the simulation runs on.
"""

from hypothesis import given, settings, strategies as st

from repro.rpc.reliable import ReliableRPCClient
from repro.rpc.sunrpc import SUCCESS, encode_call, encode_reply
from repro.rpc.xdr import XdrEncoder
from repro.sim import Environment, Event, Store
from repro.vmmc.errors import RetriesExhausted

PROG, VERS = 0x20000099, 1
#: Every call has posted its request (its stub time, 9.1 us, is over)
#: before any send resolves, and every send resolves before the first
#: reply lands — so which replies a caller can see is the script alone.
SEND_RESOLVES_NS = 15_000
REPLIES_FROM_NS = 60_000


class ScriptedWire:
    """Both channel ends the client sees.  ``send`` returns an event the
    script resolves; ``recv`` hands out the scripted replies in order."""

    def __init__(self, env: Environment):
        self.env = env
        self.sends: list[Event] = []
        self.replies = Store(env)

    def send(self, request: bytes) -> Event:
        event = Event(self.env)
        self.sends.append(event)
        return event

    def recv(self) -> Event:
        return self.replies.get()


def reply_for(caller: int, copy: int) -> bytes:
    """A SUCCESS reply to call ``caller`` (xid ``caller + 1``) whose
    result names the caller and which copy of the reply it is."""
    return encode_reply(caller + 1, SUCCESS,
                        XdrEncoder().pack_uint(caller * 100 + copy)
                        .getvalue())


_REPLY = st.one_of(
    st.tuples(st.just("reply"), st.integers(0, 5)),
    st.tuples(st.just("unknown"), st.integers(7, 1000)),
    st.tuples(st.just("junk"), st.binary(max_size=30)),
    st.tuples(st.just("call"), st.integers(0, 5)))


@settings(max_examples=150, deadline=None)
@given(ncallers=st.integers(1, 6),
       send_fails=st.lists(st.booleans(), min_size=6, max_size=6),
       script=st.lists(st.tuples(st.integers(0, 40_000), _REPLY),
                       max_size=14))
def test_every_caller_gets_exactly_its_own_reply(ncallers, send_fails,
                                                 script):
    env = Environment()
    wire = ScriptedWire(env)
    client = ReliableRPCClient(PROG, VERS, wire, wire, "demux")
    outcome = {}

    def caller(i):
        try:
            dec = yield client.call(1, b"")
            outcome[i] = ("reply", dec.unpack_uint())
        except RetriesExhausted:
            outcome[i] = ("failed",)

    for i in range(ncallers):
        env.process(caller(i))

    def resolve_sends():
        yield env.timeout(SEND_RESOLVES_NS)
        assert len(wire.sends) == ncallers
        for i, sent in enumerate(wire.sends):
            if send_fails[i]:
                sent.fail(RetriesExhausted(f"call {i}"))
            else:
                sent.succeed(i + 1)

    copies = [0] * 6

    def deliver():
        yield env.timeout(REPLIES_FROM_NS - env.now)
        for gap, (kind, arg) in script:
            yield env.timeout(gap)
            if kind == "reply":
                copies[arg] += 1
                wire.replies.put(reply_for(arg, copies[arg]))
            elif kind == "unknown":
                wire.replies.put(encode_reply(arg, SUCCESS))
            elif kind == "junk":
                wire.replies.put(arg)
            else:                       # a call where a reply belongs
                wire.replies.put(encode_call(arg + 1, PROG, VERS, 1, b""))

    env.process(resolve_sends())
    env.run(until=env.process(deliver()))
    env.run()                           # nothing escapes

    replied = {arg for _gap, (kind, arg) in script if kind == "reply"}
    for i in range(ncallers):
        if send_fails[i]:
            assert outcome[i] == ("failed",)
        elif i in replied:
            assert outcome[i] == ("reply", i * 100 + 1)
        else:
            assert i not in outcome     # still waiting for its reply
    assert sorted(client._pending) == [
        i + 1 for i in range(ncallers)
        if not send_fails[i] and i not in replied]
    assert client.calls_sent == ncallers - sum(send_fails[:ncallers])
