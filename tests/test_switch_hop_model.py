"""A switch hop against the worm process it replaced.

``Switch.receive`` is three timers on the event core (crossbar, tail
leaving, cable delivery) and one integer per output port.  It used to
be a process per worm holding a ``Resource`` per output port, feeding a
link that held its own ``_wire`` ``Resource`` — kept below, as it was,
as the reference.  Both are driven through the same fabric with random
arrival times, sizes, routes, error draws and faults, on one switch and
on a two-switch chain, and must agree on everything observable:
delivery order and times, the CRC verdict of each delivery, the
``{switch}.forward`` / ``{link}.tx`` / drop records, and every counter.
"""

from hypothesis import given, settings, strategies as st

from repro.hw.myrinet import Link, LinkParams, MyrinetPacket, Switch
from repro.hw.myrinet.packet import BaselineHeader
from repro.hw.myrinet.switch import SWITCH_LATENCY_NS
from repro.sim import Environment, Resource, Timeout, Tracer
from repro.sim.trace import emit


class WormLink(Link):
    """The link as it was: a ``_wire`` resource, a generator per packet,
    and a generator sink (a switch) run as a new process."""

    def __init__(self, env, params=None, name="link"):
        super().__init__(env, params, name=name)
        self._wire = Resource(env)

    def transmit(self, packet):
        if self.sink is None:
            raise RuntimeError(f"{self.name}: link not connected")
        return self._transmit(packet)

    def _transmit(self, packet):
        with self._wire.request() as req:
            yield req
            wire_bytes = packet.wire_bytes
            wire_time = self.params.wire_time_ns(wire_bytes)
            emit(self.env, f"{self.name}.tx",
                 bytes=wire_bytes, wire_time=wire_time)
            error_rate = self.effective_error_rate
            if error_rate > 0 and self._rng.random() < error_rate:
                packet.corrupt(bit=int(self._rng.integers(0, 1 << 16)))
                self.errors_injected += 1
            self.packets_carried += 1
            self.bytes_carried += wire_bytes
            yield self.env.timeout(wire_time)
        self.env.timeout(self.params.latency_ns).callbacks.append(
            lambda _arrival: self._deliver(packet))

    def _deliver(self, packet):
        if not self.is_up:
            self.packets_lost_down += 1
            emit(self.env, f"{self.name}.lost_down",
                 bytes=packet.wire_bytes)
            return
        result = self.sink(packet)
        if hasattr(result, "__next__"):
            self.env.process(result, name=f"{self.name}.deliver")


class WormSwitch(Switch):
    """The switch as it was: a ``Resource`` per output port, and the worm
    crossing it a process (start, crossbar latency, wire time)."""

    def __init__(self, env, nports, name):
        super().__init__(env, nports=nports, name=name)
        self._out_ports = [Resource(env) for _ in range(nports)]

    def receive(self, packet):
        port = packet.next_port()
        self._check_port(port)
        link = self._out_links[port]
        if link is None:
            self.drops += 1
            emit(self.env, f"{self.name}.drop", port=port)
            return
        if port in self._down_ports:
            self.drops += 1
            self.port_down_drops += 1
            emit(self.env, f"{self.name}.drop_port_down", port=port)
            return
        with self._out_ports[port].request() as req:
            yield req
            yield self.env.timeout(self.latency_ns)
            self.packets_forwarded += 1
            emit(self.env, f"{self.name}.forward", port=port,
                 bytes=packet.wire_bytes)
            yield from link.transmit(packet)


#: Routes from a source into sw0.  Port 2 leads to sw1 on the chain and
#: is unconnected on a single switch; port 3 is never connected.
SW0_ROUTES = ([0], [1], [3], [2, 0], [2, 1], [2, 3])
#: Routes from the source cabled straight into sw1 (chain only).
SW1_ROUTES = ([0], [1], [3])

_PACKETS = st.lists(st.tuples(
    st.integers(0, 2),                  # source
    st.integers(0, 3000),               # gap before it, ns
    st.integers(0, 1500),               # payload bytes
    st.integers(0, len(SW0_ROUTES) - 1)), max_size=30)
_FAULTS = st.lists(st.tuples(
    st.sampled_from(["port", "link"]),
    st.integers(0, 7),                  # which port / output link
    st.integers(0, 40_000),             # raised at, ns
    st.integers(1, 8_000)), max_size=4)  # held for, ns


def run_fabric(switch_cls, link_cls, chain, error_rate, packets, faults):
    """Build sw0 (and sw1 on a chain), feed it, return what was seen."""
    env = Environment()
    env.tracer = Tracer(keep=lambda c: c.endswith(
        (".forward", ".tx", ".drop", ".drop_port_down", ".lost_down")))
    params = LinkParams(error_rate=error_rate)
    switches = [switch_cls(env, 4, "sw0")]
    if chain:
        switches.append(switch_cls(env, 4, "sw1"))
    delivered = {}
    out_links = []
    for s, sw in enumerate(switches):
        for port in (0, 1):
            host = f"h{2 * s + port}"
            link = link_cls(env, params, name=f"{sw.name}->{host}")
            got = delivered.setdefault(host, [])
            link.connect(lambda pkt, got=got: got.append(
                (pkt.header.seq, env.now, pkt.crc_ok())))
            sw.attach_output(port, link)
            out_links.append(link)
    if chain:
        trunk = link_cls(env, params, name="sw0->sw1")
        trunk.connect(switches[1].receive)
        switches[0].attach_output(2, trunk)
        out_links.append(trunk)
    feeds = []
    for i in range(3):
        target = switches[-1] if (chain and i == 2) else switches[0]
        link = link_cls(env, params, name=f"src{i}->{target.name}")
        link.connect(target.receive)
        feeds.append(link)

    def source(i):
        routes = SW1_ROUTES if (chain and i == 2) else SW0_ROUTES
        for seq, (src, gap, size, choice) in enumerate(packets):
            if src != i:
                continue
            yield env.timeout(gap)
            packet = MyrinetPacket(list(routes[choice % len(routes)]),
                                   BaselineHeader("api_msg", seq),
                                   bytes(size))
            packet.seal()
            sent = feeds[i].transmit(packet)
            if isinstance(sent, Timeout):       # the tail timer
                yield sent
            else:                               # the reference's generator
                yield from sent

    def urgent(when, action):
        # A fault raised in the nanosecond a worm arrives is seen by
        # that worm in both models: the reference checked the port one
        # event after the arrival, so an ordinary fault event could fall
        # between the two.
        event = env.event()
        event._value = None
        event.callbacks.append(lambda _event: action())
        env._schedule(event, when, Environment.PRIORITY_URGENT)

    for kind, which, at, hold in faults:
        if kind == "port":
            sw = switches[which % len(switches)]
            port = which % sw.nports
            urgent(at, lambda sw=sw, port=port: sw.set_port_down(port))
            urgent(at + hold, lambda sw=sw, port=port: sw.set_port_up(port))
        else:
            link = out_links[which % len(out_links)]
            urgent(at, link.set_down)
            urgent(at + hold, link.set_up)
    for i in range(3):
        env.process(source(i))
    env.run()
    records = sorted((r.time, r.category, tuple(sorted(r.payload.items())))
                     for r in env.tracer.records)
    counters = ([(sw.packets_forwarded, sw.drops, sw.port_down_drops)
                 for sw in switches]
                + [(l.packets_carried, l.bytes_carried, l.errors_injected,
                    l.packets_lost_down) for l in out_links + feeds])
    return delivered, records, counters


@settings(max_examples=200, deadline=None)
@given(chain=st.booleans(), error_rate=st.sampled_from([0.0, 0.3]),
       packets=_PACKETS, faults=_FAULTS)
def test_switch_hop_matches_the_worm_process_it_replaced(
        chain, error_rate, packets, faults):
    new = run_fabric(Switch, Link, chain, error_rate, packets, faults)
    old = run_fabric(WormSwitch, WormLink, chain, error_rate, packets,
                     faults)
    assert new[0] == old[0]                 # per host: order, time, CRC
    assert new[1] == old[1]                 # forward / tx / drop records
    assert new[2] == old[2]                 # switch and link counters


def test_the_model_sees_contention_drops_and_errors():
    # One fixed scenario, so a change that made the property vacuous
    # (nothing queued, nothing dropped, nothing corrupted) fails here.
    packets = [(0, 0, 1500, 0), (1, 0, 1500, 0), (0, 0, 64, 2),
               (1, 10, 800, 1), (2, 0, 100, 0), (2, 5, 800, 1),
               (2, 5, 50, 2), (0, 0, 200, 3)]
    faults = [("port", 1, 0, 100_000)]          # sw1 port 1, throughout
    delivered, records, counters = run_fabric(
        Switch, Link, True, 0.3, packets, faults)
    (t0, t1) = [t for _seq, t, _ok in delivered["h0"]]
    # Two 1.5 KB worms for sw0 port 0 arrive together; the second waits
    # for the first's tail to leave the port, then crosses the crossbar.
    assert t1 - t0 == (LinkParams().wire_time_ns(1500 + 1 + 16 + 1)
                       + SWITCH_LATENCY_NS)
    assert counters[0][1] == 1                  # sw0: unconnected port
    assert counters[1][1:] == (2, 1)            # sw1: one of each
    assert any(not ok for got in delivered.values() for *_, ok in got)
    assert len({t for t, category, _ in records
                if category == "sw0.forward"}) >= 2
    assert run_fabric(WormSwitch, WormLink, True, 0.3, packets,
                      faults) == (delivered, records, counters)
