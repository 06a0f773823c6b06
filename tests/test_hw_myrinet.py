"""Tests for the Myrinet fabric: CRC, packets, links, switches, topology."""

import dataclasses

import numpy as np
import pytest

from repro.sim import Environment
from repro.hw.myrinet import (
    Link,
    LinkParams,
    MyrinetNetwork,
    MyrinetPacket,
    PortRangeError,
    PortRef,
    Switch,
    crc8,
    topology,
)
from repro.hw.myrinet.packet import BaselineHeader, DepositHeader, ProbeHeader


def make_packet(route=(), payload=b"hello", seq=0):
    return MyrinetPacket(list(route), BaselineHeader("api_msg", seq), payload)


# ---------------------------------------------------------------------- CRC
def test_crc8_known_vector():
    # CRC-8/ATM of "123456789" is 0xF4 (standard check value).
    assert crc8(b"123456789") == 0xF4


def test_crc8_empty():
    assert crc8(b"") == 0


def test_crc8_detects_single_bitflip():
    data = bytearray(b"some packet payload")
    reference = crc8(bytes(data))
    data[3] ^= 0x10
    assert crc8(bytes(data)) != reference


def test_crc8_numpy_and_bytes_agree():
    payload = np.arange(256, dtype=np.uint8)
    assert crc8(payload) == crc8(payload.tobytes())


# ------------------------------------------------------------------- packets
def test_packet_seal_and_check():
    pkt = make_packet(payload=b"payload", seq=7)
    pkt.seal()
    assert pkt.crc_ok()


def test_packet_corruption_detected():
    pkt = make_packet(payload=b"payload bytes")
    pkt.seal()
    pkt.corrupt(bit=13)
    assert not pkt.crc_ok()


def test_empty_payload_corruption_detected():
    """No payload: ``corrupt`` flips the CRC field's lowest bit, the
    last bit ``flip`` reaches."""
    pkt = make_packet(payload=b"")
    pkt.seal()
    sealed = pkt.crc
    pkt.corrupt()
    assert not pkt.crc_ok() and pkt.crc == sealed ^ 1
    with pytest.raises(ValueError, match="outside"):
        pkt.flip(8 * (len(pkt.image) + 1))


def test_unsealed_packet_fails_the_check():
    assert not make_packet(payload=b"payload").crc_ok()


def test_every_single_bit_error_in_a_4kb_data_packet_is_caught():
    """The chained image-then-payload CRC, through the packet API, at
    the size and header shape the long-send path puts on the wire: a
    flip of any bit of the type byte, the header or the payload fails
    the check, exactly when a full recompute fails, leaves the wire CRC
    as sealed, and flipping the bit back passes the check again."""
    payload = np.random.default_rng(7).integers(0, 256, 4096, dtype=np.uint8)
    pkt = MyrinetPacket([1], DepositHeader(
        "vmmc_data", ((0x1F3000, 4096),), notify=False, last=False,
        src_node=0, msg_length=65536), payload)
    pkt.seal()
    assert pkt.crc_ok()
    image = pkt.image
    assert len(image) == 1 + 16
    sealed = crc8(image + payload.tobytes())
    assert pkt.crc == sealed
    missed, disagree = [], []
    for bit in range(8 * (len(image) + 4096)):
        pkt.flip(bit)
        recomputed = crc8(pkt.image + pkt.payload.tobytes()) == sealed
        if pkt.crc_ok():
            missed.append(bit)
        if pkt.crc_ok() != recomputed or pkt.crc != sealed:
            disagree.append(bit)
        pkt.flip(bit)
        if not pkt.crc_ok():
            missed.append(("not restored", bit))
    assert missed == [] and disagree == []
    assert pkt.image == image and np.array_equal(pkt.payload, payload)
    assert pkt.crc == sealed


def test_a_sealed_payload_cannot_be_written_or_rebound():
    pkt = make_packet(payload=np.arange(64, dtype=np.uint8))
    pkt.seal()
    with pytest.raises(ValueError, match="read-only"):
        pkt.payload[0] = 1
    with pytest.raises(AttributeError):
        pkt.payload = np.zeros(64, dtype=np.uint8)
    with pytest.raises(AttributeError):
        pkt.image = b"\x34" + bytes(16)
    pkt.flip(8 * len(pkt.image))
    with pytest.raises(ValueError, match="read-only"):
        pkt.payload[0] = 1
    assert pkt.payload[0] == 1 and not pkt.crc_ok()


def test_the_callers_array_stays_writable_and_the_packet_keeps_its_copy():
    """A flip copies the payload before it writes, so the sender's
    buffer never sees a wire error."""
    data = np.arange(64, dtype=np.uint8)
    pkt = make_packet(payload=data)
    pkt.seal()
    data[1] = 7                     # still the caller's to write
    assert data.flags.writeable
    pkt.corrupt(bit=8 * 2)
    assert data[2] == 2 and pkt.payload[2] == 3


def test_corrupt_flips_the_payload_bit_its_draw_names():
    """``corrupt(bit)`` flips bit ``bit % 8`` of payload byte
    ``(bit // 8) % size``: the link's draw picks the same bit it
    always has."""
    for bit, (index, mask) in [(0, (0, 1)), (8 * 5 + 3, (5, 8)),
                               (8 * 13 + 1, (3, 2)), (65535, (1, 128))]:
        pkt = make_packet(payload=bytes(10))
        pkt.seal()
        pkt.corrupt(bit)
        expected = np.zeros(10, dtype=np.uint8)
        expected[index] = mask
        assert np.array_equal(pkt.payload, expected), bit


def test_resealing_a_corrupted_packet_adopts_the_corrupted_bytes():
    pkt = make_packet(payload=b"payload bytes")
    pkt.seal()
    before = pkt.crc
    pkt.corrupt(bit=13)
    assert not pkt.crc_ok()
    pkt.seal()
    assert pkt.crc_ok()
    assert pkt.crc == crc8(pkt.image + pkt.payload.tobytes()) != before


#: Every header layout and the header bytes the link charged for it
#: while headers were a declared size: the image must be exactly that.
CHARGED = {DepositHeader: 16, ProbeHeader: 8, BaselineHeader: 16}


def _sample(cls, kind):
    if cls is DepositHeader:
        return DepositHeader(kind, ((0x1F3FF0, 16), (0x0A2000, 4080)),
                             notify=True, last=False, src_node=63,
                             msg_length=(8 << 20) - 1)
    if cls is ProbeHeader:
        return ProbeHeader(kind, src=3, dst=60)
    return BaselineHeader(kind, seq=9, msg_length=65536, offset=8192,
                          word=2)


def _other(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    return tuple((addr + 4, length) for addr, length in value)


def test_every_header_kind_packs_to_the_bytes_the_link_charges():
    type_bytes = [t for cls in CHARGED for t in cls.TYPES.values()]
    assert len(set(type_bytes)) == len(type_bytes)
    for cls, charged in CHARGED.items():
        for kind, type_byte in cls.TYPES.items():
            header = _sample(cls, kind)
            image = header.pack()
            assert len(image) == charged, kind
            packet = MyrinetPacket([2, 5], header, b"x" * 10)
            assert packet.image == bytes((type_byte,)) + image
            assert packet.wire_bytes == 2 + 1 + charged + 10 + 1
            # Every field is on the wire: changing any one changes the image.
            for field in dataclasses.fields(header)[1:]:
                changed = dataclasses.replace(
                    header, **{field.name: _other(getattr(header,
                                                          field.name))})
                assert changed.pack() != image, (kind, field.name)
    with pytest.raises(ValueError, match="24-bit"):
        DepositHeader("vmmc_data", ((0, 4096),), False, True, 0,
                      1 << 24).pack()


def test_packet_route_consumption():
    pkt = make_packet(route=[3, 1])
    assert pkt.hops_remaining == 2
    assert pkt.next_port() == 3
    assert pkt.next_port() == 1
    assert pkt.route_exhausted
    with pytest.raises(ValueError):
        pkt.next_port()


def test_packet_wire_bytes_accounting():
    pkt = make_packet(route=[1], payload=b"x" * 100)
    # 1 route + 1 type + 16 header + 100 payload + 1 crc
    assert pkt.wire_bytes == 119
    pkt.next_port()
    assert pkt.wire_bytes == 118  # route byte consumed


def test_header_access():
    hdr = DepositHeader("vmmc_data", ((0x5000, 4096),), notify=False,
                        last=True, src_node=1, msg_length=4096)
    assert hdr.extents == ((0x5000, 4096),)
    assert hdr.msg_length == 4096
    assert getattr(hdr, "missing", 7) == 7
    with pytest.raises(dataclasses.FrozenInstanceError):
        hdr.last = False


# --------------------------------------------------------------------- links
def test_link_delivers_in_order_with_timing():
    env = Environment()
    link = Link(env, LinkParams())
    got = []
    link.connect(lambda pkt: got.append((pkt.header.seq, env.now)))

    def sender():
        for seq in range(3):
            yield link.transmit(
                make_packet(payload=b"z" * 1006, seq=seq))

    env.process(sender())
    env.run()
    assert [seq for seq, _ in got] == [0, 1, 2]
    # wire_bytes = 0 route + 1 + 16 + 1006 + 1 = 1024 -> 6400 ns at 160 MB/s.
    assert got[0][1] == 6400 + 100  # wire time + latency
    assert got[1][1] == 2 * 6400 + 100  # pipelined back-to-back


def test_link_160mbps_rate():
    params = LinkParams()
    # 1.28 Gb/s = 160 MB/s -> 16 KB takes 102.4 us
    assert params.wire_time_ns(16 * 1024) == pytest.approx(102400, rel=0.01)


def test_link_error_injection_detected():
    env = Environment()
    link = Link(env, LinkParams(error_rate=1.0),
                rng=np.random.default_rng(42))
    got = []
    link.connect(got.append)

    def sender():
        pkt = make_packet(payload=b"data to protect")
        pkt.seal()
        yield link.transmit(pkt)

    env.process(sender())
    env.run()
    assert len(got) == 1
    assert not got[0].crc_ok()
    assert link.errors_injected == 1


def test_link_unconnected_raises():
    env = Environment()
    link = Link(env)
    with pytest.raises(RuntimeError):
        link.transmit(make_packet())


def test_inject_on_uncabled_host_raises_at_the_call():
    # Misuse fails where it is written, not when the returned generator
    # is first advanced — and the packet is not stamped as injected.
    env = Environment()
    net = MyrinetNetwork(env)
    net.add_host("node0")
    packet = make_packet()
    with pytest.raises(RuntimeError, match="not cabled"):
        net.inject("node0", packet)
    assert packet.injected_at is None


# ------------------------------------------------------------------ switches
def test_switch_routes_by_route_byte():
    env = Environment()
    sw = Switch(env, nports=4)
    out = {1: [], 2: []}
    for port in (1, 2):
        link = Link(env, name=f"out{port}")
        link.connect(out[port].append)
        sw.attach_output(port, link)

    assert sw.receive(make_packet(route=[1], seq=1)) is None
    assert sw.receive(make_packet(route=[2], seq=2)) is None
    env.run()
    assert [p.header.seq for p in out[1]] == [1]
    assert [p.header.seq for p in out[2]] == [2]
    assert sw.packets_forwarded == 2


def test_switch_drops_on_unconnected_port():
    env = Environment()
    sw = Switch(env, nports=4)
    sw.receive(make_packet(route=[3]))
    assert sw.drops == 1
    assert env.peek() is None               # a dropped worm schedules nothing


def test_switch_bad_port_rejected():
    env = Environment()
    sw = Switch(env, nports=4, name="swX")
    with pytest.raises(PortRangeError) as exc:
        sw.receive(make_packet(route=[9]))
    # The error names the offending switch — essential in multi-switch
    # fabrics — and carries typed fields.
    assert exc.value.switch == "swX"
    assert exc.value.port == 9
    assert exc.value.nports == 4
    assert "swX" in str(exc.value)


# ------------------------------------------------------------------ topology
def test_single_switch_topology_routes():
    env = Environment()
    net = topology.build(topology.SingleSwitchSpec(nhosts_=4), env)
    assert net.host_names == ["node0", "node1", "node2", "node3"]
    route = net.compute_route("node0", "node3")
    assert route == [3]  # one switch hop, output port 3
    assert net.compute_route("node0", "node0") == []


def test_compute_route_needs_an_installed_table():
    # Routes come only from topology.build's proven table; a hand-cabled
    # fabric has none and says where to get one.
    net = MyrinetNetwork(Environment())
    net.add_switch("sw")
    for i in range(2):
        net.add_host(f"node{i}")
        net.connect(PortRef(f"node{i}"), PortRef("sw", i))
    with pytest.raises(ValueError, match="topology.build"):
        net.compute_route("node0", "node1")


def test_dual_switch_topology_routes():
    env = Environment()
    net = topology.build(topology.DualSwitchSpec(nhosts_=4), env)
    # node0 on sw0, node3 on sw1: two switch hops.
    route = net.compute_route("node0", "node3")
    assert len(route) == 2
    assert route[0] == 7  # sw0's uplink port


def test_canned_topology_classmethods_are_gone():
    # The deprecated shims were removed; topology.build() is the only way.
    for removed in ("single_switch", "dual_switch"):
        with pytest.raises(AttributeError):
            getattr(MyrinetNetwork, removed)


def test_end_to_end_delivery_through_switch():
    env = Environment()
    net = topology.build("single:2", env)
    got = []
    net.attach_host_sink("node1", got.append)

    def sender():
        pkt = make_packet(route=net.compute_route("node0", "node1"),
                          payload=b"through the fabric")
        pkt.seal()
        yield net.inject("node0", pkt)

    env.process(sender())
    env.run()
    assert len(got) == 1
    assert got[0].crc_ok()
    assert bytes(got[0].payload) == b"through the fabric"
    assert got[0].route_exhausted


def test_a_second_feeder_overlapping_a_link_raises():
    # A link has no arbiter: the feeder serialises it.  Two injections
    # onto one cable in the same nanosecond are a modelling error, and it
    # is loud.
    env = Environment()
    net = topology.build("single:2", env)
    net.inject("node0", make_packet(route=[1], seq=1))
    with pytest.raises(RuntimeError, match="before the previous tail left"):
        net.inject("node0", make_packet(route=[1], seq=2))


def test_packets_before_sink_attachment_are_queued():
    env = Environment()
    net = topology.build("single:2", env)

    def sender():
        pkt = make_packet(route=[1], payload=b"early")
        yield net.inject("node0", pkt)

    env.process(sender())
    env.run()
    got = []
    net.attach_host_sink("node1", got.append)
    assert len(got) == 1


def test_duplicate_device_names_rejected():
    env = Environment()
    net = MyrinetNetwork(env)
    net.add_host("a")
    with pytest.raises(ValueError):
        net.add_host("a")
    with pytest.raises(ValueError):
        net.add_switch("a")


def test_host_single_cable_enforced():
    env = Environment()
    net = MyrinetNetwork(env)
    net.add_host("h0")
    net.add_switch("sw", nports=4)
    net.connect(PortRef("h0"), PortRef("sw", 0))
    with pytest.raises(ValueError):
        net.connect(PortRef("h0"), PortRef("sw", 1))


def test_single_switch_capacity_check():
    with pytest.raises(ValueError):
        topology.SingleSwitchSpec(nhosts_=9, switch_ports=8)
