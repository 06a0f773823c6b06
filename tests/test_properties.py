"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.myrinet.crc import _PERIOD, _POLY, _SMALL, crc8
from repro.hw.myrinet.packet import (BaselineHeader, DepositHeader,
                                     MyrinetPacket, ProbeHeader)
from repro.mem import (AddressSpace, OutOfMemoryError, PAGE_SIZE,
                       PhysicalMemory)
from repro.mem.physical import _scatter_order
from repro.mem.virtual import pages_spanned
from repro.rpc.xdr import XdrDecoder, XdrEncoder
from repro.vmmc.pagetables import OutgoingPageTable
from repro.vmmc.proxy import ProxySpace
from repro.vmmc.tlb import SoftwareTLB


# --------------------------------------------------------------------- CRC-8
def crc8_oracle(data: bytes, initial: int = 0) -> int:
    """The shift register, one bit at a time: what ``crc8`` must equal."""
    crc = initial
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = ((crc << 1) ^ _POLY) & 0xFF if crc & 0x80 else crc << 1
    return crc


#: Lengths on both sides of every branch in ``crc8``: empty, one byte,
#: one mask period, the int/fold switch-over, folds with and without a
#: ragged tail, a page and a long buffer.
_EDGE_LENGTHS = [0, 1, _PERIOD - 1, _PERIOD, _PERIOD + 1,
                 _SMALL - 1, _SMALL, _SMALL + 1,
                 5 * _PERIOD - 1, 5 * _PERIOD, 5 * _PERIOD + 1,
                 4096, 3 * 8192]


def _random_bytes(seed: int, length: int) -> bytes:
    return np.random.default_rng(seed).integers(
        0, 256, length, dtype=np.uint8).tobytes()


@pytest.mark.parametrize("length", _EDGE_LENGTHS)
@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=255),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_crc8_equals_the_byte_loop_at_every_branch_edge(length, initial, seed):
    data = _random_bytes(seed, length)
    assert crc8(data, initial) == crc8_oracle(data, initial)


@given(st.binary(max_size=2 * _SMALL), st.integers(min_value=0, max_value=255))
def test_crc8_equals_the_byte_loop(data, initial):
    assert crc8(data, initial) == crc8_oracle(data, initial)


@pytest.mark.parametrize("length", [40, _SMALL + 1])
def test_crc8_equals_the_byte_loop_for_every_initial(length):
    data = _random_bytes(length, length)
    assert [crc8(data, i) for i in range(256)] \
        == [crc8_oracle(data, i) for i in range(256)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([7, _SMALL, _SMALL + 9, 4096]), st.data(),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_crc8_chains_across_any_split(length, data, seed):
    """``seal()`` feeds the header's CRC in as the payload's ``initial``."""
    whole = _random_bytes(seed, length)
    cut = data.draw(st.integers(min_value=0, max_value=length))
    assert crc8(whole) == crc8(whole[cut:], initial=crc8(whole[:cut]))


@pytest.mark.parametrize("length", [0, 5, _SMALL, _SMALL + 1, 4096])
def test_crc8_accepts_every_buffer_kind_and_writes_to_none(length):
    array = np.random.default_rng(length).integers(
        0, 256, 2 * length, dtype=np.uint8)
    strided = array[::2]
    raw = strided.tobytes()
    readonly = strided.copy()
    readonly.setflags(write=False)
    before = array.copy()
    mutable = bytearray(raw)
    expected = crc8_oracle(raw, 0x3C)
    for buffer in (raw, mutable, memoryview(raw), strided.copy(),
                   strided, readonly):
        assert crc8(buffer, 0x3C) == expected, type(buffer)
    assert np.array_equal(array, before) and mutable == raw


@given(st.binary(min_size=0, max_size=512))
def test_crc8_in_byte_range(data):
    assert 0 <= crc8(data) <= 255


@given(st.binary(min_size=1, max_size=256),
       st.integers(min_value=0, max_value=255 * 8 - 1))
def test_crc8_detects_any_single_bitflip(data, bit):
    """CRC-8 detects every single-bit error (Hamming distance ≥ 2)."""
    flipped = bytearray(data)
    idx = (bit // 8) % len(flipped)
    flipped[idx] ^= 1 << (bit % 8)
    if bytes(flipped) != data:
        assert crc8(bytes(flipped)) != crc8(data)


@given(st.binary(max_size=256))
def test_crc8_deterministic(data):
    assert crc8(data) == crc8(data)


# ------------------------------------------------------- packet CRC syndrome
#: One header of each wire layout.
_HEADERS = [
    DepositHeader("vmmc_data", ((0x1F3000, 96), (0x0A2000, 4000)),
                  notify=True, last=False, src_node=5, msg_length=65536),
    ProbeHeader("map_probe", src=3, dst=60),
    BaselineHeader("pm_msg", seq=9, msg_length=65536, offset=8192, word=2),
]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_HEADERS), st.integers(min_value=0, max_value=70_000),
       st.integers(min_value=0, max_value=2 ** 32 - 1), st.data())
def test_the_syndrome_check_is_the_shift_register_recompute(
        header, length, seed, data):
    """1–3 flips anywhere in image + payload + CRC field: the O(flips)
    verdict equals a full recompute, and ``crc`` is the CRC sealed XOR
    the flips that hit the field itself."""
    payload = _random_bytes(seed, length)
    pkt = MyrinetPacket([0], header, payload)
    pkt.seal()
    sealed = crc8_oracle(pkt.image + payload)
    covered = 8 * (len(pkt.image) + length)
    field = 0
    bits = data.draw(st.lists(st.integers(min_value=0,
                                          max_value=covered + 7),
                              min_size=1, max_size=3))
    for bit in bits:
        pkt.flip(bit)
        if bit >= covered:
            field ^= 1 << (bit - covered)
    carried = crc8_oracle(pkt.image + pkt.payload.tobytes())
    assert pkt.crc == sealed ^ field
    assert pkt.crc_ok() == (pkt.crc == carried)


@pytest.mark.parametrize("header", _HEADERS)
def test_a_crc_field_flip_on_an_empty_payload_is_the_recompute(header):
    pkt = MyrinetPacket([0], header, b"")
    pkt.seal()
    sealed = crc8_oracle(pkt.image)
    for bit in range(8):
        pkt.flip(8 * len(pkt.image) + bit)
        assert pkt.crc == sealed ^ 1 << bit and not pkt.crc_ok()
        pkt.flip(8 * len(pkt.image) + bit)
        assert pkt.crc_ok()


def test_two_flips_one_period_apart_are_missed_by_both_checks():
    """``T`` has order 127, so the same bit flipped in two bytes 127
    apart leaves the CRC unchanged: the syndrome misses exactly what
    the recompute misses."""
    payload = _random_bytes(3, 300)
    pkt = MyrinetPacket([0], _HEADERS[2], payload)
    pkt.seal()
    sealed = crc8_oracle(pkt.image + payload)
    base = 8 * len(pkt.image)
    pkt.flip(base + 8 * 10 + 3)
    pkt.flip(base + 8 * (10 + _PERIOD) + 3)
    assert pkt.payload.tobytes() != payload
    assert crc8_oracle(pkt.image + pkt.payload.tobytes()) == sealed
    assert pkt.crc_ok()


# ----------------------------------------------------------- outgoing packing
@given(st.integers(min_value=0, max_value=255),
       st.integers(min_value=0, max_value=(1 << 24) - 1))
def test_outgoing_pack_unpack_is_identity(node, page):
    assert OutgoingPageTable.unpack(OutgoingPageTable.pack(node, page)) \
        == (node, page)


@given(st.integers(min_value=0, max_value=255),
       st.integers(min_value=0, max_value=(1 << 24) - 1),
       st.integers(min_value=0, max_value=255),
       st.integers(min_value=0, max_value=(1 << 24) - 1))
def test_outgoing_pack_injective(n1, p1, n2, p2):
    if (n1, p1) != (n2, p2):
        assert OutgoingPageTable.pack(n1, p1) != OutgoingPageTable.pack(n2, p2)


# ------------------------------------------------------------------ proxy math
@given(st.integers(min_value=0, max_value=(1 << 30)))
def test_proxy_split_reassembles(addr):
    page, off = ProxySpace.split(addr)
    assert page * PAGE_SIZE + off == addr
    assert 0 <= off < PAGE_SIZE


@given(st.lists(st.integers(min_value=1, max_value=64 * 1024), min_size=1,
                max_size=10))
def test_proxy_reservations_disjoint_and_ordered(sizes):
    space = ProxySpace(npages=1 << 16)
    regions = [space.reserve(size) for size in sizes]
    for earlier, later in zip(regions, regions[1:]):
        assert earlier.first_page + earlier.npages <= later.first_page
    for region, size in zip(regions, sizes):
        assert region.npages * PAGE_SIZE >= size


# ------------------------------------------------------------------------ TLB
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=4095),
                          st.integers(min_value=0, max_value=1 << 20)),
                max_size=200))
def test_tlb_lookup_returns_last_inserted_or_none(ops):
    """A hit always returns the most recent mapping inserted for the page."""
    tlb = SoftwareTLB(pid=1, nentries=64)
    latest = {}
    for vpage, frame in ops:
        tlb.insert(vpage, frame)
        latest[vpage] = frame
    for vpage, frame in latest.items():
        got = tlb.lookup(vpage)
        assert got is None or got == frame


@given(st.lists(st.integers(min_value=0, max_value=1023), max_size=300))
def test_tlb_occupancy_bounded_by_capacity(vpages):
    tlb = SoftwareTLB(pid=1, nentries=16)
    for vpage in vpages:
        tlb.insert(vpage, vpage + 7)
    assert tlb.occupancy <= 16
    assert tlb.hits + tlb.misses == 0  # inserts alone never count lookups


# ------------------------------------------------------------ frame allocator
def _lowest_run(free, count):
    """The first ``count`` frames of the lowest-numbered run of at least
    ``count`` consecutive free frames, or None."""
    ordered = sorted(free)
    start = 0
    for i in range(1, len(ordered) + 1):
        if i == len(ordered) or ordered[i] != ordered[i - 1] + 1:
            if i - start >= count:
                return ordered[start:start + count]
            start = i
    return None


@settings(max_examples=300, deadline=None)
@given(nframes=st.sampled_from([41, 82, 123, 256, 2048]),
       reserved=st.integers(min_value=0, max_value=2048),
       ops=st.lists(st.tuples(st.sampled_from(["one", "many", "run", "free"]),
                              st.integers(min_value=0, max_value=4095)),
                    max_size=80))
def test_frame_allocator_matches_the_free_list_it_replaced(
        nframes, reserved, ops):
    """The allocator walks the scatter sequence instead of holding it; it
    must hand out the frames the materialized free list would — the
    scatter permutation minus the reserved frames, popped from the
    front, freed frames appended, contiguous runs removed in place.
    Placement is what every physical address, trace and cell
    fingerprint in the repo hangs off.  (41, 82 and 123 frames push the
    stride past its default to stay co-prime.)"""
    reserved %= nframes + 1
    mem = PhysicalMemory(nframes * PAGE_SIZE, reserved_frames=reserved)
    free = [f for f in _scatter_order(nframes) if f >= reserved]
    held = []
    for kind, x in ops:
        if kind == "free":
            if held:
                frame = held.pop(x % len(held))
                mem.free_frame(frame)
                free.append(frame.number)
        else:
            if kind == "one":
                take = lambda: [mem.alloc_frame()]
                expected = free[:1] or None
            elif kind == "many":
                count = x % (nframes + 2)
                take = lambda: mem.alloc_frames(count)
                expected = free[:count] if count <= len(free) else None
            else:
                count = 1 + x % 12
                take = lambda: mem.alloc_contiguous(count)
                expected = _lowest_run(free, count)
            if expected is None:
                with pytest.raises(OutOfMemoryError):
                    take()
            else:
                frames = take()
                assert [f.number for f in frames] == expected
                held += frames
                for number in expected:
                    free.remove(number)
        assert mem.free_frames == len(free)
    assert {f.number for f in held} == mem._allocated


# --------------------------------------------------------------- address space
@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=PAGE_SIZE - 1),
       st.binary(min_size=1, max_size=3 * PAGE_SIZE))
def test_virtual_rw_roundtrip_any_offset(npages, offset, payload):
    mem = PhysicalMemory(64 * PAGE_SIZE)
    space = AddressSpace(mem)
    vaddr = space.mmap(npages * PAGE_SIZE)
    length = min(len(payload), npages * PAGE_SIZE - offset)
    if length <= 0:
        return
    space.write(vaddr + offset, payload[:length])
    assert space.read(vaddr + offset, length).tobytes() == payload[:length]


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=PAGE_SIZE - 1),
       st.integers(min_value=1, max_value=5 * PAGE_SIZE))
def test_physical_extents_partition_exactly(offset, nbytes):
    """Extents cover the byte range exactly, in order, page-bounded."""
    mem = PhysicalMemory(64 * PAGE_SIZE)
    space = AddressSpace(mem)
    vaddr = space.mmap(6 * PAGE_SIZE)
    extents = space.physical_extents(vaddr + offset, nbytes)
    assert sum(length for _, length in extents) == nbytes
    assert all(length > 0 for _, length in extents)
    # No extent crosses a frame boundary unless frames were contiguous.
    for paddr, length in extents:
        if length > PAGE_SIZE:
            first = paddr // PAGE_SIZE
            last = (paddr + length - 1) // PAGE_SIZE
            assert list(range(first, last + 1)) == \
                sorted(range(first, last + 1))


@given(st.integers(min_value=0, max_value=1 << 24),
       st.integers(min_value=0, max_value=1 << 16))
def test_pages_spanned_consistent_with_manual_count(vaddr, nbytes):
    if nbytes == 0:
        assert pages_spanned(vaddr, nbytes) == 0
    else:
        expected = (vaddr + nbytes - 1) // PAGE_SIZE - vaddr // PAGE_SIZE + 1
        assert pages_spanned(vaddr, nbytes) == expected


# ------------------------------------------------------------------------- XDR
@given(st.lists(st.binary(max_size=200), max_size=10))
def test_xdr_opaque_sequence_roundtrip(blobs):
    enc = XdrEncoder()
    for blob in blobs:
        enc.pack_opaque(blob)
    dec = XdrDecoder(enc.getvalue())
    assert [dec.unpack_opaque() for _ in blobs] == blobs
    assert dec.done()


@given(st.lists(st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1),
                max_size=50))
def test_xdr_int_list_roundtrip(values):
    enc = XdrEncoder().pack_array(values, lambda e, v: e.pack_int(v))
    assert XdrDecoder(enc.getvalue()).unpack_array(
        lambda d: d.unpack_int()) == values


@given(st.binary(max_size=128))
def test_xdr_stream_always_word_aligned(blob):
    enc = XdrEncoder().pack_opaque(blob)
    assert len(enc.getvalue()) % 4 == 0


# ---------------------------------------------------------- end-to-end payload
@settings(max_examples=5, deadline=None)
@given(st.binary(min_size=1, max_size=30_000),
       st.integers(min_value=0, max_value=PAGE_SIZE - 1))
def test_vmmc_delivers_arbitrary_payloads_intact(payload, dest_offset):
    """Whatever the bytes, size or destination alignment: what the sender
    wrote is exactly what lands in the exported buffer."""
    from repro import Cluster, TestbedConfig

    cluster = Cluster.build(TestbedConfig(nnodes=2, memory_mb=8))
    env = cluster.env
    _, sender = cluster.nodes[0].attach_process("s")
    _, receiver = cluster.nodes[1].attach_process("r")

    def app():
        inbox = receiver.alloc_buffer(64 * 1024)
        yield receiver.export(inbox, "inbox")
        imported = yield sender.import_buffer("node1", "inbox")
        src = sender.alloc_buffer(64 * 1024)
        src.write(payload)
        yield sender.send(src, imported, len(payload),
                          dest_offset=dest_offset)
        yield env.timeout(5_000_000)
        assert inbox.read(dest_offset, len(payload)).tobytes() == payload

    env.run(until=env.process(app()))
