"""Unit tests for VMMC data structures: page tables, proxy space, TLB,
send queues."""

import sys

import pytest

from repro.hw.lanai import SRAM
from repro.mem.virtual import PAGE_SIZE
from repro.vmmc import (
    IncomingPageTable,
    OutgoingPageTable,
    ProxyFault,
    ProxySpace,
    SHORT_SEND_LIMIT,
    SendQueue,
    SoftwareTLB,
)
from repro.vmmc.proxy import ProxyRegion
from repro.vmmc.sendqueue import SendRequest
from repro.vmmc.tlb import DEFAULT_ENTRIES


# --------------------------------------------------------- incoming table
def test_incoming_default_deny():
    table = IncomingPageTable(nframes=128)
    assert not table.writable(5)


def test_incoming_allow_and_revoke():
    table = IncomingPageTable(nframes=128)
    table.allow(7, owner_pid=42, buffer_id=1, notify=True)
    entry = table.lookup(7)
    assert entry.writable and entry.notify
    assert entry.owner_pid == 42 and entry.buffer_id == 1
    table.revoke(7)
    assert not table.writable(7)


def test_incoming_bounds():
    table = IncomingPageTable(nframes=16)
    with pytest.raises(ValueError):
        table.writable(16)
    with pytest.raises(ValueError):
        table.allow(-1, 0, 0)


def test_incoming_first_unwritable_frame():
    table = IncomingPageTable(nframes=16)
    table.allow(3, owner_pid=1, buffer_id=0)
    assert table.first_unwritable(((3 * PAGE_SIZE + 8, 64),)) is None
    # The first denied frame in extent order, crossing into frame 4.
    assert table.first_unwritable(
        ((3 * PAGE_SIZE + 100, PAGE_SIZE), (9 * PAGE_SIZE, 4))) == 4
    # A zero-length piece touches no frame.
    assert table.first_unwritable(((3 * PAGE_SIZE, 4),
                                   (9 * PAGE_SIZE, 0))) is None


def test_incoming_sram_accounting():
    sram = SRAM()
    IncomingPageTable(nframes=16384, sram=sram)
    # One 32-bit word per physical frame: 64 KB for a 64 MB host.
    assert sram.usage_report()["incoming_page_table"] == 64 * 1024


# --------------------------------------------------------- outgoing table
def test_outgoing_pack_unpack_roundtrip():
    for node, page in [(0, 0), (3, 12345), (255, (1 << 24) - 1)]:
        packed = OutgoingPageTable.pack(node, page)
        assert OutgoingPageTable.unpack(packed) == (node, page)
        assert 0 <= packed < (1 << 32)


def test_outgoing_pack_range_checks():
    with pytest.raises(ValueError):
        OutgoingPageTable.pack(256, 0)
    with pytest.raises(ValueError):
        OutgoingPageTable.pack(0, 1 << 24)


def test_outgoing_set_lookup_clear():
    table = OutgoingPageTable(pid=1, npages=16)
    assert table.lookup(3) is None
    table.set_entry(3, node_index=2, phys_page=777)
    assert table.lookup(3) == (2, 777)
    table.clear_entry(3)
    assert table.lookup(3) is None


def test_outgoing_resolve_scatters_at_most_two_extents():
    table = OutgoingPageTable(pid=1, npages=4)
    table.set_entry(0, node_index=2, phys_page=50)
    table.set_entry(1, node_index=2, phys_page=9)
    table.set_entry(2, node_index=3, phys_page=70)
    # Within one page: one extent, not a second empty one.
    assert table.resolve(100, 64) == (2, ((50 * PAGE_SIZE + 100, 64),))
    # Across a page boundary: the receive-side two-piece scatter.
    assert table.resolve(PAGE_SIZE - 16, 48) == (
        2, ((51 * PAGE_SIZE - 16, 16), (9 * PAGE_SIZE, 32)))
    # Into another node's page, an unmapped page or past the table: None.
    assert table.resolve(2 * PAGE_SIZE - 8, 16) is None
    assert table.resolve(3 * PAGE_SIZE + 8, 4) is None
    table.set_entry(3, node_index=3, phys_page=71)
    assert table.resolve(4 * PAGE_SIZE - 8, 16) is None


def test_outgoing_import_limit_is_8mb():
    table = OutgoingPageTable(pid=1)
    assert table.import_capacity_bytes == 8 * 1024 * 1024


def test_outgoing_bounds():
    table = OutgoingPageTable(pid=1, npages=4)
    with pytest.raises(ValueError):
        table.set_entry(4, 0, 0)


def test_outgoing_sram_per_process():
    sram = SRAM()
    OutgoingPageTable(pid=10, sram=sram)
    OutgoingPageTable(pid=11, sram=sram)
    report = sram.usage_report()
    assert report["outgoing_pt.pid10"] == 2048 * 4
    assert report["outgoing_pt.pid11"] == 2048 * 4


# -------------------------------------------------------------- proxy space
def test_proxy_reserve_consecutive():
    space = ProxySpace(npages=16)
    r1 = space.reserve(PAGE_SIZE)
    r2 = space.reserve(3 * PAGE_SIZE + 1)
    assert r1.first_page == 0 and r1.npages == 1
    assert r2.first_page == 1 and r2.npages == 4
    assert space.pages_reserved == 5


def test_proxy_address_computation():
    region = ProxyRegion(first_page=3, npages=2, nbytes=5000)
    assert region.base_address == 3 * PAGE_SIZE
    assert region.address(0) == 3 * PAGE_SIZE
    assert region.address(4999) == 3 * PAGE_SIZE + 4999
    with pytest.raises(ProxyFault):
        region.address(5000)


def test_proxy_exhaustion_is_the_8mb_limit():
    space = ProxySpace(npages=2)
    space.reserve(2 * PAGE_SIZE)
    with pytest.raises(ProxyFault):
        space.reserve(1)


def test_proxy_split():
    page, off = ProxySpace.split(5 * PAGE_SIZE + 123)
    assert (page, off) == (5, 123)
    with pytest.raises(ProxyFault):
        ProxySpace.split(-1)


def test_proxy_zero_size_rejected():
    with pytest.raises(ProxyFault):
        ProxySpace(4).reserve(0)


# ------------------------------------------------------------------- TLB
def test_tlb_reach_is_8mb():
    tlb = SoftwareTLB(pid=1)
    assert tlb.nentries == DEFAULT_ENTRIES == 2048
    assert tlb.reach_bytes == 8 * 1024 * 1024


def test_tlb_miss_then_hit():
    tlb = SoftwareTLB(pid=1, nentries=8)
    assert tlb.lookup(100) is None
    tlb.insert(100, 55)
    assert tlb.lookup(100) == 55
    assert tlb.misses == 1 and tlb.hits == 1


def test_tlb_two_way_conflict_eviction_lru():
    tlb = SoftwareTLB(pid=1, nentries=8)  # 4 sets, 2 ways
    # vpages 0, 4, 8 all map to set 0.
    tlb.insert(0, 10)
    tlb.insert(4, 14)
    assert tlb.lookup(0) == 10  # make vpage 0 most recently used
    tlb.insert(8, 18)           # evicts vpage 4 (LRU)
    assert tlb.lookup(4) is None
    assert tlb.lookup(0) == 10
    assert tlb.lookup(8) == 18
    assert tlb.evictions == 1


def test_tlb_update_existing_entry():
    tlb = SoftwareTLB(pid=1, nentries=8)
    tlb.insert(3, 30)
    tlb.insert(3, 31)
    assert tlb.lookup(3) == 31
    assert tlb.occupancy == 1
    assert tlb.evictions == 0


def test_tlb_invalidate_and_flush():
    tlb = SoftwareTLB(pid=1, nentries=8)
    tlb.insert(1, 11)
    tlb.insert(2, 12)
    assert tlb.invalidate(1)
    assert not tlb.invalidate(1)
    assert tlb.lookup(1) is None
    tlb.flush()
    assert tlb.occupancy == 0


def test_tlb_entries_must_be_even():
    with pytest.raises(ValueError):
        SoftwareTLB(pid=1, nentries=7)


def test_tlb_sram_footprint():
    sram = SRAM()
    SoftwareTLB(pid=5, sram=sram)
    assert sram.usage_report()["tlb.pid5"] == 2048 * 8  # 16 KB per process


def test_tlb_builds_ways_on_first_touch():
    # The SRAM footprint is charged in full; the host-side objects of a
    # set exist only once the set is touched (2 048 ways per attached
    # process otherwise, most of them never used).
    before = sys.getallocatedblocks()
    tlb = SoftwareTLB(pid=1)
    assert sys.getallocatedblocks() - before < 100
    assert tlb.occupancy == 0 and not tlb.invalidate(7)
    tlb.insert(7, 70)
    tlb.insert(7 + tlb.nsets, 71)
    assert (tlb.lookup(7), tlb.lookup(7 + tlb.nsets)) == (70, 71)
    assert tlb.occupancy == 2


# ------------------------------------------------------------- send queue
def make_request(slot, length=4, short=True):
    return SendRequest(slot=slot, length=length, proxy_address=0,
                       is_short=short,
                       inline_data=b"\0" * length if short else None)


def test_send_queue_fifo():
    q = SendQueue(pid=1, nslots=4)
    for i in range(3):
        q.post(make_request(q.reserve()))
    assert q.depth == 3
    picked = [q.pickup().slot for _ in range(3)]
    assert picked == [0, 1, 2]
    assert q.depth == 0


def test_send_queue_overflow_detected():
    q = SendQueue(pid=1, nslots=2)
    q.post(make_request(q.reserve()))
    q.post(make_request(q.reserve()))
    assert not q.slot_available()
    with pytest.raises(RuntimeError):
        q.reserve()


def test_send_queue_wraparound():
    q = SendQueue(pid=1, nslots=2)
    for i in range(6):
        q.post(make_request(q.reserve()))
        q.pickup()
    assert q.posted == 6 and q.picked_up == 6


def test_send_queue_reservation_is_atomic():
    """Two in-flight sends reserve distinct slots; posting out of order
    keeps FIFO pickup (the LCP waits for the head slot to become valid)."""
    q = SendQueue(pid=1, nslots=4)
    a = q.reserve()
    b = q.reserve()
    assert a != b
    q.post(make_request(b))
    assert q.peek() is None          # head (slot a) not yet valid
    q.post(make_request(a))
    assert q.pickup().slot == a      # FIFO restored
    assert q.pickup().slot == b


def test_send_queue_unreserved_post_rejected():
    q = SendQueue(pid=1, nslots=4)
    with pytest.raises(ValueError):
        q.post(make_request(2))


def test_send_queue_pickup_empty_rejected():
    q = SendQueue(pid=1, nslots=4)
    with pytest.raises(RuntimeError):
        q.pickup()


def test_request_pio_word_accounting():
    short = make_request(0, length=100, short=True)
    assert short.control_words == 4
    assert short.data_words == 25
    long = SendRequest(slot=0, length=4096, proxy_address=0, is_short=False,
                       src_vaddr=0x1000)
    assert long.control_words == 4
    assert long.data_words == 0  # no data copy for long requests


def test_short_limit_is_128():
    assert SHORT_SEND_LIMIT == 128


def test_send_queue_sram_footprint():
    sram = SRAM()
    SendQueue(pid=9, sram=sram)
    assert sram.usage_report()["sendq.pid9"] == 32 * 144
