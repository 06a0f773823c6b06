"""Unit tests for the memory substrate (physical frames, VM, buffers)."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Environment
from repro.mem import (
    AddressSpace,
    OutOfMemoryError,
    PAGE_SIZE,
    PageFault,
    PhysicalMemory,
    UserBuffer,
    page_offset,
    page_round_down,
    page_round_up,
    vpage_of,
)
from repro.mem.virtual import pages_spanned


def make_memory(mb=4, **kw):
    return PhysicalMemory(mb * 1024 * 1024, **kw)


# ------------------------------------------------------------- page helpers
def test_page_helpers():
    assert vpage_of(0) == 0
    assert vpage_of(PAGE_SIZE) == 1
    assert vpage_of(PAGE_SIZE - 1) == 0
    assert page_offset(PAGE_SIZE + 17) == 17
    assert page_round_down(PAGE_SIZE + 17) == PAGE_SIZE
    assert page_round_up(PAGE_SIZE + 17) == 2 * PAGE_SIZE
    assert page_round_up(PAGE_SIZE) == PAGE_SIZE


def test_pages_spanned():
    assert pages_spanned(0, 1) == 1
    assert pages_spanned(0, PAGE_SIZE) == 1
    assert pages_spanned(0, PAGE_SIZE + 1) == 2
    assert pages_spanned(PAGE_SIZE - 1, 2) == 2
    assert pages_spanned(100, 0) == 0


# -------------------------------------------------------------- physical mem
def test_physical_memory_sizes():
    mem = make_memory(1)
    assert mem.nframes == 256
    assert mem.free_frames == 256


def test_bad_memory_size_rejected():
    with pytest.raises(ValueError):
        PhysicalMemory(4096 + 1)


def test_alloc_frames_scattered_not_contiguous():
    mem = make_memory(4)
    frames = mem.alloc_frames(8)
    # Scatter allocator must not return a contiguous run.
    assert not mem.frames_are_contiguous(frames)


def test_alloc_contiguous_is_contiguous():
    mem = make_memory(4)
    frames = mem.alloc_contiguous(8)
    assert mem.frames_are_contiguous(frames)


def test_out_of_memory():
    mem = PhysicalMemory(4 * PAGE_SIZE)
    mem.alloc_frames(4)
    with pytest.raises(OutOfMemoryError):
        mem.alloc_frame()


def test_reserved_frames_not_allocated():
    mem = PhysicalMemory(16 * PAGE_SIZE, reserved_frames=4)
    assert mem.free_frames == 12
    for _ in range(12):
        assert mem.alloc_frame().number >= 4


def test_free_and_realloc():
    mem = PhysicalMemory(2 * PAGE_SIZE)
    a = mem.alloc_frame()
    b = mem.alloc_frame()
    mem.free_frame(a)
    c = mem.alloc_frame()
    assert c.number == a.number
    with pytest.raises(OutOfMemoryError):
        mem.alloc_frame()
    assert b.pinned is False


def test_double_free_rejected():
    mem = make_memory(1)
    f = mem.alloc_frame()
    mem.free_frame(f)
    with pytest.raises(ValueError):
        mem.free_frame(f)


def test_pin_blocks_free_and_nests():
    mem = make_memory(1)
    f = mem.alloc_frame()
    mem.pin(f.number)
    mem.pin(f.number)
    with pytest.raises(ValueError):
        mem.free_frame(f)
    mem.unpin(f.number)
    assert f.pinned
    mem.unpin(f.number)
    assert not f.pinned
    mem.free_frame(f)
    with pytest.raises(ValueError):
        mem.unpin(f.number)


def test_physical_read_write_roundtrip():
    mem = make_memory(1)
    payload = bytes(range(256))
    mem.write(1000, payload)
    assert mem.read(1000, 256).tobytes() == payload


def test_physical_bounds_checked():
    mem = PhysicalMemory(PAGE_SIZE)
    with pytest.raises(ValueError):
        mem.read(PAGE_SIZE - 1, 2)
    with pytest.raises(ValueError):
        mem.write(-1, b"x")


def test_view_is_mutable_alias():
    mem = make_memory(1)
    view = mem.view(0, 4)
    view[:] = [1, 2, 3, 4]
    assert mem.read(0, 4).tolist() == [1, 2, 3, 4]


def test_physical_memory_costs_nothing_per_frame():
    # 64 MB is 16 384 frames; none of them may cost an object until it is
    # allocated or pinned (a 64-node boot would build a million).
    before = sys.getallocatedblocks()
    mem = PhysicalMemory(64 * 1024 * 1024, reserved_frames=64)
    assert sys.getallocatedblocks() - before < 100
    assert mem.free_frames == 16384 - 64
    assert mem.pinned_frames == 0


def test_pin_outside_memory_rejected():
    mem = PhysicalMemory(4 * PAGE_SIZE)
    for number in (-1, 4):
        with pytest.raises(IndexError):
            mem.pin(number)
    assert mem.pinned_frames == 0


# ---------------------------------------------------------- write watchers
def watcher(mem, extents, fired, name):
    mem.watch_writes(extents, lambda paddr, nbytes: fired.append(
        (name, paddr, nbytes)))


def test_watches_fire_in_registration_order_across_frames():
    mem = make_memory(1)
    fired = []
    # Registered high frame first: bucket order alone would run b, a.
    watcher(mem, [(2 * PAGE_SIZE, 8)], fired, "a")
    watcher(mem, [(2 * PAGE_SIZE - 8, 8)], fired, "b")
    watcher(mem, [(2 * PAGE_SIZE + 4, 8)], fired, "c")
    watcher(mem, [(5 * PAGE_SIZE, 8)], fired, "elsewhere")
    mem.notify_write(2 * PAGE_SIZE - 4, 12)      # frames 1 and 2
    assert fired == [(name, 2 * PAGE_SIZE - 4, 12) for name in "abc"]


def test_watch_spanning_frames_fires_once():
    mem = make_memory(1)
    fired = []
    # One record over two frames, one watcher on two extents in
    # different frames, and one with two extents in the same frame: a
    # write that reaches both halves of any of them runs it once.
    watcher(mem, [(PAGE_SIZE - 16, 32)], fired, "straddler")
    watcher(mem, [(PAGE_SIZE - 64, 8), (PAGE_SIZE + 64, 8)], fired,
            "two-frames")
    watcher(mem, [(PAGE_SIZE + 8, 4), (PAGE_SIZE + 32, 4)], fired,
            "one-frame")
    mem.notify_write(PAGE_SIZE - 128, 256)
    assert fired == [("straddler", PAGE_SIZE - 128, 256),
                     ("two-frames", PAGE_SIZE - 128, 256),
                     ("one-frame", PAGE_SIZE - 128, 256)]
    fired.clear()
    mem.notify_write(PAGE_SIZE + 63, 2)           # only "two-frames"
    mem.notify_write(PAGE_SIZE - 4096, 4096 * 4)  # all three, once each
    assert [name for name, _, _ in fired] == [
        "two-frames", "straddler", "two-frames", "one-frame"]


def test_watch_near_miss_stays_armed():
    mem = make_memory(1)
    fired = []
    watcher(mem, [(1000, 16)], fired, "w")
    mem.notify_write(996, 4)            # ends where the watch begins
    mem.notify_write(1016, 4)           # begins where it ends
    mem.notify_write(1000 + PAGE_SIZE, 16)
    assert fired == []
    mem.notify_write(1015, 1)
    mem.notify_write(1000, 16)          # standing: called again
    assert fired == [("w", 1015, 1), ("w", 1000, 16)]


def test_a_watcher_registered_by_a_callback_waits_for_the_next_write():
    mem = make_memory(1)
    fired = []

    def first(paddr, nbytes):
        fired.append(("first", paddr, nbytes))
        if len(fired) == 1:
            watcher(mem, [(0, 64)], fired, "later")

    mem.watch_writes([(0, 64)], first)
    mem.notify_write(0, 8)
    assert fired == [("first", 0, 8)]
    mem.notify_write(8, 8)
    assert fired[1:] == [("first", 8, 8), ("later", 8, 8)]


def test_standing_watcher_runs_on_every_write_in_registration_order():
    env = Environment()
    mem = make_memory(1)
    space = AddressSpace(mem)
    buffer = UserBuffer.alloc(space, PAGE_SIZE)
    fired = []
    # One standing watcher on two extents in different frames: every
    # write that touches either runs it once, with the whole range.
    mem.watch_writes([(PAGE_SIZE - 64, 64), (3 * PAGE_SIZE, 64)],
                     lambda paddr, nbytes: fired.append(
                         ("standing", paddr, nbytes)))
    watcher(mem, [(PAGE_SIZE - 8, 16)], fired, "later")
    mem.notify_write(PAGE_SIZE - 16, 32)          # frames 0 and 1
    mem.notify_write(PAGE_SIZE - 4096, 4096 * 4)  # spans both extents
    mem.notify_write(3 * PAGE_SIZE + 63, 1)
    mem.notify_write(3 * PAGE_SIZE + 64, 1)       # just past the extent
    mem.notify_write(PAGE_SIZE - 65, 1)           # just before it
    assert fired == [("standing", PAGE_SIZE - 16, 32),
                     ("later", PAGE_SIZE - 16, 32),
                     ("standing", 0, 4096 * 4),
                     ("later", 0, 4096 * 4),
                     ("standing", 3 * PAGE_SIZE + 63, 1)]
    # A buffer's watcher is one of them, registered at its first arm.
    [(paddr, _)] = space.physical_extents(buffer.vaddr, 4)
    watcher(mem, [(paddr, 4)], fired, "before the arm")
    event = env.event()
    event.callbacks.append(lambda e: fired.append(("arm",) + e.value))
    buffer.arm(event, 0, 4)
    watcher(mem, [(paddr, 4)], fired, "after the arm")
    fired.clear()
    mem.notify_write(paddr, 4)
    env.run()
    assert fired == [("before the arm", paddr, 4),
                     ("after the arm", paddr, 4), ("arm", paddr, 4)]


def test_rearmed_watch_leaves_no_records_on_unwritten_pages():
    # A receiver arms a watch over its whole buffer for every message,
    # but the sender only ever writes page 0: the buffer has one
    # standing watcher, and the arms a write fired are gone.
    env = Environment()
    mem = make_memory(1)
    space = AddressSpace(mem)
    buffer = UserBuffer.alloc(space, 4 * PAGE_SIZE)
    extents = space.physical_extents(buffer.vaddr, 4 * PAGE_SIZE)
    assert len(extents) == 4
    for _ in range(10_000):
        event = env.event()
        buffer.arm(event)
        mem.notify_write(extents[0][0], 64)
        assert event.value == (extents[0][0], 64)
    assert sorted(len(bucket) for bucket in mem._watches.values()) == [1] * 4
    assert buffer._arms == []


def test_arms_fire_in_arm_order_and_only_where_written():
    env = Environment()
    mem = make_memory(1)
    space = AddressSpace(mem)
    buffer = UserBuffer.alloc(space, 2 * PAGE_SIZE)
    fired = []
    arms = [(0, 4), (PAGE_SIZE - 2, 4), (0, 4), (PAGE_SIZE + 8, 4)]
    for i, (offset, nbytes) in enumerate(arms):
        event = env.event()
        event.callbacks.append(lambda e, i=i: fired.append((i, e.value)))
        buffer.arm(event, offset, nbytes)
    [(first, _)] = space.physical_extents(buffer.vaddr, 4)
    mem.notify_write(first, 2)
    env.run()
    # The range straddles two scattered frames: a write on either
    # half fires the arm.
    [_, (second, _)] = space.physical_extents(
        buffer.vaddr + PAGE_SIZE - 2, 4)
    mem.notify_write(second, 1)
    env.run()
    assert fired == [(0, (first, 2)), (2, (first, 2)), (1, (second, 1))]
    with pytest.raises(ValueError):
        buffer.arm(env.event(), 2 * PAGE_SIZE - 2, 4)


# ------------------------------------------------------------- address space
def test_mmap_translate_roundtrip():
    mem = make_memory(4)
    space = AddressSpace(mem, "p0")
    vaddr = space.mmap(3 * PAGE_SIZE)
    assert page_offset(vaddr) == 0
    for off in (0, 1, PAGE_SIZE, 2 * PAGE_SIZE + 5):
        paddr = space.translate(vaddr + off)
        assert 0 <= paddr < mem.size
        assert paddr % PAGE_SIZE == (vaddr + off) % PAGE_SIZE


def test_translate_unmapped_faults():
    mem = make_memory(1)
    space = AddressSpace(mem)
    with pytest.raises(PageFault):
        space.translate(0xdead_0000)


def test_mmap_regions_disjoint():
    mem = make_memory(4)
    space = AddressSpace(mem)
    a = space.mmap(PAGE_SIZE)
    b = space.mmap(PAGE_SIZE)
    assert a + PAGE_SIZE <= b or b + PAGE_SIZE <= a


def test_virtual_rw_roundtrip_cross_page():
    mem = make_memory(4)
    space = AddressSpace(mem)
    vaddr = space.mmap(4 * PAGE_SIZE)
    rng = np.random.default_rng(7)
    payload = rng.integers(0, 256, size=3 * PAGE_SIZE + 123, dtype=np.uint8)
    space.write(vaddr + 17, payload)
    assert np.array_equal(space.read(vaddr + 17, len(payload)), payload)


def test_physical_extents_cover_range_exactly():
    mem = make_memory(4)
    space = AddressSpace(mem)
    vaddr = space.mmap(4 * PAGE_SIZE)
    extents = space.physical_extents(vaddr + 100, 2 * PAGE_SIZE)
    assert sum(length for _, length in extents) == 2 * PAGE_SIZE
    # Scattered frames: each extent at most a page.
    assert all(length <= PAGE_SIZE for _, length in extents)
    assert len(extents) >= 2


def test_physical_extents_merge_contiguous():
    mem = make_memory(1)
    space = AddressSpace(mem)
    vaddr = space.mmap(2 * PAGE_SIZE, contiguous_physical=True)
    extents = space.physical_extents(vaddr, 2 * PAGE_SIZE)
    assert len(extents) == 1
    assert extents[0][1] == 2 * PAGE_SIZE


def test_munmap_frees_frames():
    mem = PhysicalMemory(8 * PAGE_SIZE)
    space = AddressSpace(mem)
    vaddr = space.mmap(4 * PAGE_SIZE)
    assert mem.free_frames == 4
    space.munmap(vaddr, 4 * PAGE_SIZE)
    assert mem.free_frames == 8
    with pytest.raises(PageFault):
        space.translate(vaddr)


def test_munmap_unmapped_faults():
    mem = make_memory(1)
    space = AddressSpace(mem)
    with pytest.raises(PageFault):
        space.munmap(AddressSpace.USER_BASE, PAGE_SIZE)


def test_munmap_of_a_pinned_page_changes_nothing():
    mem = PhysicalMemory(8 * PAGE_SIZE)
    space = AddressSpace(mem)
    vaddr = space.mmap(4 * PAGE_SIZE)
    space.write(vaddr, bytes(range(200)))
    space.pin_range(vaddr + 2 * PAGE_SIZE, PAGE_SIZE)
    frames = [space.frame_of(vaddr + i * PAGE_SIZE) for i in range(4)]
    with pytest.raises(ValueError, match="pinned"):
        space.munmap(vaddr, 4 * PAGE_SIZE)
    # All or nothing: every page still mapped to its frame, none freed.
    assert space.mapped_pages == 4
    assert [space.frame_of(vaddr + i * PAGE_SIZE) for i in range(4)] == frames
    assert mem.free_frames == 4 and mem.pinned_frames == 1
    assert space.read(vaddr, 200).tobytes() == bytes(range(200))
    space.unpin_range(vaddr + 2 * PAGE_SIZE, PAGE_SIZE)
    space.munmap(vaddr, 4 * PAGE_SIZE)
    assert space.mapped_pages == 0
    assert mem.free_frames == 8 and mem.pinned_frames == 0


def test_munmap_past_the_mapping_changes_nothing():
    mem = PhysicalMemory(8 * PAGE_SIZE)
    space = AddressSpace(mem)
    vaddr = space.mmap(2 * PAGE_SIZE)
    with pytest.raises(PageFault):
        space.munmap(vaddr, 3 * PAGE_SIZE)
    assert space.mapped_pages == 2 and mem.free_frames == 6


def test_single_page_access_faults_like_the_general_path():
    mem = make_memory(1)
    space = AddressSpace(mem, "p0")
    vaddr = space.mmap(PAGE_SIZE)
    beyond = vaddr + PAGE_SIZE
    message = f"p0: unmapped virtual address {beyond:#x}"
    for nbytes in (8, PAGE_SIZE + 8):       # one page; two pages
        with pytest.raises(PageFault) as err:
            space.read(beyond, nbytes)
        assert str(err.value) == message
        with pytest.raises(PageFault) as err:
            space.write(beyond, bytes(nbytes))
        assert str(err.value) == message
    assert space.read(beyond, 0).size == 0  # touches no page, as before
    space.write(vaddr + PAGE_SIZE - 4, b"tail")     # ends on the boundary
    assert space.read(vaddr + PAGE_SIZE - 4, 4).tobytes() == b"tail"
    copy = space.read(vaddr + PAGE_SIZE - 4, 4)
    copy[:] = 0                                     # a copy, not a view
    assert space.read(vaddr + PAGE_SIZE - 4, 4).tobytes() == b"tail"


def test_pin_range_and_unpin():
    mem = make_memory(4)
    space = AddressSpace(mem)
    vaddr = space.mmap(3 * PAGE_SIZE)
    frames = space.pin_range(vaddr + 10, 2 * PAGE_SIZE)
    assert len(frames) == 3  # offset 10 spans into a third page
    assert space.is_pinned(vaddr, 2 * PAGE_SIZE)
    assert mem.pinned_frames == 3
    space.unpin_range(vaddr + 10, 2 * PAGE_SIZE)
    assert mem.pinned_frames == 0


def test_contiguous_physical_mmap():
    mem = make_memory(4)
    space = AddressSpace(mem)
    vaddr = space.mmap(4 * PAGE_SIZE, contiguous_physical=True)
    extents = space.physical_extents(vaddr, 4 * PAGE_SIZE)
    assert len(extents) == 1


def test_two_spaces_isolated():
    mem = make_memory(4)
    s1 = AddressSpace(mem, "p1")
    s2 = AddressSpace(mem, "p2")
    v1 = s1.mmap(PAGE_SIZE)
    v2 = s2.mmap(PAGE_SIZE)
    s1.write(v1, b"AAAA")
    s2.write(v2, b"BBBB")
    assert s1.read(v1, 4).tobytes() == b"AAAA"
    assert s2.read(v2, 4).tobytes() == b"BBBB"
    assert s1.translate(v1) != s2.translate(v2)


# ------------------------------------------------------------------ buffers
def test_user_buffer_rw():
    mem = make_memory(4)
    space = AddressSpace(mem)
    buf = UserBuffer.alloc(space, 2 * PAGE_SIZE)
    assert buf.page_aligned
    assert buf.npages == 2
    buf.write(b"hello", offset=PAGE_SIZE - 2)  # crosses the page boundary
    assert buf.read(PAGE_SIZE - 2, 5).tobytes() == b"hello"


def test_user_buffer_bounds():
    mem = make_memory(1)
    space = AddressSpace(mem)
    buf = UserBuffer.alloc(space, 64)
    with pytest.raises(ValueError):
        buf.write(b"x" * 65)
    with pytest.raises(ValueError):
        buf.read(60, 5)
    with pytest.raises(ValueError):
        buf.slice(60, 5)
    with pytest.raises(ValueError):
        UserBuffer(space, 0, 0)


def test_user_buffer_slice_aliases_storage():
    mem = make_memory(1)
    space = AddressSpace(mem)
    buf = UserBuffer.alloc(space, 256)
    sub = buf.slice(100, 50)
    sub.write(b"Z" * 50)
    assert buf.read(100, 50).tobytes() == b"Z" * 50


def test_user_buffer_fill_and_len():
    mem = make_memory(1)
    space = AddressSpace(mem)
    buf = UserBuffer.alloc(space, 128)
    buf.fill(0xAB)
    assert len(buf) == 128
    assert set(buf.tobytes()) == {0xAB}


# ------------------------------------ bytes stores against the numpy path
# A ``bytes``/``bytearray`` payload is stored through a memoryview of the
# memory; these are the numpy conversions and slice assignments it
# replaced, kept as the reference.
def _as_array(payload):
    if isinstance(payload, (bytes, bytearray)):
        return np.frombuffer(bytes(payload), dtype=np.uint8)
    return np.asarray(payload, dtype=np.uint8)


def numpy_space_write(space, vaddr, payload):
    buf = _as_array(payload)
    if 0 < len(buf) <= PAGE_SIZE - vaddr % PAGE_SIZE:
        paddr = space.translate(vaddr)
        space.memory.data[paddr:paddr + len(buf)] = buf
        return
    done = 0
    for paddr, length in space.physical_extents(vaddr, len(buf)):
        space.memory.view(paddr, length)[:] = buf[done:done + length]
        done += length


def numpy_physical_write(memory, paddr, payload):
    buf = _as_array(payload)
    memory._check_range(paddr, len(buf))
    memory.data[paddr:paddr + len(buf)] = buf


def numpy_sram_write(sram, addr, payload):
    buf = _as_array(payload)
    sram._check(addr, len(buf))
    sram.data[addr:addr + len(buf)] = buf


def _outcome(write):
    try:
        write()
    except (PageFault, ValueError) as exc:
        return type(exc), str(exc)
    return None


_payloads = st.tuples(
    st.sampled_from((bytes, bytearray, np.array)),
    st.binary(max_size=3 * PAGE_SIZE // 2))


def _payload(kind, data):
    return np.frombuffer(data, dtype=np.uint8).copy() if kind is np.array \
        else kind(data)


@settings(max_examples=150, deadline=None)
@given(writes=st.lists(st.tuples(st.integers(-PAGE_SIZE, 4 * PAGE_SIZE),
                                 _payloads), min_size=1, max_size=6))
def test_bytes_stores_match_the_numpy_path(writes):
    """Each of three mapped pages, the unmapped ones either side of
    them, writes inside a page and across pages: the memoryview store
    leaves the same bytes and raises the same errors."""
    spaces = []
    for _ in range(2):
        memory = make_memory(1)
        space = AddressSpace(memory, "p")
        space.mmap(PAGE_SIZE)                   # the page below: unmapped
        base = space.mmap(3 * PAGE_SIZE)
        space.munmap(base - PAGE_SIZE, PAGE_SIZE)
        spaces.append((space, base))
    (new, base), (old, _) = spaces
    for offset, (kind, data) in writes:
        payload = _payload(kind, data)
        assert _outcome(lambda: new.write(base + offset, payload)) == \
            _outcome(lambda: numpy_space_write(old, base + offset, payload))
        assert np.array_equal(new.memory.data, old.memory.data)
        buf, ref = UserBuffer(new, base, 3 * PAGE_SIZE), \
            UserBuffer(old, base, 3 * PAGE_SIZE)
        word = offset % (3 * PAGE_SIZE + 8) - 4
        assert _outcome(lambda: buf.read_u32(word)) == _outcome(
            lambda: int.from_bytes(ref.read(word, 4).tobytes(), "little"))
        if 0 <= word <= 3 * PAGE_SIZE - 4:
            assert buf.read_u32(word) == int.from_bytes(
                ref.read(word, 4).tobytes(), "little")


@settings(max_examples=100, deadline=None)
@given(writes=st.lists(st.tuples(st.integers(-8, 2 * PAGE_SIZE + 8),
                                 _payloads), min_size=1, max_size=6))
def test_physical_and_sram_bytes_stores_match_the_numpy_path(writes):
    from repro.hw.lanai.sram import SRAM

    memories = [PhysicalMemory(2 * PAGE_SIZE) for _ in range(2)]
    srams = [SRAM(2 * PAGE_SIZE) for _ in range(2)]
    for addr, (kind, data) in writes:
        payload = _payload(kind, data)
        assert _outcome(lambda: memories[0].write(addr, payload)) == \
            _outcome(lambda: numpy_physical_write(memories[1], addr,
                                                  payload))
        assert np.array_equal(memories[0].data, memories[1].data)
        assert _outcome(lambda: srams[0].write(addr, payload)) == \
            _outcome(lambda: numpy_sram_write(srams[1], addr, payload))
        assert np.array_equal(srams[0].data, srams[1].data)
