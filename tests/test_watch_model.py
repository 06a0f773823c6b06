"""``VMMCEndpoint.watch`` against the one-shot watch path it replaced.

A watch used to register a one-shot event on each physical extent of the
watched range, and ``notify_write`` fired and swept the events a device
write touched.  Now a buffer has one standing watcher
(``PhysicalMemory.watch_writes``) that keeps its pending arms.  The
Hypothesis test below drives both with the same arms and device writes
and requires the same events to fire, in the same order, with the same
values.  ``OneShotWatches`` is a test-only copy of the old path.
"""

from operator import itemgetter
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.mem import PAGE_SIZE, AddressSpace, PhysicalMemory, UserBuffer
from repro.sim import Environment
from repro.vmmc.api import VMMCEndpoint


class OneShotWatches:
    """The one-shot half of ``PhysicalMemory``'s old watch registry."""

    def __init__(self, page_size: int):
        self.page_size = page_size
        self._watches: dict[int, list[tuple]] = {}
        self._watch_seq = 0

    def _frames_spanned(self, paddr, nbytes):
        return range(paddr // self.page_size,
                     (paddr + max(nbytes, 1) - 1) // self.page_size + 1)

    def register(self, paddr, nbytes, event):
        seq = self._watch_seq
        self._watch_seq += 1
        record = (seq, paddr, nbytes, event)
        for frame in self._frames_spanned(paddr, nbytes):
            bucket = [r for r in self._watches.get(frame, ())
                      if not r[3].triggered]
            bucket.append(record)
            self._watches[frame] = bucket

    def notify_write(self, paddr, nbytes):
        end = paddr + nbytes
        hits = []
        for frame in self._frames_spanned(paddr, nbytes):
            bucket = self._watches.get(frame)
            if bucket is None:
                continue
            armed = []
            for record in bucket:
                _seq, start, length, event = record
                if event.triggered:
                    continue
                if start < end and paddr < start + length:
                    hits.append(record)
                    continue
                armed.append(record)
            if armed:
                self._watches[frame] = armed
            else:
                del self._watches[frame]
        hits.sort(key=itemgetter(0))
        for _seq, _start, _length, event in hits:
            if not event.triggered:
                event.succeed((paddr, nbytes))

    def watch(self, env, buffer, offset, nbytes):
        """The old ``VMMCEndpoint.watch``."""
        event = env.event()
        for paddr, length in buffer.space.physical_extents(
                buffer.vaddr + offset, nbytes):
            self.register(paddr, length, event)
        return event


def world(sizes, contiguous):
    """A memory with one buffer per size: scattered frames, or
    physically contiguous ones, where an extent straddles frames."""
    memory = PhysicalMemory(64 * PAGE_SIZE)
    space = AddressSpace(memory)
    buffers = [UserBuffer(space, space.mmap(size, contiguous_physical=c),
                          size) for size, c in zip(sizes, contiguous)]
    return memory, buffers


def spans(draw, size):
    """An (offset, nbytes) inside a buffer of ``size`` bytes, often on a
    page boundary or on one of a few shared words."""
    offset = draw(st.one_of(
        st.sampled_from([0, 4, PAGE_SIZE - 2, PAGE_SIZE, size - 4]),
        st.integers(0, size - 1)).filter(lambda o: 0 <= o < size))
    nbytes = draw(st.one_of(st.sampled_from([1, 4, 8]),
                            st.integers(1, size - offset)))
    return offset, min(nbytes, size - offset)


@st.composite
def programs(draw):
    count = draw(st.integers(1, 3))
    sizes = [draw(st.integers(8, 3 * PAGE_SIZE)) for _ in range(count)]
    contiguous = [draw(st.booleans()) for _ in range(count)]
    steps = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(["arm", "arm", "write", "write", "run"]))
        which = draw(st.integers(0, count - 1))
        steps.append((kind, which, *spans(draw, sizes[which])))
    return sizes, contiguous, steps


def play(program, watch, notify_write):
    """Run ``program``; returns each fired arm with its value, in the
    order the events were processed."""
    sizes, contiguous, steps = program
    memory, buffers = world(sizes, contiguous)
    env, fired, arms = Environment(), [], 0
    for kind, which, offset, nbytes in steps:
        buffer = buffers[which]
        if kind == "arm":
            event = watch(env, buffer, offset, nbytes)
            event.callbacks.append(
                lambda e, arm=arms: fired.append((arm, e.value)))
            arms += 1
        elif kind == "write":
            # A device write lands as the DMA lands it: one write per
            # physically contiguous piece of the virtual range.
            for paddr, length in buffer.space.physical_extents(
                    buffer.vaddr + offset, nbytes):
                notify_write(memory, paddr, length)
        else:
            env.run()
    env.run()
    return fired


@settings(max_examples=300, deadline=None)
@given(programs())
def test_watch_fires_what_the_one_shot_path_fired_in_its_order(program):
    reference = OneShotWatches(PAGE_SIZE)
    expected = play(
        program, reference.watch,
        lambda _memory, paddr, nbytes: reference.notify_write(paddr, nbytes))
    got = play(
        program,
        lambda env, buffer, offset, nbytes: VMMCEndpoint.watch(
            SimpleNamespace(env=env), buffer, offset, nbytes),
        PhysicalMemory.notify_write)
    assert got == expected
