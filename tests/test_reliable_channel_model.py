"""The reliable channel and ``VMMCEndpoint.send`` against the processes
they replaced.

``VMMCEndpoint.send``, ``ReliableSender.send`` and
``ReliableReceiver.recv`` are calls that return an event: the prologue
is a ``Timeout``, the post a bus hold, and the completion, ACK and ring
waits are callbacks.  The receiver keeps one standing watcher on its
ring and reads only the slots written since its last look; the sender
keeps one on its ACK word.  They used to be a ``Process`` per call that
re-armed a watch on every wake and re-read the whole ring — kept below
as the reference, each watch now an arm of ``VMMCEndpoint.watch``,
which fires what the one-shot watches fired (tests/test_watch_model.py).

Both run the same random scenario: messages of random sizes, several
sends in flight at once, receives posted before or after their data
lands, bursts of raw VMMC sends that fill the send queue, error
completions injected into the sender's LCP, packets corrupted on the
wire in either direction (lost data, lost ACKs) and stray device writes
into the ring.  They must agree on when each waiter resumes and in which
order within a nanosecond, on every ``rel.*`` and ``vmmc.send.*``
record, every metric, both ends' ``ReliableStats`` and the bytes
delivered.  Events are not compared: the new code spends fewer, by
design (tests/test_event_budget.py declares how many).
"""

import struct
import zlib

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cluster import Cluster, TestbedConfig
from repro.hostos.process import fresh_pid_namespace
from repro.obs.metrics import MetricsRegistry
from repro.sim import AnyOf, Tracer
from repro.sim.trace import emit
from repro.vmmc import reliable
from repro.vmmc.api import (LIB_SEND_OVERHEAD_NS, MAX_MESSAGE_BYTES,
                            SendHandle)
from repro.vmmc.errors import (CompletionError, ImportDenied, ImportStale,
                               InvalidSendError, RetriesExhausted)
from repro.vmmc.lcp import VmmcLCP
from repro.vmmc.reliable import (HEADER_BYTES, ReliableError,
                                 ReliableReceiver, ReliableSender)
from repro.vmmc.sendqueue import (COMPLETION_DONE, COMPLETION_ERROR,
                                  SHORT_SEND_LIMIT, SendRequest)

_HEADER = struct.Struct("<IIII")


# -------------------------------------------------------- the reference
def process_send(ep, src, dest, nbytes=None, src_offset=0, dest_offset=0,
                 synchronous=True, notify=False):
    """``VMMCEndpoint.send`` as it was: a process per call."""
    length = src.nbytes - src_offset if nbytes is None else nbytes
    src_vaddr = src.vaddr + src_offset

    def run():
        t0 = ep.env.now
        if length <= 0:
            raise InvalidSendError(f"invalid send length {length}")
        if length > MAX_MESSAGE_BYTES:
            raise InvalidSendError(
                f"send of {length} bytes exceeds the 8 MB limit")
        if src_offset + length > src.nbytes:
            raise InvalidSendError(
                "send runs past the end of the source buffer")
        try:
            proxy_address = ep._resolve_destination(dest, dest_offset,
                                                    length)
        except ImportStale:
            ep.stale_sends_blocked += 1
            emit(ep.env, "vmmc.send.stale_blocked",
                 node=ep.node_name, pid=ep.process.pid)
            raise
        yield ep.env.timeout(LIB_SEND_OVERHEAD_NS)
        while not ep.ctx.queue.slot_available():
            holder = ep.ctx.queue.holder(ep.ctx.queue.next_slot())
            tail_event = None if holder is None else holder.completion
            if tail_event is not None and not tail_event.triggered:
                yield tail_event
            else:
                yield ep.env.timeout(500)
            yield ep.membus.cacheline_fill()
        slot = ep.ctx.queue.next_slot()
        completion = ep.env.event()
        is_short = length <= SHORT_SEND_LIMIT
        if is_short:
            request = SendRequest(
                slot=slot, length=length, proxy_address=proxy_address,
                is_short=True, inline_data=src.read(src_offset, length),
                notify=notify, posted_at=ep.env.now, completion=completion)
        else:
            request = SendRequest(
                slot=slot, length=length, proxy_address=proxy_address,
                is_short=False, src_vaddr=src_vaddr, notify=notify,
                posted_at=ep.env.now, completion=completion)
        ep.ctx.queue.reserve(request)
        yield ep.lcp.nic.bus.mmio_write(
            request.control_words + request.data_words)
        ep.ctx.queue.post(request)
        ep.lcp.doorbell()
        ep.sends_posted += 1
        ep.short_sends_posted += is_short
        emit(ep.env, "vmmc.send.posted", node=ep.node_name,
             pid=ep.process.pid, slot=slot, length=length, short=is_short)
        handle = SendHandle(slot=slot, length=length, is_short=is_short,
                            synchronous=synchronous, posted_at=ep.env.now,
                            completed_event=completion)
        if synchronous and not is_short:
            status = yield completion
            yield ep.membus.cacheline_fill()
            if status != COMPLETION_DONE:
                raise CompletionError(
                    f"send failed with completion status {status}",
                    status=status)
        if synchronous and ep.env.metrics is not None:
            ep.send_sync_ns.append(ep.env.now - t0)
        return handle

    return ep.env.process(run(), name="vmmc.send")


def reimport_with_backoff(end, imported):
    backoff = end.timeout_ns
    attempts = 0
    while True:
        attempts += 1
        try:
            yield imported.reimport(timeout_ns=backoff)
            break
        except ImportDenied:
            if attempts > end.max_retries:
                raise RetriesExhausted(
                    f"{end.name}: import of {imported.name!r} not "
                    f"re-established after {attempts} attempts",
                    retries=attempts)
            backoff = min(backoff * 2, end.max_timeout_ns)
    end.stats.reimports += 1
    emit(end.env, "rel.reimport", channel=end.name, name=imported.name,
         attempts=attempts)


class ProcessSender(ReliableSender):
    """The sender as it was: a process per ``send`` that arms a watch on
    the ACK word at every look, and waits for a window place
    on one kick event that wakes every queued send."""

    _kick_ev = None

    @property
    def acked(self):
        return self.ack_buf.read_u32(0)

    def _kick(self):
        if self._kick_ev is not None and not self._kick_ev.triggered:
            event = self._kick_ev
            self._kick_ev = None
            event.succeed()

    def _kick_wait(self):
        if self._kick_ev is None or self._kick_ev.triggered:
            self._kick_ev = self.env.event()
        return self._kick_ev

    def _transmit_recovering(self, seq, base, data):
        attempts = 0
        while True:
            try:
                header = _HEADER.pack(seq & 0xFFFFFFFF, len(data),
                                      zlib.crc32(data), 0)
                self._scratch.write(header, offset=base)
                if data:
                    self._scratch.write(data, offset=base + HEADER_BYTES)
                yield process_send(self.ep, self._scratch,
                                   self._ring.at(base),
                                   HEADER_BYTES + len(data),
                                   src_offset=base)
                return
            except CompletionError:
                attempts += 1
                self.stats.completion_errors += 1
                emit(self.env, "rel.transmit.error", channel=self.name,
                     seq=seq, attempt=attempts)
                if attempts > self.max_retries:
                    self.stats.send_failures += 1
                    raise RetriesExhausted(
                        f"{self.name}: seq {seq} kept failing with error "
                        f"completions after {attempts} attempts",
                        seq=seq, retries=attempts)
                yield self.env.timeout(self.timeout_ns)
            except ImportStale:
                attempts += 1
                self.stats.stale_transmits += 1
                emit(self.env, "rel.transmit.stale", channel=self.name,
                     seq=seq, attempt=attempts)
                if attempts > self.max_retries:
                    self.stats.send_failures += 1
                    raise RetriesExhausted(
                        f"{self.name}: seq {seq} kept hitting a stale "
                        f"ring import after {attempts} recoveries",
                        seq=seq, retries=attempts)
                if self._recovering is not None:
                    yield self._recovering
                    continue
                self._recovering = self.env.event()
                try:
                    yield from reimport_with_backoff(self, self._ring)
                finally:
                    event = self._recovering
                    self._recovering = None
                    event.succeed()

    def _pace_gen(self, seq):
        wait = self._next_tx_at - self.env.now
        if wait > 0:
            self.stats.paced_ns += wait
            emit(self.env, "rel.pace", channel=self.name, seq=seq,
                 wait_ns=wait, pressure=self.pressure)
            yield self.env.timeout(wait)
        self._next_tx_at = self.env.now + self.pressure * \
            reliable.PACE_QUANTUM_NS

    def send(self, payload):
        data = bytes(payload)
        return self.env.process(self._send_windowed(data),
                                name=f"rel.send.{self.name}")

    def _send_windowed(self, data):
        if self._ring is None:
            raise ReliableError(f"channel {self.name} not opened")
        if len(data) > self.payload_per_slot:
            raise ReliableError(
                f"payload of {len(data)}B exceeds the "
                f"{self.payload_per_slot}B slot capacity")
        seq = self._next_seq
        self._next_seq += 1
        base = ((seq - 1) % self.nslots) * self.slot_bytes
        while seq != self._admit_next or self.inflight >= self.cwnd:
            yield self._kick_wait()
        self._admit_next = seq + 1
        self._set_inflight(self.inflight + 1)
        self._kick()
        self.stats.messages_sent += 1
        emit(self.env, "rel.send", channel=self.name, seq=seq,
             nbytes=len(data))
        retries = 0
        retransmitted = False
        try:
            yield from self._pace_gen(seq)
            t0 = self.env.now
            yield from self._transmit_recovering(seq, base, data)
            slot_rto = self.rto_ns
            deadline = self.env.now + slot_rto
            last_ack = self.acked
            while True:
                watch = self.ep.watch(self.ack_buf, 0, 4)
                yield self.ep.membus.cacheline_fill()
                ack = self.acked
                if ack >= seq:
                    break
                if ack > last_ack:
                    last_ack = ack
                    deadline = self.env.now + slot_rto
                remaining = deadline - self.env.now
                if remaining <= 0:
                    self.stats.timeouts += 1
                    if retries >= self.max_retries:
                        self.stats.send_failures += 1
                        emit(self.env, "rel.send.failed",
                             channel=self.name, seq=seq, retries=retries)
                        raise RetriesExhausted(
                            f"{self.name}: seq {seq} unacknowledged "
                            f"after {retries} retransmissions",
                            seq=seq, retries=retries)
                    retries += 1
                    retransmitted = True
                    self.stats.retransmits += 1
                    emit(self.env, "rel.retransmit", channel=self.name,
                         seq=seq, attempt=retries)
                    self._on_timeout(seq)
                    slot_rto = self.rto_ns
                    yield from self._pace_gen(seq)
                    yield from self._transmit_recovering(seq, base, data)
                    deadline = self.env.now + slot_rto
                    continue
                yield AnyOf(self.env, [watch, self.env.timeout(remaining)])
            self.stats.messages_delivered += 1
            rtt = self.env.now - t0
            if self.env.metrics is not None:
                self.rtt_samples_ns.append(rtt)
            if retransmitted:
                self.stats.retransmitted_deliveries += 1
            else:
                self._on_clean_ack(seq, rtt)
            emit(self.env, "rel.delivered", channel=self.name, seq=seq,
                 retransmits=retries)
            return seq
        finally:
            self._set_inflight(self.inflight - 1)
            self._kick()


class ProcessReceiver(ReliableReceiver):
    """The receiver as it was: a process per ``recv`` that re-arms a
    watch on the whole ring and re-reads the whole ring at every look."""

    _image = None

    def _watch_ring(self):
        return self.ep.watch(self.ring)

    def _scan_ring(self):
        image = self.ring.read().tobytes()
        previous, self._image = self._image, image
        if previous is None:
            return image, list(range(self.nslots))
        if image == previous:
            return image, []
        size = self.slot_bytes
        return image, [i for i in range(self.nslots)
                       if image[i * size:(i + 1) * size]
                       != previous[i * size:(i + 1) * size]]

    def _complete_at(self, image, base, expected):
        return self._complete(image[base:base + self.slot_bytes], expected)

    def _send_ack_gen(self, seq, resend=False):
        self._ack_scratch.write_u32(seq)
        if resend:
            self.stats.acks_resent += 1
        self.stats.acks_sent += 1
        emit(self.env, "rel.ack", channel=self.name, seq=seq, resend=resend)
        attempts = 0
        while True:
            try:
                yield process_send(self.ep, self._ack_scratch,
                                   self._ack_at_sender.at(0), 4)
                return
            except CompletionError:
                attempts += 1
                self.stats.completion_errors += 1
                emit(self.env, "rel.transmit.error", channel=self.name,
                     seq=seq, attempt=attempts, ack=True)
                if attempts > self.max_retries:
                    raise RetriesExhausted(
                        f"{self.name}: ACK write kept failing with error "
                        f"completions after {attempts} attempts",
                        seq=seq, retries=attempts)
                yield self.env.timeout(self.timeout_ns)
            except ImportStale:
                attempts += 1
                self.stats.stale_transmits += 1
                emit(self.env, "rel.transmit.stale", channel=self.name,
                     seq=seq, attempt=attempts, ack=True)
                if attempts > self.max_retries:
                    raise RetriesExhausted(
                        f"{self.name}: ACK import kept going stale after "
                        f"{attempts} recoveries", seq=seq, retries=attempts)
                yield from reimport_with_backoff(self, self._ack_at_sender)

    def recv(self):
        def run():
            if self._ack_at_sender is None:
                raise ReliableError(f"channel {self.name} not opened")
            expected = self._next_seq
            base = ((expected - 1) % self.nslots) * self.slot_bytes
            first = True
            while True:
                watch = self._watch_ring()
                yield self.ep.membus.cacheline_fill()
                image, changed = self._scan_ring()
                payload = self._complete_at(image, base, expected)
                if payload is not None:
                    self._next_seq = expected + 1
                    self.stats.messages_delivered += 1
                    emit(self.env, "rel.recv", channel=self.name,
                         seq=expected, nbytes=len(payload))
                    yield from self._send_ack_gen(expected)
                    return payload
                duplicate = any(
                    0 < _HEADER.unpack_from(image, i * self.slot_bytes)[0]
                    <= self.delivered and self._complete_at(
                        image, i * self.slot_bytes, _HEADER.unpack_from(
                            image, i * self.slot_bytes)[0]) is not None
                    for i in changed) or (
                    not first and not changed and self.delivered >= 1)
                if duplicate:
                    self.stats.duplicates_suppressed += 1
                    yield from self._send_ack_gen(self.delivered,
                                                  resend=True)
                first = False
                yield watch

        return self.env.process(run(), name=f"rel.recv.{self.name}")


# ------------------------------------------------------------- scenario
def open_pair(cluster, tx_ep, rx_ep, reference, **geometry):
    """``open_channel``, with the reference classes when asked."""
    sender = (ProcessSender if reference else ReliableSender)(
        tx_ep, "m", **geometry)
    receiver = (ProcessReceiver if reference else ReliableReceiver)(
        rx_ep, "m", **geometry)

    def run():
        yield receiver.export_ring()
        yield sender.export_ack()
        yield sender.import_ring(rx_ep.node_name)
        yield receiver.import_ack(tx_ep.node_name)

    cluster.env.run(until=cluster.env.process(run()))
    return sender, receiver


def payload_of(i, size):
    return bytes((i * 31 + j * 7) % 251 for j in range(size))


def run_channel(reference, scenario):
    with fresh_pid_namespace():
        return _run_channel(reference, scenario)


def _run_channel(reference, scenario):
    geometry, sends, recv_gaps, raw, faults = scenario
    cluster = Cluster.build(TestbedConfig(nnodes=2, memory_mb=8))
    env = cluster.env
    _, tx_ep = cluster.nodes[0].attach_process("tx")
    _, rx_ep = cluster.nodes[1].attach_process("rx")
    tx, rx = open_pair(cluster, tx_ep, rx_ep, reference,
                       timeout_ns=60_000, max_retries=4, **geometry)
    env.tracer = Tracer(keep=lambda c: c.startswith(("rel.", "vmmc.send")))
    registry = MetricsRegistry().install(env)
    send = process_send if reference else type(tx_ep).send

    # Injected faults, keyed on counts both runs reach in the same order.
    error_at, data_loss, ack_loss, stray = faults
    completions = [0]
    real_completion = VmmcLCP._write_completion
    tx_lcp = cluster.nodes[0].lcp

    def flaky_completion(lcp, ctx, request, status, epilogue=0):
        if lcp is tx_lcp and status == COMPLETION_DONE:
            completions[0] += 1
            if completions[0] in error_at:
                status = COMPLETION_ERROR
        return real_completion(lcp, ctx, request, status, epilogue)

    for name, losses in (("node0->sw0", data_loss), ("node1->sw0", ack_loss)):
        link = cluster.fabric.find_link(name)

        def lossy(packet, _real=link.transmit, _losses=losses, _n=[0]):
            _n[0] += 1
            if _n[0] in _losses:
                packet.corrupt()
            return _real(packet)

        link.transmit = lossy

    log, got = [], []
    inbox = rx_ep.alloc_buffer(8192)
    raw_src = tx_ep.alloc_buffer(8192)
    raw_src.fill(0x5A)

    def receiver():
        for i, gap in enumerate(recv_gaps):
            yield env.timeout(gap)
            try:
                got.append(bytes((yield rx.recv())))
                log.append((env.now, "recv", i))
            except RetriesExhausted:
                log.append((env.now, "recv-failed", i))
                return

    def one_send(i, size):
        try:
            seq = yield tx.send(payload_of(i, size))
            log.append((env.now, "sent", i, seq))
        except RetriesExhausted as exc:
            log.append((env.now, "send-failed", i, exc.seq))

    def one_raw(i, size):
        try:
            yield send(tx_ep, raw_src, to_inbox, size)
            log.append((env.now, "raw", i))
        except CompletionError:
            log.append((env.now, "raw-failed", i))

    def sender():
        pending = []
        for i, (gap, size, concurrent) in enumerate(sends):
            yield env.timeout(gap)
            if concurrent:
                pending.append(env.process(one_send(i, size)))
            else:
                yield from one_send(i, size)
        for proc in pending:
            yield proc

    def raw_sender():
        pending = []
        for i, (gap, size, count) in enumerate(raw):
            yield env.timeout(gap)
            pending += [env.process(one_raw(i * 100 + k, size))
                        for k in range(count)]
        for proc in pending:
            yield proc

    def stray_writes():
        memory = rx.ring.space.memory
        for gap, slot, junk in stray:
            yield env.timeout(gap)
            [(paddr, _)] = rx.ring.space.physical_extents(
                rx.ring.vaddr + slot % rx.nslots * rx.slot_bytes, 8)
            memory.view(paddr, 8)[:] = np.frombuffer(
                junk.to_bytes(8, "little"), dtype=np.uint8)
            memory.notify_write(paddr, 8)
            log.append((env.now, "stray", slot))

    def app():
        yield rx_ep.export(inbox, "raw")
        nonlocal to_inbox
        to_inbox = yield tx_ep.import_buffer("node1", "raw")
        for program in (receiver, sender, raw_sender, stray_writes):
            env.process(program())

    to_inbox = None
    VmmcLCP._write_completion = flaky_completion
    try:
        env.run(until=env.process(app()))
        # Long enough for every retry budget to run out.
        env.run(until=env.now + 20_000_000)
    finally:
        VmmcLCP._write_completion = real_completion
    records = [(r.time, r.category, tuple(sorted(r.payload.items())))
               for r in env.tracer.records]
    return (log, records, registry.snapshot(), tx.stats.as_dict(),
            rx.stats.as_dict(), got, env.events_processed)


_SIZES = st.integers(0, 5000)
_SCENARIO = st.tuples(
    st.fixed_dictionaries({
        "nslots": st.integers(1, 4),
        "slot_bytes": st.sampled_from([HEADER_BYTES + 64,
                                       HEADER_BYTES + 1500,
                                       HEADER_BYTES + 5000])}),
    st.lists(st.tuples(st.one_of(st.just(0), st.integers(0, 80_000)),
                       _SIZES, st.booleans()), max_size=8),
    st.lists(st.one_of(st.just(0), st.integers(0, 150_000)), max_size=8),
    st.lists(st.tuples(st.one_of(st.just(0), st.integers(0, 40_000)),
                       st.sampled_from([4, 128, 129, 4096, 6000]),
                       st.integers(1, 40)), max_size=3),
    st.tuples(st.frozensets(st.integers(1, 12), max_size=3),
              st.frozensets(st.integers(1, 20), max_size=4),
              st.frozensets(st.integers(1, 20), max_size=4),
              st.lists(st.tuples(st.integers(0, 200_000), st.integers(0, 7),
                                 st.integers(0, 2**64 - 1)), max_size=2)))


def _fit(scenario):
    """Clip each message to the slot's payload."""
    geometry, sends, *rest = scenario
    room = geometry["slot_bytes"] - HEADER_BYTES
    return (geometry, [(gap, min(size, room), c) for gap, size, c in sends],
            *rest)


@settings(max_examples=100, deadline=None)
@given(scenario=_SCENARIO)
def test_channel_matches_the_processes_it_replaced(scenario):
    scenario = _fit(scenario)
    new = run_channel(False, scenario)
    old = run_channel(True, scenario)
    assert new[0] == old[0]             # resume times and same-ns order
    assert new[1] == old[1]             # rel.* and vmmc.send.* records
    assert new[2] == old[2]             # counters, gauges, histograms
    assert new[3:5] == old[3:5]         # ReliableStats of both ends
    assert new[5] == old[5]             # bytes delivered


def test_the_model_sees_losses_errors_strays_and_full_queues():
    # One fixed scenario, so a change that made the property vacuous
    # (no retransmit, no error completion, no duplicate, no pacing, no
    # window, no stray write, no send-queue wait) fails here.  Forty raw
    # sends fill the 32-slot send queue; the first slot transmit is the
    # tx LCP's 41st completion.
    scenario = ({"nslots": 2, "slot_bytes": HEADER_BYTES + 5000},
                [(40_000, 5000, True), (0, 10, True), (0, 700, True),
                 (30_000, 4000, False), (0, 1, True)],
                [0, 0, 200_000, 0, 0],
                [(0, 4, 40), (400_000, 6000, 3)],
                (frozenset({41}), frozenset({3}), frozenset({4, 5}),
                 [(150_000, 1, 2**40 + 3)]))
    log, records, snapshot, tx_stats, rx_stats, got, _ = run_channel(
        False, scenario)
    assert got == [payload_of(i, size)
                   for i, (_gap, size, _c) in enumerate(scenario[1])]
    assert tx_stats["completion_errors"] == 1
    assert tx_stats["retransmits"] == 2 and tx_stats["paced_ns"] > 0
    assert tx_stats["cwnd_max"] == 2
    assert rx_stats["duplicates_suppressed"] == 4
    assert [entry[1] for entry in log].count("stray") == 1
    assert [entry[1] for entry in log].count("raw") == 43
    assert run_channel(True, scenario)[:6] == (
        log, records, snapshot, tx_stats, rx_stats, got)
