"""Reliable delivery over VMMC (extension beyond the paper).

The paper's VMMC assumes a reliable network: a corrupted packet is
"detected, counted, dropped — never recovered" (section 4.2), which is the
right call for a clean-room Myrinet (BER < 1e-15) but not for a fabric with
failing cables or for the PM-style deployments that ship ACK/NACK recovery
(section 7 / DESIGN S11).  This module layers at-least-once retransmission
with exactly-once payload application on top of the *unmodified* VMMC API,
using only VMMC-idiomatic machinery:

* the receiver exports a **message ring** (sequence-stamped slots); the
  sender deposits ``[header | payload]`` with plain ``SendMsg`` — the
  header carries a payload CRC-32 so a partially-arrived multi-chunk
  message is distinguishable from a complete one;
* the sender exports a one-word **ACK buffer**; the receiver acknowledges
  by remote-memory write into it — there are no receiver-side protocol
  messages, just one ``SendMsg`` of 4 bytes.  ACKs are **cumulative**: the word always holds
  the highest in-order sequence applied;
* the sender runs **adaptive congestion control** — the one policy;
  its gains, pacing quantum and window ceiling are module constants:

  - a Jacobson/Karels retransmission-timeout estimator — ``SRTT`` and
    ``RTTVAR`` maintained with integer shift gains, seeded from the first
    measured round trip, with **Karn's rule** (no RTT sample is ever
    taken from a retransmitted slot; the RTO grows only by doubling on a
    timeout, bounded by ``max_timeout_ns``);
  - a **sliding send window** over the slot ring: up to ``cwnd`` slots
    are in flight concurrently, each with its own deadline, completed by
    the cumulative ACK.  The window is **AIMD**-governed — it halves
    (once per window) when a slot times out and grows by one slot per
    clean ACK, never exceeding the ring;
  - **retransmit-pressure pacing**: every timeout raises a pressure
    level that stretches the gap between consecutive transmissions, so
    sustained loss backs the sender off the link instead of hammering
    it; clean ACKs bleed the pressure away;

  a caller that issues one ``send()`` at a time gets stop-and-wait out
  of the same code (one slot in flight, no pacing, no window cut on a
  clean link) — the separate static stop-and-wait policy lost to this
  one in every ``chaos`` cell and was deleted (EXPERIMENTS.md
  "E-congestion" keeps the measurement);
* on expiry of a slot's deadline the sender retransmits that slot, up to
  a retry budget, after which
  :class:`~repro.vmmc.errors.RetriesExhausted` surfaces as an error
  completion — the thing base VMMC never provides;
* the receiver applies a payload exactly once (monotone sequence check +
  CRC) and **re-acknowledges** whenever a write lands that is a
  retransmission of an already-applied message — that covers
  lost/corrupted ACKs, since the sender's retransmission itself provokes
  a fresh ACK.  Out-of-order arrivals of *future* window slots park in
  their ring slots and are deliberately not mistaken for duplicates.

``send()`` and ``recv()`` are calls that return an event, run as chains
of callbacks, not processes.  The receiver spins on its ring the way a
VMMC receiver does — no receive operation, just memory the DMA writes
into — through one standing write watcher per ring: it notes the slots
each device write touches (found from the ring's frame map) and fires
the pending wake, and the wake reads only those slots against the image
it last read of each.  One ``recv()`` may be pending per receiver.

The sender spins on its one ACK word the same way, however many sends
are in flight.  A send *arms* on the word, then checks it one
cache-line fill later; if the check leaves it waiting it *parks*.  An
ACK write wakes exactly the sends armed before it: one hop at ``now``,
then one fill for the sends that had parked and a check of each in the
order they armed.  A send that arms after the write waits for the next
one; a send woken while its own fill runs looks again from its check.
A parked send keeps one deadline timer: a cumulative-progress restart
moves the deadline, and a timer that fires early re-arms for the rest.
The window's admission queue is a plain list: a kick is one event that
walks the sends queued before it, in order; a send that cannot enter
goes onto the next kick's list.  So a wait costs work in proportion to
the sends it releases, not to the sends queued behind them.

Both ends are deterministic: no RNG, integer-ns timers and estimator
arithmetic, and all traffic is ordinary VMMC sends, so a run under a
seeded :class:`~repro.faults.campaign.FaultCampaign` reproduces exactly —
:class:`ReliableStats` is byte-identical across re-runs of the same seed
(``tests/test_reliable_properties.py`` sweeps this).

Wire format of one ring slot (``slot_bytes`` total)::

    [0:4)    u32 seq      (written first on the wire, but validity is
                           established by the CRC, not by ordering)
    [4:8)    u32 payload length
    [8:12)   u32 CRC-32 of the payload bytes
    [12:16)  u32 reserved
    [16:..)  payload

A message is *complete* at the receiver iff ``seq == expected`` and the
CRC over ``length`` payload bytes verifies.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np

from repro.sim import Environment, Event, Timeout
from repro.sim.server import at_now, then
from repro.sim.trace import emit
from repro.obs.metrics import UNSET, Gauge
from repro.mem.buffers import UserBuffer
from repro.vmmc.api import ImportedBuffer, VMMCEndpoint
from repro.vmmc.errors import (CompletionError, ImportDenied, ImportStale,
                               RetriesExhausted, VMMCError)

#: Slot header: u32 seq, payload length, payload CRC-32, reserved.
_HEADER = struct.Struct("<IIII")
HEADER_BYTES = _HEADER.size
#: Default ring geometry: 8 slots of 4 KB payload each.
DEFAULT_SLOTS = 8
DEFAULT_SLOT_BYTES = HEADER_BYTES + 4096
#: Initial retransmission timeout.  A stop-and-wait round trip (data +
#: remote-write ACK) is ~25–60 µs on the paper testbed; 150 µs gives lossy
#: runs headroom without making recovery glacial.  Doubles as the RTO
#: floor: ``rto_ns`` always stays within ``[timeout_ns, max_timeout_ns]``.
DEFAULT_TIMEOUT_NS = 150_000
#: Exponential backoff / RTO cap.
DEFAULT_MAX_TIMEOUT_NS = 2_000_000
#: Retry budget before an error completion is surfaced.
DEFAULT_MAX_RETRIES = 10

# -- adaptive congestion-control constants ------------------------------------
#: Jacobson/Karels estimator gains as right-shifts: SRTT gain 1/8,
#: RTTVAR gain 1/4 (the classic values).
RTT_ALPHA_SHIFT = 3
RTT_BETA_SHIFT = 2
#: RTO = SRTT + max(RTO_GRANULARITY_NS, RTO_K * RTTVAR).
RTO_K = 4
RTO_GRANULARITY_NS = 1_000
#: Pacing: extra inter-transmission gap per unit of retransmit pressure.
PACE_QUANTUM_NS = 25_000
#: Pressure saturates here, bounding the pacing gap at
#: ``PRESSURE_CAP * PACE_QUANTUM_NS``.
PRESSURE_CAP = 8


class ReliableError(VMMCError):
    """Misuse of the reliable layer (oversized payload, unopened channel)."""


@dataclass
class ReliableStats:
    """Per-channel-end counters (sender and receiver keep their own).

    Everything here is an integer derived from the deterministic
    simulation, so two runs of the same seeded campaign produce
    byte-identical ``as_dict()`` output — the regression oracle the
    property harness sweeps.
    """

    messages_sent: int = 0
    messages_delivered: int = 0
    retransmits: int = 0
    timeouts: int = 0
    send_failures: int = 0
    acks_sent: int = 0
    acks_resent: int = 0
    duplicates_suppressed: int = 0
    #: Sends blocked because the destination import went stale (a peer
    #: daemon cold-restarted); each is followed by a transparent reimport.
    stale_transmits: int = 0
    #: Successful transparent re-imports of a stale destination.
    reimports: int = 0
    #: Error completions on an in-flight transmit (the mapping died
    #: *mid-send* during a cold crash, before the stale flag landed);
    #: each is retried after one backoff like any other loss.
    completion_errors: int = 0
    #: RTT samples fed to the Jacobson/Karels estimator.  Karn's rule:
    #: a delivery whose slot was ever retransmitted contributes to
    #: :attr:`retransmitted_deliveries` instead, never here, so
    #: ``rtt_samples + retransmitted_deliveries == messages_delivered``.
    rtt_samples: int = 0
    #: Deliveries that needed at least one retransmission (no RTT sample).
    retransmitted_deliveries: int = 0
    #: Multiplicative window cuts (at most one per in-flight window).
    cwnd_cuts: int = 0
    #: High-water mark of the AIMD congestion window.
    cwnd_max: int = 0
    #: Total transmission delay imposed by retransmit-pressure pacing.
    paced_ns: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


def _check_geometry(nslots: int, slot_bytes: int) -> None:
    if nslots < 1:
        raise ReliableError(f"ring needs at least one slot, not {nslots}")
    if slot_bytes <= HEADER_BYTES:
        raise ReliableError("slot too small for the header")


def _deposit(end, post: Callable[[], Event], imported: ImportedBuffer,
             seq: int, sent: Callable[[], None],
             failed: Callable[[Exception], None], ack: bool = False) -> None:
    """Run ``post()`` — one VMMC send into ``imported``, a slot image or
    an ACK word — then ``sent()``; a failed send is a :class:`_Deposit`'s
    to recover."""
    def landed(event: Event) -> None:
        if event._ok:
            sent()
        else:
            _Deposit(end, post, imported, seq, sent, failed, ack).landed(
                event)

    post().callbacks.append(landed)


class _Deposit:
    """A deposit whose send failed, carried on to ``sent()``, or to
    ``failed(exc)`` once the retry budget is spent.

    Failure is the rare path (``ack`` marks the receiver's ACK write).
    An error completion means the mapping died *while the send was in
    flight* (the error completion beat the stale flag): back off one
    timeout and retry.  A stale import (the peer's daemon cold-restarted)
    is re-imported and the send replayed, the re-import retried with
    exponential backoff while the exporter's daemon reboots (it
    re-registers exports *during* boot, so early attempts are denied or
    time out, both :class:`ImportDenied`); sends that hit it meanwhile
    share that one recovery."""

    __slots__ = ("end", "post", "imported", "seq", "sent", "failed", "ack",
                 "attempts", "reimports", "backoff")

    def __init__(self, end, post: Callable[[], Event],
                 imported: ImportedBuffer, seq: int,
                 sent: Callable[[], None],
                 failed: Callable[[Exception], None], ack: bool = False):
        self.end, self.post, self.imported = end, post, imported
        self.seq, self.sent, self.failed, self.ack = seq, sent, failed, ack
        self.attempts = 0

    def attempt(self, _event=None) -> None:
        self.post().callbacks.append(self.landed)

    def landed(self, event: Event) -> None:
        if event._ok:
            return self.sent()
        event.defuse()
        exc, end, seq = event._value, self.end, self.seq
        stale = isinstance(exc, ImportStale)
        if not stale and not isinstance(exc, CompletionError):
            return self.failed(exc)
        self.attempts = attempts = self.attempts + 1
        if stale:
            end.stats.stale_transmits += 1
        else:
            end.stats.completion_errors += 1
        if end.env.tracer is not None:
            emit(end.env,
                 "rel.transmit.stale" if stale else "rel.transmit.error",
                 channel=end.name, seq=seq, attempt=attempts,
                 **({"ack": True} if self.ack else {}))
        if attempts > end.max_retries:
            if not self.ack:
                end.stats.send_failures += 1
            return self.failed(RetriesExhausted(
                f"{end.name}: {'ACK write' if self.ack else f'seq {seq}'} "
                f"kept {'hitting a stale import' if stale else 'failing'} "
                f"after {attempts} attempts", seq=seq, retries=attempts))
        if not stale:
            return end.env.timeout(end.timeout_ns).callbacks.append(
                self.attempt)
        if end._recovering is not None:
            return then(end._recovering, self.attempt)
        end._recovering = Event(end.env)
        self.reimports, self.backoff = 0, end.timeout_ns
        self.reimport()

    def reimport(self) -> None:
        self.reimports += 1
        self.imported.reimport(timeout_ns=self.backoff).callbacks.append(
            self.reimported)

    def reimported(self, event: Event) -> None:
        end, exc = self.end, None
        if event._ok:
            end.stats.reimports += 1
            if end.env.tracer is not None:
                emit(end.env, "rel.reimport", channel=end.name,
                     name=self.imported.name, attempts=self.reimports)
        else:
            event.defuse()
            exc = event._value
            if isinstance(exc, ImportDenied):
                if self.reimports <= end.max_retries:
                    self.backoff = min(self.backoff * 2, end.max_timeout_ns)
                    return self.reimport()
                exc = RetriesExhausted(
                    f"{end.name}: import of {self.imported.name!r} not "
                    f"re-established after {self.reimports} attempts",
                    retries=self.reimports)
        # Let the sends that waited on this recovery go, then replay.
        recovering, end._recovering = end._recovering, None
        recovering.succeed()
        if exc is None:
            self.attempt()
        else:
            self.failed(exc)


class _Message:
    """One ``ReliableSender.send`` in the window — its slot, deadline and
    retries — and the send policy as callbacks: admission through the
    AIMD window, pacing, the (re)transmission, the ACK watch against the
    slot's deadline, completion.  Making one starts the send.

    The ACK watch: :meth:`look` arms the send on the sender's ACK word
    and checks the word one cache-line fill later.  A send the check
    leaves waiting is *parked*; the next ACK write wakes it with every
    other send armed before that write (:meth:`ReliableSender._ack_written`),
    and its deadline timer — one per parked send, moved rather than
    re-pushed when cumulative progress restarts it — retransmits it if
    no write comes in time."""

    __slots__ = ("tx", "data", "done", "seq", "base", "retries", "t0",
                 "slot_rto", "deadline", "last_ack", "wake", "parked",
                 "timer")

    def __init__(self, tx: "ReliableSender", data: bytes, done: Event):
        if tx._ring is None:
            done.fail(ReliableError(f"channel {tx.name} not opened"))
            return
        if len(data) > tx.payload_per_slot:
            done.fail(ReliableError(f"payload of {len(data)}B exceeds the "
                                    f"{tx.payload_per_slot}B slot capacity"))
            return
        self.tx, self.data, self.done = tx, data, done
        self.seq = seq = tx._next_seq
        tx._next_seq = seq + 1
        self.base = ((seq - 1) % tx.nslots) * tx.slot_bytes
        self.retries = 0
        #: The hop of the ACK write that woke this send since it last
        #: armed (None: not woken), whether it is parked, and its
        #: pending deadline timer.
        self.wake = self.timer = None
        self.parked = False
        # FIFO admission: wait for both the window and our turn, so slots
        # enter the ring in sequence order and never overwrite a live
        # predecessor (window <= ring slots).
        if seq != tx._admit_next or tx.inflight >= tx.cwnd:
            tx._queued.append(self)
        else:
            self.admit()

    def admit(self) -> None:
        """Take the window place this send's turn and the window allow."""
        tx, seq = self.tx, self.seq
        tx._admit_next = seq + 1
        tx._set_inflight(tx.inflight + 1)
        tx._kick()
        tx.stats.messages_sent += 1
        if tx.env.tracer is not None:
            emit(tx.env, "rel.send", channel=tx.name, seq=seq,
                 nbytes=len(self.data))
        self.pace()

    def pace(self) -> None:
        """Hold a (re)transmission behind the pacing gate."""
        tx = self.tx
        wait = tx._next_tx_at - tx.env._now
        if wait <= 0:
            return self.transmit()
        tx.stats.paced_ns += wait
        if tx.env.tracer is not None:
            emit(tx.env, "rel.pace", channel=tx.name, seq=self.seq,
                 wait_ns=wait, pressure=tx.pressure)
        Timeout(tx.env, wait).callbacks.append(self.transmit)

    def transmit(self, _paced=None) -> None:
        """Reserve the next transmission's earliest start by the current
        retransmit pressure and deposit the slot image in the remote
        ring; a stale ring import or an error completion is recovered
        underneath (:func:`_deposit`)."""
        tx, base, data = self.tx, self.base, self.data
        now = tx.env._now
        tx._next_tx_at = now + tx.pressure * PACE_QUANTUM_NS
        if not self.retries:
            self.t0 = now
        header = _HEADER.pack(self.seq & 0xFFFFFFFF, len(data),
                              zlib.crc32(data), 0)

        def post():
            tx._scratch.write(header + data, offset=base)
            return tx.ep.send(tx._scratch, tx._ring, HEADER_BYTES + len(data),
                              src_offset=base, dest_offset=base)

        _deposit(tx, post, tx._ring, self.seq, self.sent, self.finish)

    def sent(self) -> None:
        tx = self.tx
        if not self.retries:
            self.slot_rto, self.last_ack = tx.rto_ns, int(tx._ack_word[0])
        self.deadline = tx.env._now + self.slot_rto
        self.look()

    def look(self, _hop=None) -> None:
        """Arm on the ACK word *before* checking it (race-free idiom),
        then check it one cache-line fill later."""
        tx = self.tx
        self.wake = None
        tx._armed.append(self)
        tx.membus.cacheline_fill().callbacks.append(self.check)

    def check(self, _fill=None) -> None:
        tx, seq = self.tx, self.seq
        env = tx.env
        ack = int(tx._ack_word[0])
        if ack >= seq:
            if self.wake is None:
                tx._armed.remove(self)
            return self.delivered()
        now = env._now
        if ack > self.last_ack:
            # Cumulative progress: the window is draining in order, so
            # restart this slot's timer instead of retransmitting a
            # message that is merely queued behind the advancing ACK.
            self.last_ack = ack
            self.deadline = now + self.slot_rto
        remaining = self.deadline - now
        if remaining > 0:
            wake = self.wake
            if wake is None:
                # Armed, not woken: wait for the next write or the
                # deadline (the timer a progress restart moved is kept).
                self.parked = True
                if self.timer is None:
                    self.timer = Timeout(env, remaining)
                    self.timer.callbacks.append(self.expire)
            elif wake.callbacks is not None:
                # Woken by a write whose hop has not run yet: look
                # again with that write's batch.
                self.parked = True
            else:
                # Woken while this fill ran: look again right away.
                Timeout(env, 0).callbacks.append(self.look)
            return
        if self.wake is None:
            tx._armed.remove(self)
        self.timer = None
        tx.stats.timeouts += 1
        if self.retries >= tx.max_retries:
            tx.stats.send_failures += 1
            if env.tracer is not None:
                emit(env, "rel.send.failed", channel=tx.name, seq=seq,
                     retries=self.retries)
            return self.finish(RetriesExhausted(
                f"{tx.name}: seq {seq} unacknowledged after "
                f"{self.retries} retransmissions", seq=seq,
                retries=self.retries))
        self.retries += 1
        tx.stats.retransmits += 1
        if env.tracer is not None:
            emit(env, "rel.retransmit", channel=tx.name, seq=seq,
                 attempt=self.retries)
        tx._on_timeout(seq)
        self.slot_rto = tx.rto_ns
        self.pace()

    def expire(self, timer: Timeout) -> None:
        """The deadline timer fired: re-arm it for the rest of a deadline
        a progress restart moved, or, at the deadline, look one last time
        (from a hop at ``now``, where a woken look starts) before the
        check retransmits."""
        if timer is not self.timer:
            return
        self.timer = None
        if not self.parked:
            return
        env = self.tx.env
        remaining = self.deadline - env._now
        if remaining > 0:
            self.timer = Timeout(env, remaining)
            self.timer.callbacks.append(self.expire)
            return
        self.parked = False
        if self.wake is None:
            self.tx._armed.remove(self)
        Timeout(env, 0).callbacks.append(self.look)

    def delivered(self) -> None:
        tx, seq = self.tx, self.seq
        env = tx.env
        tx.stats.messages_delivered += 1
        rtt = env._now - self.t0
        if env.metrics is not None:
            tx.rtt_samples_ns.append(rtt)
        if self.retries:
            # Karn's rule: a retransmitted slot's round trip is ambiguous
            # (which copy was ACKed?) — never sample it.
            tx.stats.retransmitted_deliveries += 1
        else:
            tx._on_clean_ack(seq, rtt)
        if env.tracer is not None:
            emit(env, "rel.delivered", channel=tx.name, seq=seq,
                 retransmits=self.retries)
        self.finish()

    def finish(self, exc: Optional[Exception] = None) -> None:
        """The send is over — delivered, or failed with ``exc``: free its
        window place, then end it."""
        tx = self.tx
        tx._set_inflight(tx.inflight - 1)
        tx._kick()
        if exc is None:
            self.done._end(self.seq)
        else:
            self.done.fail(exc)


class ReliableSender:
    """Sending end of one reliable channel ``me → remote``.

    ``timeout_ns`` is the initial RTO and its floor, ``max_timeout_ns``
    its ceiling; the AIMD window's ceiling is the ring (``nslots``).
    """

    def __init__(self, ep: VMMCEndpoint, name: str,
                 nslots: int = DEFAULT_SLOTS,
                 slot_bytes: int = DEFAULT_SLOT_BYTES,
                 timeout_ns: int = DEFAULT_TIMEOUT_NS,
                 max_timeout_ns: int = DEFAULT_MAX_TIMEOUT_NS,
                 max_retries: int = DEFAULT_MAX_RETRIES):
        _check_geometry(nslots, slot_bytes)
        if timeout_ns <= 0 or max_timeout_ns < timeout_ns:
            raise ReliableError(
                f"invalid timeout range [{timeout_ns}, {max_timeout_ns}]")
        self.ep = ep
        self.env: Environment = ep.env
        self.name = name
        self.nslots = nslots
        self.slot_bytes = slot_bytes
        self.payload_per_slot = slot_bytes - HEADER_BYTES
        self.timeout_ns = timeout_ns
        self.max_timeout_ns = max_timeout_ns
        self.max_retries = max_retries
        self.stats = ReliableStats()
        env = self.env
        #: The congestion state's gauges, set while a registry is installed.
        self.gauges = {name: Gauge(UNSET) for name in (
            "rel.rto_ns", "rel.cwnd", "rel.inflight", "rel.srtt_ns",
            "rel.rttvar_ns")}
        #: Round trip of each delivered message.
        self.rtt_samples_ns: list[int] = []
        env.collectors.append(self._collect)
        #: Local, exported; the receiver remote-writes the cumulative ACK.
        self.ack_buf: UserBuffer = ep.alloc_buffer(4096)
        self.ack_buf.write_u32(0)
        #: The ACK word's frame, resolved once (nothing unmaps the
        #: buffer, and once exported it is pinned), so :attr:`acked`
        #: reads it without translating; one standing watcher on it wakes
        #: the sends armed on it, in the order they armed.
        [(paddr, _)] = self.ack_buf.space.physical_extents(
            self.ack_buf.vaddr, 4)
        memory = self.ack_buf.space.memory
        self._ack_word = memory.data[paddr:paddr + 4].view("<u4")
        self._armed: list[_Message] = []
        self.membus = ep.membus
        memory.watch_writes([(paddr, 4)], self._ack_written)
        #: Staging for outgoing slot images — one staging area *per ring
        #: slot*, so pipelined in-flight transmissions never overwrite
        #: each other's frame mid-DMA (the window never holds two
        #: messages in the same slot, so per-slot staging is race-free).
        self._scratch: UserBuffer = ep.alloc_buffer(nslots * slot_bytes)
        self._ring: Optional[ImportedBuffer] = None
        self._next_seq = 1
        # -- adaptive congestion state (all integer-ns, RNG-free) ----------
        #: Smoothed RTT / RTT variance; ``None`` until the first clean
        #: round trip seeds the estimator.
        self.srtt_ns: Optional[int] = None
        self.rttvar_ns: Optional[int] = None
        #: Current retransmission timeout, always within
        #: ``[timeout_ns, max_timeout_ns]`` (sole mutator: `_set_rto`).
        self.rto_ns = timeout_ns
        #: AIMD congestion window, in ring slots (sole mutator:
        #: `_set_cwnd`); never exceeds the ring.
        self.cwnd = 1
        self.stats.cwnd_max = 1
        #: Slots currently in flight (transmitted, not yet resolved).
        self.inflight = 0
        #: Retransmit pressure driving the pacing gap.
        self.pressure = 0
        self._next_tx_at = 0
        #: Loss-event guard: one multiplicative cut per in-flight window.
        self._cut_upto = 0
        #: FIFO admission cursor (next sequence allowed to transmit), and
        #: the sends queued for the next kick, in the order they queued.
        self._admit_next = 1
        self._queued: list[_Message] = []
        #: In-progress transparent recovery of the stale ring import
        #: (serialises concurrent in-flight slots onto one reimport).
        self._recovering = None
        if env.metrics is not None:
            self.gauges["rel.rto_ns"].set(self.rto_ns)
            self.gauges["rel.cwnd"].set(self.cwnd)
            self.gauges["rel.inflight"].set(0)

    def _collect(self):
        channel = {"channel": self.name}
        stats = self.stats
        for name, gauge in self.gauges.items():
            yield "gauge", name, channel, gauge
        yield "histogram", "rel.rtt_ns", channel, self.rtt_samples_ns
        yield "counter", "rel.timeouts", channel, stats.timeouts
        yield "counter", "rel.retransmits", channel, stats.retransmits
        yield "counter", "rel.stale_transmits", channel, stats.stale_transmits
        yield "counter", "rel.reimports", channel, stats.reimports

    # -- wiring ---------------------------------------------------------------
    def export_ack(self):
        """Process: export the ACK word (do this before the receiver's
        import of it)."""
        return self.ep.export(self.ack_buf, f"rel.ack.{self.name}")

    def import_ring(self, remote_node: str):
        """Process: import the receiver's ring (after it is exported)."""
        def run():
            self._ring = yield self.ep.import_buffer(
                remote_node, f"rel.ring.{self.name}")
            if self._ring.nbytes < self.nslots * self.slot_bytes:
                raise ReliableError(
                    f"remote ring too small for {self.nslots}x"
                    f"{self.slot_bytes}B slots")

        return self.env.process(run(), name=f"rel.import_ring.{self.name}")

    # -- congestion-control state transitions ---------------------------------
    def _set_rto(self, value: int) -> None:
        """Sole mutator of :attr:`rto_ns` (tests wrap it to assert the
        ``[timeout_ns, max_timeout_ns]`` invariant holds *always*)."""
        self.rto_ns = max(self.timeout_ns,
                          min(int(value), self.max_timeout_ns))
        if self.env.metrics is not None:
            self.gauges["rel.rto_ns"].set(self.rto_ns)

    def _set_cwnd(self, value: int, reason: str) -> None:
        """Sole mutator of :attr:`cwnd`; clamped to ``[1, nslots]`` (the
        ring), traced, and gauge-published."""
        value = max(1, min(value, self.nslots))
        if value == self.cwnd:
            return
        self.cwnd = value
        if value > self.stats.cwnd_max:
            self.stats.cwnd_max = value
        if self.env.metrics is not None:
            self.gauges["rel.cwnd"].set(value)
        if self.env.tracer is not None:
            emit(self.env, "rel.cwnd", channel=self.name, cwnd=value,
                 reason=reason)
        if reason == "grow":
            self._kick()

    def _set_inflight(self, value: int) -> None:
        self.inflight = value
        if self.env.metrics is not None:
            self.gauges["rel.inflight"].set(value)

    def _on_timeout(self, seq: int) -> None:
        """Loss signal: raise pacing pressure, back the RTO off (Karn:
        doubling is the only growth path), and cut the AIMD window —
        multiplicatively, at most once per in-flight window."""
        self.pressure = min(self.pressure + 1, PRESSURE_CAP)
        self._set_rto(self.rto_ns * 2)
        if seq > self._cut_upto:
            self.stats.cwnd_cuts += 1
            self._cut_upto = self._next_seq - 1
            self._set_cwnd(self.cwnd // 2, reason="cut")

    def _on_clean_ack(self, seq: int, rtt_ns: int) -> None:
        """Clean (never-retransmitted) round trip: feed the
        Jacobson/Karels estimator, grow the window additively, and bleed
        one unit of pacing pressure."""
        self.stats.rtt_samples += 1
        if self.srtt_ns is None:
            # Seed from the first measured round trip (RFC 6298 style).
            self.srtt_ns = int(rtt_ns)
            self.rttvar_ns = int(rtt_ns) // 2
        else:
            err = int(rtt_ns) - self.srtt_ns
            self.rttvar_ns += (abs(err) - self.rttvar_ns) >> RTT_BETA_SHIFT
            self.srtt_ns += err >> RTT_ALPHA_SHIFT
        if self.env.metrics is not None:
            self.gauges["rel.srtt_ns"].set(self.srtt_ns)
            self.gauges["rel.rttvar_ns"].set(self.rttvar_ns)
        self._set_rto(self.srtt_ns
                      + max(RTO_GRANULARITY_NS, RTO_K * self.rttvar_ns))
        if self.env.tracer is not None:
            emit(self.env, "rel.rtt.sample", channel=self.name, seq=seq,
                 rtt_ns=int(rtt_ns), srtt_ns=self.srtt_ns,
                 rttvar_ns=self.rttvar_ns, rto_ns=self.rto_ns)
        self.pressure = max(0, self.pressure - 1)
        self._set_cwnd(self.cwnd + 1, reason="grow")

    # -- admission / wakeup plumbing ------------------------------------------
    def _kick(self) -> None:
        """Window state changed (a slot resolved, or the window grew): the
        sends queued so far try again, from one event at ``now``.  A send
        that queues after this waits for the next kick."""
        queued = self._queued
        if queued:
            self._queued = []
            Timeout(self.env, 0, queued).callbacks.append(self._admit)

    def _admit(self, kick: Timeout) -> None:
        """A kick's event: walk its sends in the order they queued; each
        is admitted if it is next in sequence and the window has room,
        and otherwise queues for the next kick.  Admitting only fills the
        window, so once it is full the rest queue as they are."""
        queued = kick._value
        for i, message in enumerate(queued):
            if self.inflight >= self.cwnd:
                self._queued += queued[i:]
                return
            if message.seq == self._admit_next:
                message.admit()
            else:
                self._queued.append(message)

    # -- protocol -------------------------------------------------------------
    @property
    def acked(self) -> int:
        """Highest sequence number the receiver has acknowledged."""
        return int(self._ack_word[0])

    def _ack_written(self, _paddr: int, _nbytes: int) -> None:
        """The ACK word's standing watcher: a device write landed on it.
        It wakes exactly the sends armed before it, through one hop at
        ``now``; a send that arms later waits for the next write."""
        woken = self._armed
        if woken:
            self._armed = []
            hop = Timeout(self.env, 0, woken)
            for message in woken:
                message.wake = hop
            hop.callbacks.append(self._relook)

    def _relook(self, hop: Timeout) -> None:
        """A write's hop: the sends it woke that had parked re-arm, in arm
        order, and look again together — one cache-line fill, then each
        send's check in that order.  A send it woke mid-fill looks again
        from its own check."""
        armed, fill = self._armed, None
        for message in hop._value:
            if message.parked and message.wake is hop:
                if fill is None:
                    fill = self.membus.cacheline_fill()
                message.parked = False
                message.wake = None
                armed.append(message)
                fill.callbacks.append(message.check)

    def send(self, payload: bytes | np.ndarray) -> Event:
        """Event: deliver ``payload`` reliably; value is its sequence
        number.  Fails with :class:`RetriesExhausted` when the retry
        budget is spent without an acknowledgement.

        Concurrent ``send()`` calls pipeline through the AIMD window in
        FIFO order; payloads are delivered exactly once, in call order.
        The send starts from one event at ``now``, where it takes its
        sequence number and queues for the window.
        """
        data = bytes(payload) if isinstance(payload, (bytes, bytearray)) \
            else np.asarray(payload).tobytes()
        done = Event(self.env)
        Timeout(self.env, 0, (data, done)).callbacks.append(self._start)
        return done

    def _start(self, start: Timeout) -> None:
        _Message(self, *start._value)


class ReliableReceiver:
    """Receiving end of one reliable channel ``remote → me``.

    ``timeout_ns`` / ``max_timeout_ns`` / ``max_retries`` govern the
    receiver's own recovery machinery (re-importing a stale ACK word
    while the sender's daemon cold-reboots); :func:`open_channel` plumbs
    the channel's configured values through, so a non-default
    ``timeout_ns`` shapes *both* ends.
    """

    def __init__(self, ep: VMMCEndpoint, name: str,
                 nslots: int = DEFAULT_SLOTS,
                 slot_bytes: int = DEFAULT_SLOT_BYTES,
                 timeout_ns: int = DEFAULT_TIMEOUT_NS,
                 max_timeout_ns: int = DEFAULT_MAX_TIMEOUT_NS,
                 max_retries: int = DEFAULT_MAX_RETRIES):
        _check_geometry(nslots, slot_bytes)
        self.ep = ep
        self.env: Environment = ep.env
        self.name = name
        self.nslots = nslots
        self.slot_bytes = slot_bytes
        self.payload_per_slot = slot_bytes - HEADER_BYTES
        self.timeout_ns = timeout_ns
        self.max_timeout_ns = max_timeout_ns
        self.max_retries = max_retries
        self.stats = ReliableStats()
        self.env.collectors.append(self._collect)
        #: Local, exported; the sender deposits slot images here.
        self.ring: UserBuffer = ep.alloc_buffer(nslots * slot_bytes)
        self.ring.fill(0)
        space = self.ring.space
        memory = space.memory
        #: Physical memory as bytes: a look joins a slot's frames from it.
        self._data = memoryview(memory.data)
        #: Each slot's frames, resolved once (nothing unmaps the ring, and
        #: once exported it is pinned); one standing watcher on them notes
        #: the slots every device write touches, found from the ring
        #: offset of each ring frame's first byte (the ring is
        #: page-aligned, so each of its frames holds one ring page).
        self._slot_extents = [
            space.physical_extents(self.ring.vaddr + i * slot_bytes,
                                   slot_bytes) for i in range(nslots)]
        self._page_size = page = memory.page_size
        self._frame_offsets: dict[int, int] = {}
        offset = 0
        for paddr, length in space.physical_extents(self.ring.vaddr,
                                                    self.ring.nbytes):
            for start in range(paddr - paddr % page, paddr + length, page):
                self._frame_offsets[start // page] = offset + start - paddr
            offset += length
        memory.watch_writes(
            [extent for extents in self._slot_extents for extent in extents],
            self._ring_written)
        #: Slots written since a look last read them, and each slot as
        #: that look read it (None: never), for telling a duplicate
        #: retransmission (seq <= delivered landing again) from a future
        #: window slot arriving out of order.
        self._written: set[int] = set(range(nslots))
        self._images: list[Optional[bytes]] = [None] * nslots
        #: The pending ``recv()``'s event, whether it has looked at the
        #: ring yet, and the wake event its current look waits on.
        self._receiving: Optional[Event] = None
        self._looked = False
        self._wake: Optional[Event] = None
        #: Staging for outgoing ACK remote-writes, and its word, resolved
        #: once like the sender's ACK word.
        self._ack_scratch: UserBuffer = ep.alloc_buffer(4096)
        [(paddr, _)] = space.physical_extents(self._ack_scratch.vaddr, 4)
        self._ack_image = memory.data[paddr:paddr + 4].view("<u4")
        self._ack_at_sender: Optional[ImportedBuffer] = None
        self._recovering: Optional[Event] = None
        self._next_seq = 1

    def _collect(self):
        channel = {"channel": self.name}
        stats = self.stats
        yield "counter", "rel.stale_transmits", channel, stats.stale_transmits
        yield "counter", "rel.reimports", channel, stats.reimports
        yield "counter", "rel.duplicates", channel, \
            stats.duplicates_suppressed

    # -- wiring ---------------------------------------------------------------
    def export_ring(self):
        """Process: export the message ring (do this before the sender's
        import of it)."""
        return self.ep.export(self.ring, f"rel.ring.{self.name}")

    def import_ack(self, remote_node: str):
        """Process: import the sender's ACK word (after it is exported)."""
        def run():
            self._ack_at_sender = yield self.ep.import_buffer(
                remote_node, f"rel.ack.{self.name}")

        return self.env.process(run(), name=f"rel.import_ack.{self.name}")

    # -- protocol -------------------------------------------------------------
    @property
    def delivered(self) -> int:
        """Highest sequence number applied (exactly once) so far."""
        return self._next_seq - 1

    def _ring_written(self, paddr: int, nbytes: int) -> None:
        """The ring's standing watcher: note the slots a device write
        touched, and fire the pending wake, if there is one.  (It runs
        for an empty write only inside a slot: that slot is noted.)"""
        page, slot_bytes = self._page_size, self.slot_bytes
        end = paddr + max(nbytes, 1)
        ring_bytes = self.ring.nbytes
        for frame in range(paddr // page, (end - 1) // page + 1):
            offset = self._frame_offsets.get(frame)
            if offset is not None:
                start = frame * page
                lo = offset + max(paddr, start) - start
                hi = min(offset + min(end, start + page) - start, ring_bytes)
                if lo < hi:
                    self._written.update(
                        range(lo // slot_bytes, (hi - 1) // slot_bytes + 1))
        wake = self._wake
        if wake is not None and not wake._scheduled:     # untriggered
            wake.succeed()

    def _scan(self) -> list[int]:
        """Read the slots written since the last wake; returns those whose
        bytes differ from the image that wake read."""
        written, self._written = self._written, set()
        data = self._data
        changed = []
        for i in written:
            image = b"".join([data[paddr:paddr + length]
                              for paddr, length in self._slot_extents[i]])
            if image != self._images[i]:
                self._images[i] = image
                changed.append(i)
        return changed

    def _complete(self, image: bytes, expected: int) -> Optional[bytes]:
        """The slot ``image`` holds a complete copy of message ``expected``
        iff the seq matches and the payload CRC verifies (guards against
        partially-arrived multi-chunk messages whose tail was corrupted
        on the wire)."""
        seq, length, crc, _ = _HEADER.unpack_from(image)
        if seq != expected or length > self.payload_per_slot:
            return None
        payload = image[HEADER_BYTES:HEADER_BYTES + length]
        if zlib.crc32(payload) != crc:
            return None
        return payload

    def _duplicate_in(self, changed: list[int]) -> bool:
        """True if any freshly-changed slot holds a *complete* image of an
        already-applied message — a late retransmission whose payload
        differs from what last occupied the slot (e.g. it was since
        overwritten by a wrapped sequence)."""
        for i in changed:
            image = self._images[i]
            seq = _HEADER.unpack_from(image)[0]
            if 0 < seq <= self.delivered and \
                    self._complete(image, seq) is not None:
                return True
        return False

    def recv(self) -> Event:
        """Event: value is the next message's payload bytes, applied
        exactly once and acknowledged.  One ``recv`` may be pending per
        receiver; a second raises :class:`ReliableError`.

        The receive starts from one event at ``now``.  Each look arms the
        wake, pays the cache-line fill and reads only the slots written
        since the last look.  Future window slots arriving ahead of
        ``expected`` (the sender pipelines up to ``cwnd`` slots) simply
        park in the ring; only genuine duplicates — retransmissions of
        already-applied messages, provoked by a lost ACK — are
        suppressed and re-ACKed.
        """
        if self._receiving is not None:
            raise ReliableError(f"channel {self.name}: a recv() is already "
                                "pending (one per receiver)")
        done = self._receiving = Event(self.env)
        self._looked = False
        if self._ack_at_sender is None:
            at_now(self.env, lambda: self._finish(error=ReliableError(
                f"channel {self.name} not opened")))
        else:
            Timeout(self.env, 0).callbacks.append(self._look)
        return done

    def _look(self, _wake=None) -> None:
        self._wake = Event(self.env)
        self.ep.membus.cacheline_fill().callbacks.append(self._check)

    def _check(self, _fill=None) -> None:
        wake = self._wake
        changed = self._scan()
        expected = self._next_seq
        payload = self._complete(self._images[(expected - 1) % self.nslots],
                                 expected)
        if payload is not None:
            self._wake = None
            self._next_seq = expected + 1
            self.stats.messages_delivered += 1
            if self.env.tracer is not None:
                emit(self.env, "rel.recv", channel=self.name, seq=expected,
                     nbytes=len(payload))
            return self._send_ack(expected,
                                  lambda: self._finish(payload=payload))
        # Duplicate suppression.  Two shapes of lost-ACK fallout: a
        # retransmission that *changed* some slot back to an
        # already-applied seq, or an *identical* rewrite of an applied
        # slot (the common case: same header, same payload, so the wake
        # fired but no byte moved).  Both deserve a re-ACK so the sender
        # stops; a changed slot carrying a *future* seq is the pipeline
        # at work and is left alone.
        duplicate = self._duplicate_in(changed) or (
            self._looked and not changed and self.delivered >= 1)
        self._looked = True
        if duplicate:
            self.stats.duplicates_suppressed += 1
            self._send_ack(self.delivered, lambda: then(wake, self._look),
                           resend=True)
        elif wake.callbacks is None:
            self._look(wake)
        else:
            wake.callbacks.append(self._look)

    def _finish(self, payload: Optional[bytes] = None,
                error: Optional[Exception] = None) -> None:
        done, self._receiving, self._wake = self._receiving, None, None
        if error is None:
            done._end(payload)
        else:
            done.fail(error)

    def _send_ack(self, seq: int, acked: Callable[[], None],
                  resend: bool = False) -> None:
        """Remote-write the cumulative ACK into the sender, then
        ``acked()``.

        If the ACK import went stale (the *sender's* daemon cold-
        restarted) recover it transparently — a swallowed ACK would only
        provoke a retransmission, but re-importing here keeps the channel
        from degenerating into a retransmit storm."""
        self._ack_image[0] = seq & 0xFFFFFFFF
        if resend:
            self.stats.acks_resent += 1
        self.stats.acks_sent += 1
        if self.env.tracer is not None:
            emit(self.env, "rel.ack", channel=self.name, seq=seq,
                 resend=resend)
        _deposit(self, lambda: self.ep.send(
            self._ack_scratch, self._ack_at_sender, 4),
            self._ack_at_sender, seq, acked,
            lambda exc: self._finish(error=exc), ack=True)


def open_channel(tx_ep: VMMCEndpoint, rx_ep: VMMCEndpoint, name: str,
                 nslots: int = DEFAULT_SLOTS,
                 slot_bytes: int = DEFAULT_SLOT_BYTES,
                 timeout_ns: int = DEFAULT_TIMEOUT_NS,
                 max_timeout_ns: int = DEFAULT_MAX_TIMEOUT_NS,
                 max_retries: int = DEFAULT_MAX_RETRIES):
    """Process: wire one reliable channel ``tx_ep → rx_ep``; value is the
    ``(ReliableSender, ReliableReceiver)`` pair.

    The configured ``timeout_ns``/``max_timeout_ns``/``max_retries``
    shape *both* ends — the receiver uses them for its own stale-ACK
    recovery backoff.

    Export order matters only in that each side's import must follow the
    peer's export; the daemons' Ethernet matchmaking handles the rest.
    """
    geometry = dict(nslots=nslots, slot_bytes=slot_bytes,
                    timeout_ns=timeout_ns, max_timeout_ns=max_timeout_ns,
                    max_retries=max_retries)
    sender = ReliableSender(tx_ep, name, **geometry)
    receiver = ReliableReceiver(rx_ep, name, **geometry)
    env = tx_ep.env

    def run():
        # Both exports first (they are independent), then both imports.
        yield receiver.export_ring()
        yield sender.export_ack()
        yield sender.import_ring(rx_ep.node_name)
        yield receiver.import_ack(tx_ep.node_name)
        return sender, receiver

    return env.process(run(), name=f"rel.open.{name}")


def open_mesh(eps: list[VMMCEndpoint], prefix: str, **geometry):
    """Generator (run it with ``yield from``): wire one reliable channel
    per ordered pair of ``eps``, ``src`` major, each named
    ``f"{prefix}.{src}->{dst}"``; value is ``{(src, dst): (sender,
    receiver)}``.  ``geometry`` is :func:`open_channel`'s keywords."""
    channels = {}
    for src, tx_ep in enumerate(eps):
        for dst, rx_ep in enumerate(eps):
            if src != dst:
                channels[src, dst] = yield open_channel(
                    tx_ep, rx_ep, f"{prefix}.{src}->{dst}", **geometry)
    return channels
