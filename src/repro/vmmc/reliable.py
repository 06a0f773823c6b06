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
from typing import Optional

import numpy as np

from repro.sim import AnyOf, Environment
from repro.sim.trace import emit
from repro.obs.metrics import counter, gauge, histogram
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


def _reimport_with_backoff(end, imported: ImportedBuffer):
    """Generator: re-establish a stale import of channel end ``end``
    (sender or receiver), retried with exponential backoff on the end's
    timeout schedule while the exporter's daemon reboots — it
    re-registers exports *during* boot, so early attempts are denied
    (export not yet back) or time out (daemon still dead), both
    :class:`ImportDenied`.  The spent budget surfaces as
    :class:`RetriesExhausted`."""
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
    end._m_reimports.inc()
    emit(end.env, "rel.reimport", channel=end.name, name=imported.name,
         attempts=attempts)


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
        self._m_rto_ns = gauge(env, "rel.rto_ns", channel=name)
        self._m_cwnd = gauge(env, "rel.cwnd", channel=name)
        self._m_inflight = gauge(env, "rel.inflight", channel=name)
        self._m_srtt_ns = gauge(env, "rel.srtt_ns", channel=name)
        self._m_rttvar_ns = gauge(env, "rel.rttvar_ns", channel=name)
        self._m_rtt_ns = histogram(env, "rel.rtt_ns", channel=name)
        self._m_timeouts = counter(env, "rel.timeouts", channel=name)
        self._m_retransmits = counter(env, "rel.retransmits", channel=name)
        self._m_stale_transmits = counter(env, "rel.stale_transmits",
                                          channel=name)
        self._m_reimports = counter(env, "rel.reimports", channel=name)
        #: Local, exported; the receiver remote-writes the cumulative ACK.
        self.ack_buf: UserBuffer = ep.alloc_buffer(4096)
        self.ack_buf.write_u32(0)
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
        #: FIFO admission cursor (next sequence allowed to transmit).
        self._admit_next = 1
        self._kick_ev = None
        #: In-progress transparent recovery of the stale ring import
        #: (serialises concurrent in-flight slots onto one reimport).
        self._recovering = None
        self._m_rto_ns.set(self.rto_ns)
        self._m_cwnd.set(self.cwnd)
        self._m_inflight.set(0)

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
        self._m_rto_ns.set(self.rto_ns)

    def _set_cwnd(self, value: int, reason: str) -> None:
        """Sole mutator of :attr:`cwnd`; clamped to ``[1, nslots]`` (the
        ring), traced, and gauge-published."""
        value = max(1, min(value, self.nslots))
        if value == self.cwnd:
            return
        self.cwnd = value
        if value > self.stats.cwnd_max:
            self.stats.cwnd_max = value
        self._m_cwnd.set(value)
        emit(self.env, "rel.cwnd", channel=self.name, cwnd=value,
             reason=reason)
        if reason == "grow":
            self._kick()

    def _set_inflight(self, value: int) -> None:
        self.inflight = value
        self._m_inflight.set(value)

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
        self._m_srtt_ns.set(self.srtt_ns)
        self._m_rttvar_ns.set(self.rttvar_ns)
        self._set_rto(self.srtt_ns
                      + max(RTO_GRANULARITY_NS, RTO_K * self.rttvar_ns))
        emit(self.env, "rel.rtt.sample", channel=self.name, seq=seq,
             rtt_ns=int(rtt_ns), srtt_ns=self.srtt_ns,
             rttvar_ns=self.rttvar_ns, rto_ns=self.rto_ns)
        self.pressure = max(0, self.pressure - 1)
        self._set_cwnd(self.cwnd + 1, reason="grow")

    # -- admission / wakeup plumbing ------------------------------------------
    def _kick(self) -> None:
        """Wake every process parked in :meth:`_kick_wait` (window state
        changed: a slot resolved, or the window grew)."""
        if self._kick_ev is not None and not self._kick_ev.triggered:
            event = self._kick_ev
            self._kick_ev = None
            event.succeed()

    def _kick_wait(self):
        if self._kick_ev is None or self._kick_ev.triggered:
            self._kick_ev = self.env.event()
        return self._kick_ev

    # -- protocol -------------------------------------------------------------
    @property
    def acked(self) -> int:
        """Highest sequence number the receiver has acknowledged."""
        return self.ack_buf.read_u32(0)

    def _transmit(self, seq: int, base: int, data: bytes):
        """Generator: deposit one complete slot image in the remote ring."""
        header = _HEADER.pack(seq & 0xFFFFFFFF, len(data),
                              zlib.crc32(data), 0)
        self._scratch.write(header, offset=base)
        if data:
            self._scratch.write(data, offset=base + HEADER_BYTES)
        yield self.ep.send(self._scratch, self._ring.at(base),
                           HEADER_BYTES + len(data), src_offset=base)

    def _transmit_recovering(self, seq: int, base: int, data: bytes):
        """Generator: like :meth:`_transmit`, but when the ring import has
        gone stale (receiver's daemon cold-restarted) transparently
        re-import it and replay the slot — the retransmission machinery
        above us never notices the outage.  Concurrent in-flight slots
        that hit the same stale import share one recovery."""
        attempts = 0
        while True:
            try:
                yield from self._transmit(seq, base, data)
                return
            except CompletionError:
                # The mapping died *while the send was in flight* (cold
                # crash race: the error completion beats the stale
                # flag).  Back off one timeout; the retry either finds a
                # healthy mapping or hits the ImportStale fast path
                # below and recovers through the reimport machinery.
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
                self._m_stale_transmits.inc()
                emit(self.env, "rel.transmit.stale", channel=self.name,
                     seq=seq, attempt=attempts)
                if attempts > self.max_retries:
                    self.stats.send_failures += 1
                    raise RetriesExhausted(
                        f"{self.name}: seq {seq} kept hitting a stale "
                        f"ring import after {attempts} recoveries",
                        seq=seq, retries=attempts)
                if self._recovering is not None:
                    # Another in-flight slot is already re-importing the
                    # ring; piggyback on its recovery (a second reimport
                    # of the same handle would race the first).
                    yield self._recovering
                    continue
                self._recovering = self.env.event()
                try:
                    yield from _reimport_with_backoff(self, self._ring)
                finally:
                    event = self._recovering
                    self._recovering = None
                    event.succeed()

    def _pace(self, seq: int):
        """Generator: delay this transmission behind the pacing gate,
        then reserve the next transmission's earliest start according to
        the current retransmit pressure."""
        wait = self._next_tx_at - self.env.now
        if wait > 0:
            self.stats.paced_ns += wait
            emit(self.env, "rel.pace", channel=self.name, seq=seq,
                 wait_ns=wait, pressure=self.pressure)
            yield self.env.timeout(wait)
        self._next_tx_at = self.env.now + self.pressure * PACE_QUANTUM_NS

    def send(self, payload: bytes | np.ndarray):
        """Process: deliver ``payload`` reliably; value is its sequence
        number.  Raises :class:`RetriesExhausted` when the retry budget is
        spent without an acknowledgement.

        Concurrent ``send()`` calls pipeline through the AIMD window in
        FIFO order; payloads are delivered exactly once, in call order.
        """
        data = bytes(payload) if isinstance(payload, (bytes, bytearray)) \
            else np.asarray(payload).tobytes()
        return self.env.process(self._send_windowed(data),
                                name=f"rel.send.{self.name}")

    def _send_windowed(self, data: bytes):
        """Generator: the send policy — admission through the AIMD
        window, per-slot deadline from the RTO estimator, cumulative-ACK
        completion, pacing on every (re)transmission."""
        if self._ring is None:
            raise ReliableError(f"channel {self.name} not opened")
        if len(data) > self.payload_per_slot:
            raise ReliableError(
                f"payload of {len(data)}B exceeds the "
                f"{self.payload_per_slot}B slot capacity")
        seq = self._next_seq
        self._next_seq += 1
        base = ((seq - 1) % self.nslots) * self.slot_bytes
        # FIFO admission: wait for both the window and our turn, so slots
        # enter the ring in sequence order and never overwrite a live
        # predecessor (window <= ring slots).
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
            yield from self._pace(seq)
            t0 = self.env.now
            yield from self._transmit_recovering(seq, base, data)
            slot_rto = self.rto_ns
            deadline = self.env.now + slot_rto
            last_ack = self.acked
            while True:
                # Arm the watch *before* checking (race-free idiom).
                watch = self.ep.watch(self.ack_buf, 0, 4)
                yield self.ep.membus.cacheline_fill()
                ack = self.acked
                if ack >= seq:
                    break
                if ack > last_ack:
                    # Cumulative progress: the window is draining in
                    # order, so restart this slot's timer instead of
                    # retransmitting a message that is merely queued
                    # behind the advancing ACK.
                    last_ack = ack
                    deadline = self.env.now + slot_rto
                remaining = deadline - self.env.now
                if remaining <= 0:
                    self.stats.timeouts += 1
                    self._m_timeouts.inc()
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
                    self._m_retransmits.inc()
                    emit(self.env, "rel.retransmit", channel=self.name,
                         seq=seq, attempt=retries)
                    self._on_timeout(seq)
                    slot_rto = self.rto_ns
                    yield from self._pace(seq)
                    yield from self._transmit_recovering(seq, base, data)
                    deadline = self.env.now + slot_rto
                    continue
                yield AnyOf(self.env, [watch, self.env.timeout(remaining)])
            self.stats.messages_delivered += 1
            rtt = self.env.now - t0
            self._m_rtt_ns.observe(rtt)
            if retransmitted:
                # Karn's rule: a retransmitted slot's round trip is
                # ambiguous (which copy was ACKed?) — never sample it.
                self.stats.retransmitted_deliveries += 1
            else:
                self._on_clean_ack(seq, rtt)
            emit(self.env, "rel.delivered", channel=self.name, seq=seq,
                 retransmits=retries)
            return seq
        finally:
            self._set_inflight(self.inflight - 1)
            self._kick()


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
        self._m_stale_transmits = counter(self.env, "rel.stale_transmits",
                                          channel=name)
        self._m_reimports = counter(self.env, "rel.reimports", channel=name)
        self._m_duplicates = counter(self.env, "rel.duplicates",
                                     channel=name)
        #: Local, exported; the sender deposits slot images here.
        self.ring: UserBuffer = ep.alloc_buffer(nslots * slot_bytes)
        self.ring.fill(0)
        #: The ring's frames, resolved once: nothing unmaps it (and an
        #: exported buffer is pinned, so nothing can), so a wake watches
        #: and reads them without translating the ring's pages again.
        self._ring_extents = self.ring.space.physical_extents(
            self.ring.vaddr, self.ring.nbytes)
        self._memory = self.ring.space.memory
        #: Staging for outgoing ACK remote-writes.
        self._ack_scratch: UserBuffer = ep.alloc_buffer(4096)
        self._ack_at_sender: Optional[ImportedBuffer] = None
        self._next_seq = 1
        #: The whole ring as the previous wake read it, for telling a
        #: duplicate retransmission (seq <= delivered landing again) from
        #: a future window slot arriving out of order.
        self._image: Optional[bytes] = None

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

    def _send_ack(self, seq: int, resend: bool = False):
        """Generator: remote-write the cumulative ACK into the sender.

        If the ACK import went stale (the *sender's* daemon cold-
        restarted) recover it transparently — a swallowed ACK would only
        provoke a retransmission, but re-importing here keeps the channel
        from degenerating into a retransmit storm."""
        self._ack_scratch.write_u32(seq)
        if resend:
            self.stats.acks_resent += 1
        self.stats.acks_sent += 1
        emit(self.env, "rel.ack", channel=self.name, seq=seq, resend=resend)
        attempts = 0
        while True:
            try:
                yield self.ep.send(self._ack_scratch,
                                   self._ack_at_sender.at(0), 4)
                return
            except CompletionError:
                # ACK write completed with an error (the sender's
                # mapping died mid-flight during a cold crash).  Back
                # off and retry; a genuinely stale import surfaces as
                # ImportStale on the next attempt.
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
                self._m_stale_transmits.inc()
                emit(self.env, "rel.transmit.stale", channel=self.name,
                     seq=seq, attempt=attempts, ack=True)
                if attempts > self.max_retries:
                    raise RetriesExhausted(
                        f"{self.name}: ACK import kept going stale after "
                        f"{attempts} recoveries", seq=seq, retries=attempts)
                yield from _reimport_with_backoff(self, self._ack_at_sender)

    def _complete_at(self, image: bytes, base: int,
                     expected: int) -> Optional[bytes]:
        """The ring ``image`` holds a complete copy of message
        ``expected`` in the slot at ``base`` iff the seq matches and the
        payload CRC verifies (guards against partially-arrived multi-chunk
        messages whose tail was corrupted on the wire)."""
        seq, length, crc, _ = _HEADER.unpack_from(image, base)
        if seq != expected or length > self.payload_per_slot:
            return None
        start = base + HEADER_BYTES
        payload = image[start:start + length]
        if zlib.crc32(payload) != crc:
            return None
        return payload

    def _watch_ring(self):
        """Event fired when a device write lands anywhere in the ring:
        ``ep.watch(self.ring)`` on the resolved frames."""
        event = self.env.event()
        for paddr, length in self._ring_extents:
            self._memory.add_watch(paddr, length, event)
        return event

    def _scan(self) -> tuple[bytes, list[int]]:
        """Read the whole ring once; returns that image and the indices
        of the slots that changed since the previous wake."""
        memory = self._memory
        image = b"".join([memory.view(paddr, length)
                          for paddr, length in self._ring_extents])
        previous, self._image = self._image, image
        if previous is None:
            return image, list(range(self.nslots))
        if image == previous:
            return image, []
        size = self.slot_bytes
        return image, [i for i in range(self.nslots)
                       if image[i * size:(i + 1) * size]
                       != previous[i * size:(i + 1) * size]]

    def _duplicate_in(self, image: bytes, changed: list[int]) -> bool:
        """True if any freshly-changed slot holds a *complete* image of an
        already-applied message — a late retransmission whose payload
        differs from what last occupied the slot (e.g. it was since
        overwritten by a wrapped sequence)."""
        for i in changed:
            base = i * self.slot_bytes
            seq = _HEADER.unpack_from(image, base)[0]
            if 0 < seq <= self.delivered and \
                    self._complete_at(image, base, seq) is not None:
                return True
        return False

    def recv(self):
        """Process: value is the next message's payload bytes, applied
        exactly once and acknowledged.

        Future window slots arriving ahead of ``expected`` (the sender
        pipelines up to ``cwnd`` slots) simply park in the ring;
        only genuine duplicates — retransmissions of already-applied
        messages, provoked by a lost ACK — are suppressed and re-ACKed.
        """
        def run():
            if self._ack_at_sender is None:
                raise ReliableError(f"channel {self.name} not opened")
            expected = self._next_seq
            base = ((expected - 1) % self.nslots) * self.slot_bytes
            first = True
            while True:
                watch = self._watch_ring()
                yield self.ep.membus.cacheline_fill()
                image, changed = self._scan()
                payload = self._complete_at(image, base, expected)
                if payload is not None:
                    self._next_seq = expected + 1
                    self.stats.messages_delivered += 1
                    emit(self.env, "rel.recv", channel=self.name,
                         seq=expected, nbytes=len(payload))
                    yield from self._send_ack(expected)
                    return payload
                # Duplicate suppression.  Two shapes of lost-ACK fallout:
                # a retransmission that *changed* some slot back to an
                # already-applied seq, or an *identical* rewrite of an
                # applied slot (the common case: same header, same
                # payload, so the watch fired but no byte moved).  Both
                # deserve a re-ACK so the sender stops; a changed slot
                # carrying a *future* seq is the pipeline at work and is
                # left alone.
                duplicate = self._duplicate_in(image, changed) or (
                    not first and not changed and self.delivered >= 1)
                if duplicate:
                    self.stats.duplicates_suppressed += 1
                    self._m_duplicates.inc()
                    yield from self._send_ack(self.delivered, resend=True)
                first = False
                yield watch

        return self.env.process(run(), name=f"rel.recv.{self.name}")


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
