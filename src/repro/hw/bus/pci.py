"""PCI bus model calibrated to the paper's measurements (section 5.2).

Measured anchors on the Dell Dimension P166 / Intel 430FX testbed:

* memory-mapped I/O **read** across PCI: 0.422 µs
* memory-mapped I/O **write** across PCI: 0.121 µs (posted write)
* host↔LANai DMA of a one-word message: ≈2 µs including arbitration
  (receive-side budget in section 5.2)
* host↔LANai DMA bandwidth: ≈100 MB/s at 4 KB transfer units and
  ≈128 MB/s at 64 KB units (Figure 1)

A single ``setup + size/rate`` law cannot satisfy all four anchors because
the marginal byte rate *improves* with transfer size (longer PCI bursts
amortise address phases, and the LANai's internal bus interleaves better on
long streams).  We therefore use a two-slope law::

    t(size) = setup + min(size, knee)/rate_small + max(0, size-knee)/rate_large

with ``knee`` = one page.  Fitted to the anchors this gives ≈2 µs for tiny
transfers, exactly 100 MB/s at 4 KB and exactly 128 MB/s at 64 KB, with the
monotonically rising curve of Figure 1 in between.

The bus carries one transaction at a time in arrival order: it is a
capacity-1 :class:`~repro.sim.server.Server`, and a DMA or PIO burst is
a *hold* of it — a plain call that returns the event fired when the hold
ends.  A DMA engine appends its own finish (copy the bytes, release the
engine) to that event, so one event ends both the bus transaction and
the engine's transfer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim import Environment, Event, Server, Timeout
from repro.sim.trace import emit
from repro.obs.metrics import UNSET, Gauge


@dataclass(frozen=True)
class PCIParams:
    """Timing parameters for one PCI bus (defaults: paper testbed)."""

    #: Programmed-I/O read across the bus (paper: 0.422 µs).
    mmio_read_ns: int = 422
    #: Programmed-I/O (posted) write across the bus (paper: 0.121 µs).
    mmio_write_ns: int = 121
    #: Fixed DMA cost: arbitration + engine start + first data phase.
    dma_setup_ns: int = 2000
    #: Two-slope DMA law: bytes up to ``dma_knee_bytes`` move at the small
    #: rate, bytes beyond at the large rate (both in ns per byte, scaled
    #: by 1000 to stay integral: ns per 1000 bytes).
    dma_knee_bytes: int = 4096
    dma_small_ns_per_kb: int = 9521   # ≈105 MB/s marginal
    dma_large_ns_per_kb: int = 7667   # ≈130 MB/s marginal

    def dma_time_ns(self, nbytes: int) -> int:
        """Duration of one DMA transaction of ``nbytes``."""
        if nbytes <= 0:
            return 0
        small = min(nbytes, self.dma_knee_bytes)
        large = max(0, nbytes - self.dma_knee_bytes)
        return (self.dma_setup_ns
                + (small * self.dma_small_ns_per_kb) // 1000
                + (large * self.dma_large_ns_per_kb) // 1000)

    def dma_bandwidth_mbps(self, nbytes: int) -> float:
        """Effective bandwidth (MB/s) of one transaction — Figure 1's y-axis."""
        t = self.dma_time_ns(nbytes)
        return nbytes / t * 1000.0 if t else 0.0


class PCIBus:
    """A shared PCI bus: MMIO accesses and DMA bursts contend for it.

    The bus is a capacity-1 :class:`~repro.sim.server.Server`.  DMA
    engines hold it for whole transactions (the 430FX gives the
    busmaster long bursts); PIO accesses queue behind them, which is how
    send-posting cost can grow under heavy DMA traffic — visible in the
    bidirectional benchmark.

    Every operation is a **plain call** that takes the bus in arrival
    order and returns the event fired when the hold ends (a ``Timeout``
    started at the grant): ``yield bus.dma(n)`` to wait for it, or keep
    the event and carry on.
    """

    def __init__(self, env: Environment, params: PCIParams | None = None,
                 name: str = "pci"):
        self.env = env
        self.params = params or PCIParams()
        self.name = name
        self._server = Server(env)
        #: PIO kind -> [words, accesses], while a registry is installed.
        self.pio_words = {"read": [0, 0], "write": [0, 0]}
        self.dma_queue_depth = Gauge(UNSET)
        self.dma_transactions = 0
        self.dma_bytes = 0
        self.dma_durations: list[int] = []
        env.collectors.append(self._collect)

    def _collect(self):
        bus = {"bus": self.name}
        for kind, (words, accesses) in self.pio_words.items():
            yield ("counter", "bus.pio.words",
                   {"bus": self.name, "kind": kind}, (words, accesses))
        yield "gauge", "bus.dma.queue_depth", bus, self.dma_queue_depth
        yield "counter", "bus.dma.transactions", bus, self.dma_transactions
        yield ("counter", "bus.dma.bytes", bus,
               (self.dma_bytes, self.dma_transactions))
        yield "histogram", "bus.dma.duration_ns", bus, self.dma_durations

    # -- programmed I/O ------------------------------------------------------
    def mmio_read(self, words: int = 1) -> Event:
        """``words`` uncached I/O reads; the event fires when they end."""
        return self._server.serve(self._pio, "read", words,
                                  self.params.mmio_read_ns * words)

    def mmio_write(self, words: int = 1) -> Event:
        """``words`` posted I/O writes; the event fires when they end."""
        return self._server.serve(self._pio, "write", words,
                                  self.params.mmio_write_ns * words)

    def _pio(self, kind: str, words: int, duration: int) -> Timeout:
        env = self.env
        if env.tracer is not None:
            emit(env, f"{self.name}.pio.{kind}", words=words)
        if env.metrics is not None:
            tally = self.pio_words[kind]
            tally[0] += words
            tally[1] += 1
        return Timeout(env, duration)

    # -- DMA ---------------------------------------------------------------------
    def dma(self, nbytes: int) -> Event:
        """One DMA transaction of ``nbytes`` across the bus; the event
        fires when it ends.

        The caller (a DMA engine) is responsible for actually moving the
        bytes between memories; this models only the bus time, which is
        ``params.dma_time_ns(nbytes)``, computed inline: every DMA of
        every packet comes through here.
        """
        if nbytes <= 0:
            duration = 0
        else:
            params = self.params
            knee = params.dma_knee_bytes
            if nbytes <= knee:
                duration = (params.dma_setup_ns
                            + nbytes * params.dma_small_ns_per_kb // 1000)
            else:
                duration = (params.dma_setup_ns
                            + knee * params.dma_small_ns_per_kb // 1000
                            + (nbytes - knee)
                            * params.dma_large_ns_per_kb // 1000)
        if self.env.metrics is not None:
            self.dma_queue_depth.set(len(self._server._waiting))
        return self._server.serve(self._dma, nbytes, duration)

    def _dma(self, nbytes: int, duration: int) -> Timeout:
        env = self.env
        if env.tracer is not None:
            emit(env, f"{self.name}.dma", nbytes=nbytes, duration=duration)
        if env.metrics is not None:
            self.dma_transactions += 1
            self.dma_bytes += nbytes
            self.dma_durations.append(duration)
        return Timeout(env, duration)

    @property
    def busy(self) -> bool:
        return self._server.busy
