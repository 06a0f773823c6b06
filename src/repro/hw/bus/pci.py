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
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim import Environment, Resource
from repro.sim.trace import emit
from repro.obs.metrics import count, observe, set_gauge


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

    The bus is a capacity-1 resource.  DMA engines hold it for whole
    transactions (the 430FX gives the busmaster long bursts); PIO accesses
    queue behind them, which is how send-posting cost can grow under heavy
    DMA traffic — visible in the bidirectional benchmark.

    Every operation is a **generator** the caller runs:
    ``yield from bus.dma(n)`` inline, or ``env.process(bus.dma(n))`` to
    overlap it with the caller's own work.
    """

    def __init__(self, env: Environment, params: PCIParams | None = None,
                 name: str = "pci"):
        self.env = env
        self.params = params or PCIParams()
        self.name = name
        self._arbiter = Resource(env, capacity=1)

    # -- programmed I/O ------------------------------------------------------
    def mmio_read(self, words: int = 1):
        """Generator: perform ``words`` uncached I/O reads."""
        return self._pio(self.params.mmio_read_ns, words, "read")

    def mmio_write(self, words: int = 1):
        """Generator: perform ``words`` posted I/O writes."""
        return self._pio(self.params.mmio_write_ns, words, "write")

    def _pio(self, cost_ns: int, words: int, kind: str):
        with self._arbiter.request() as req:
            yield req
            emit(self.env, f"{self.name}.pio.{kind}", words=words)
            count(self.env, "bus.pio.words", words,
                  bus=self.name, kind=kind)
            yield self.env.timeout(cost_ns * words)

    # -- DMA ---------------------------------------------------------------------
    def dma(self, nbytes: int, priority: int = 0):
        """Generator: one DMA transaction of ``nbytes`` across the bus.

        The caller (a DMA engine) is responsible for actually moving the
        bytes between memories; this models only the bus time.
        """
        duration = self.params.dma_time_ns(nbytes)
        set_gauge(self.env, "bus.dma.queue_depth",
                  self._arbiter.queue_length, bus=self.name)
        with self._arbiter.request(priority=priority) as req:
            yield req
            emit(self.env, f"{self.name}.dma", nbytes=nbytes,
                 duration=duration)
            count(self.env, "bus.dma.transactions", bus=self.name)
            count(self.env, "bus.dma.bytes", nbytes, bus=self.name)
            observe(self.env, "bus.dma.duration_ns", duration,
                    bus=self.name)
            yield self.env.timeout(duration)

    @property
    def busy(self) -> bool:
        return self._arbiter.count > 0
