"""EISA bus model for the SHRIMP network interface comparison (section 6).

SHRIMP attaches to the EISA bus; the paper states its VMMC delivers
user-to-user bandwidth equal to the achievable hardware limit of 23 MB/s,
and that a deliberate-update send is initiated with just **two**
memory-mapped I/O instructions.  EISA I/O cycles are slower than PCI's but
the hardware state machine makes up for it — one-word latency ≈7 µs versus
9.8 µs on Myrinet despite the slower bus.

The bus is a :class:`~repro.hw.bus.pci.PCIBus` with these parameters: a
capacity-1 :class:`~repro.sim.server.Server` of which a DMA or PIO burst
is a hold, a plain call returning the event fired when the hold ends.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim import Environment, Event
from repro.hw.bus.pci import PCIBus


@dataclass(frozen=True)
class EISAParams:
    """Timing parameters for the EISA bus (SHRIMP node)."""

    #: An EISA I/O write (slower than PCI's 0.121 µs posted write).
    mmio_write_ns: int = 500
    #: An EISA I/O read.
    mmio_read_ns: int = 900
    #: DMA: fixed setup (arbitration + address phase).
    dma_setup_ns: int = 700
    #: Sustained EISA burst rate ≈ 24 MB/s raw; 23 MB/s is the achievable
    #: user-level limit the paper quotes.
    dma_ns_per_kb: int = 42000  # ≈23.8 MB/s marginal

    def dma_time_ns(self, nbytes: int) -> int:
        if nbytes <= 0:
            return 0
        return self.dma_setup_ns + (nbytes * self.dma_ns_per_kb) // 1000

    def dma_bandwidth_mbps(self, nbytes: int) -> float:
        t = self.dma_time_ns(nbytes)
        return nbytes / t * 1000.0 if t else 0.0


class EISABus(PCIBus):
    """Shared EISA bus: the :class:`~repro.hw.bus.pci.PCIBus` operations
    and metrics with EISA's timing."""

    def __init__(self, env: Environment, params: EISAParams | None = None,
                 name: str = "eisa"):
        super().__init__(env, params or EISAParams(), name)

    def dma(self, nbytes: int) -> Event:
        """:meth:`PCIBus.dma` with EISA's one-slope law
        (``params.dma_time_ns``), computed inline the same way."""
        params = self.params
        duration = (params.dma_setup_ns + nbytes * params.dma_ns_per_kb // 1000
                    if nbytes > 0 else 0)
        if self.env.metrics is not None:
            self.dma_queue_depth.set(len(self._server._waiting))
        return self._server.serve(self._dma, nbytes, duration)
