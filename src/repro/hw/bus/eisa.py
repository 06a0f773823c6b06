"""EISA bus model for the SHRIMP network interface comparison (section 6).

SHRIMP attaches to the EISA bus; the paper states its VMMC delivers
user-to-user bandwidth equal to the achievable hardware limit of 23 MB/s,
and that a deliberate-update send is initiated with just **two**
memory-mapped I/O instructions.  EISA I/O cycles are slower than PCI's but
the hardware state machine makes up for it — one-word latency ≈7 µs versus
9.8 µs on Myrinet despite the slower bus.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim import Environment, Resource
from repro.sim.trace import emit
from repro.obs.metrics import count, observe, set_gauge


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


class EISABus:
    """Shared EISA bus: same interface as :class:`~repro.hw.bus.pci.PCIBus`
    (every operation is a generator the caller runs with ``yield from``)."""

    def __init__(self, env: Environment, params: EISAParams | None = None,
                 name: str = "eisa"):
        self.env = env
        self.params = params or EISAParams()
        self.name = name
        self._arbiter = Resource(env, capacity=1)

    def mmio_read(self, words: int = 1):
        return self._pio(self.params.mmio_read_ns, words, "read")

    def mmio_write(self, words: int = 1):
        return self._pio(self.params.mmio_write_ns, words, "write")

    def _pio(self, cost_ns: int, words: int, kind: str):
        with self._arbiter.request() as req:
            yield req
            emit(self.env, f"{self.name}.pio.{kind}", words=words)
            count(self.env, "bus.pio.words", words,
                  bus=self.name, kind=kind)
            yield self.env.timeout(cost_ns * words)

    def dma(self, nbytes: int, priority: int = 0):
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
