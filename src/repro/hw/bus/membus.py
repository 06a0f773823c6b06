"""Host memory-bus / memory-copy cost model.

Section 5.4 measures ``bcopy`` bandwidth in the vRPC library "in the range
of 50 MBytes/sec depending on the size of the data copied" on the P166 EDO
testbed.  Copies that fit in the 512 KB L2 cache run a little faster than
copies that stream through DRAM, so we model a two-regime rate with a small
fixed call overhead.

The same model provides the per-word cost of touching user data (used by
protocols that compute checksums or marshal arguments) and the cache-line
fill charged when a spinning receiver finally observes the DMA'd
completion word.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim import Environment, Timeout


@dataclass(frozen=True)
class MemoryBusParams:
    """Host memory-copy cost parameters (defaults: P166, EDO DRAM)."""

    #: Fixed function-call + loop-setup overhead of a bcopy.
    copy_setup_ns: int = 150
    #: Copies within L2 reach (≤ threshold) — warm rate, ≈55 MB/s.
    cache_threshold_bytes: int = 64 * 1024
    warm_ns_per_kb: int = 18182   # ≈55 MB/s
    #: Streaming copies through DRAM — ≈45 MB/s.
    cold_ns_per_kb: int = 22222   # ≈45 MB/s
    #: Cost of one cache-line fill (spinner observing a DMA'd word).
    cacheline_fill_ns: int = 120

    def bcopy_ns(self, nbytes: int) -> int:
        """Duration of copying ``nbytes`` host-memory to host-memory."""
        if nbytes <= 0:
            return 0
        rate = (self.warm_ns_per_kb
                if nbytes <= self.cache_threshold_bytes
                else self.cold_ns_per_kb)
        return self.copy_setup_ns + (nbytes * rate) // 1000

    def bcopy_bandwidth_mbps(self, nbytes: int) -> float:
        t = self.bcopy_ns(nbytes)
        return nbytes / t * 1000.0 if t else 0.0


class MemoryBus:
    """Charges memory-copy time; the actual byte movement is done by the
    caller against :class:`~repro.mem.physical.PhysicalMemory`."""

    def __init__(self, env: Environment, params: MemoryBusParams | None = None):
        self.env = env
        self.params = params or MemoryBusParams()

    def bcopy(self, nbytes: int):
        """Timeout event: the time of one host-side memory copy."""
        return self.env.timeout(self.params.bcopy_ns(nbytes))

    def cacheline_fill(self):
        """Timeout event: one cache-line fill."""
        return Timeout(self.env, self.params.cacheline_fill_ns)
