"""Destination proxy space (section 2).

Imported receive buffers are mapped into a *destination proxy space* — "a
logically separate special address space in each sender process" (the
Myrinet implementation uses a separate space, not a subset of the sender's
virtual addresses).  Proxy addresses are not backed by local memory; they
only designate transfer destinations and are translated by VMMC (via the
outgoing page table) into a destination machine, process and memory
address.

The proxy space is a simple page-granular allocator over the outgoing
page table's index range: importing an N-page buffer reserves N
consecutive proxy pages, so ``proxy_address = proxy_page * 4096 + offset``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mem.virtual import PAGE_SIZE
from repro.vmmc.errors import ProxyFault


@dataclass(frozen=True)
class ProxyRegion:
    """A consecutive run of proxy pages backing one imported buffer."""

    first_page: int
    npages: int
    nbytes: int

    @property
    def base_address(self) -> int:
        return self.first_page * PAGE_SIZE

    def address(self, offset: int) -> int:
        """Proxy address of ``offset`` bytes into the imported buffer."""
        if not 0 <= offset < self.nbytes:
            raise ProxyFault(
                f"offset {offset} outside imported buffer of {self.nbytes}")
        return self.first_page * PAGE_SIZE + offset


class ProxySpace:
    """Per-process proxy-page allocator (bounded by the outgoing table)."""

    def __init__(self, npages: int):
        self.npages = npages
        self._cursor = 0
        self._regions: list[ProxyRegion] = []
        #: Released (first_page, npages) runs, reusable under pressure.
        self._free: list[tuple[int, int]] = []

    def reserve(self, nbytes: int) -> ProxyRegion:
        """Reserve proxy pages for an ``nbytes`` import.

        Virgin pages are preferred (a re-import after an ``unimport`` or
        invalidation lands on a *fresh* proxy range, so raw addresses into
        the dead region can never alias the new one); released runs are
        reused only when the cursor is exhausted.
        """
        if nbytes <= 0:
            raise ProxyFault("import size must be positive")
        npages = (nbytes + PAGE_SIZE - 1) // PAGE_SIZE
        if self._cursor + npages <= self.npages:
            region = ProxyRegion(self._cursor, npages, nbytes)
            self._cursor += npages
        else:
            region = self._reserve_from_free(npages, nbytes)
        self._regions.append(region)
        return region

    def _reserve_from_free(self, npages: int, nbytes: int) -> ProxyRegion:
        """First-fit over released runs (only once virgin space is gone)."""
        for i, (first, run) in enumerate(self._free):
            if run >= npages:
                if run == npages:
                    del self._free[i]
                else:
                    self._free[i] = (first + npages, run - npages)
                return ProxyRegion(first, npages, nbytes)
        raise ProxyFault(
            f"proxy space exhausted: need {npages} pages, "
            f"{self.npages - self.pages_reserved} left "
            f"(the {self.npages * PAGE_SIZE >> 20} MB import limit)")

    def release(self, region: ProxyRegion) -> None:
        """Return a region's pages (``unimport`` / re-import teardown)."""
        if region not in self._regions:
            raise ProxyFault(f"release of unknown region {region}")
        self._regions.remove(region)
        self._free.append((region.first_page, region.npages))

    @property
    def pages_reserved(self) -> int:
        return self._cursor - sum(run for _, run in self._free)

    @staticmethod
    def split(proxy_address: int) -> tuple[int, int]:
        """Proxy address → (proxy page, offset within page)."""
        if proxy_address < 0:
            raise ProxyFault(f"negative proxy address {proxy_address:#x}")
        return proxy_address // PAGE_SIZE, proxy_address % PAGE_SIZE
