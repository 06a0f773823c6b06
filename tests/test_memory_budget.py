"""Host memory budget of a booted fabric.

A node models 64 MB of DRAM and a NIC 256 KB of SRAM, but a boot
touches only a few pages of either.  Both byte stores are private
anonymous mappings (``repro.mem.physical.zeroed_bytes``), so the host
commits the pages the model touches and nothing else, and ``tracemalloc``
does not see them at all.  What it does see is every heap allocation: the
objects of the model and any byte store zeroed up front with numpy.  A
simulated memory allocated on the heap again (256 KB per NIC) fails
here with the live total.
"""

import gc
import tracemalloc

from repro.cluster import Cluster, TestbedConfig

#: Live traced bytes of a booted ``fattree:4,h=2`` (16 nodes): ≈ 0.42 MB
#: of objects, against 4.42 MB when each NIC's SRAM was ``np.zeros``.
BOOT_LIVE_BYTES = 1.5 * 2 ** 20


def _boot() -> Cluster:
    return Cluster.build(TestbedConfig(), topology="fattree:4,h=2")


def test_booted_fabric_heap_budget():
    # One boot first, so imports, caches and interned tables are not
    # counted against the cluster.
    _boot()
    gc.collect()
    tracemalloc.start()
    try:
        cluster = _boot()
        gc.collect()
        live, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cluster.nodes) == 16
    assert live <= BOOT_LIVE_BYTES, (
        f"a booted fattree:4,h=2 holds {live / 2 ** 20:.2f} MB of traced "
        f"heap, over the {BOOT_LIVE_BYTES / 2 ** 20:.2f} MB budget")
