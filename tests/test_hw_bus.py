"""Tests for the bus models: PCI calibration, EISA, memory bus."""

import pytest

from repro.sim import Environment, US
from repro.hw.bus import (
    EISABus,
    EISAParams,
    MemoryBus,
    MemoryBusParams,
    PCIBus,
    PCIParams,
)


# ------------------------------------------------------------------- PCI
def test_pci_mmio_costs_match_paper():
    params = PCIParams()
    assert params.mmio_read_ns == 422      # 0.422 us (section 5.2)
    assert params.mmio_write_ns == 121     # 0.121 us


def test_pci_dma_calibration_anchors():
    """The three section-5.2 / Figure-1 anchors."""
    params = PCIParams()
    # ~2 us for a one-word DMA (receive-side budget).
    assert params.dma_time_ns(4) == pytest.approx(2000, abs=100)
    # ~100 MB/s at 4 KB transfer units.
    assert params.dma_bandwidth_mbps(4096) == pytest.approx(100.0, rel=0.02)
    # ~128 MB/s at 64 KB transfer units.
    assert params.dma_bandwidth_mbps(65536) == pytest.approx(128.0, rel=0.02)


def test_pci_dma_bandwidth_monotone_in_size():
    params = PCIParams()
    sizes = [64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536]
    bws = [params.dma_bandwidth_mbps(s) for s in sizes]
    assert all(b2 > b1 for b1, b2 in zip(bws, bws[1:]))


def test_pci_dma_zero_bytes_free():
    assert PCIParams().dma_time_ns(0) == 0


def test_pci_mmio_write_timing():
    env = Environment()
    bus = PCIBus(env)
    done = {}

    def proc():
        yield bus.mmio_write(4)
        done["t"] = env.now

    env.process(proc())
    env.run()
    assert done["t"] == 4 * 121


def test_pci_mmio_read_timing():
    env = Environment()
    bus = PCIBus(env)
    done = {}

    def proc():
        yield bus.mmio_read(2)
        done["t"] = env.now

    env.process(proc())
    env.run()
    assert done["t"] == 2 * 422


def test_pci_bus_serializes_dma_and_pio():
    env = Environment()
    bus = PCIBus(env)
    log = []

    def dma_user():
        yield bus.dma(4096)
        log.append(("dma", env.now))

    def pio_user():
        yield env.timeout(10)  # arrive while DMA holds the bus
        yield bus.mmio_write(1)
        log.append(("pio", env.now))

    env.process(dma_user())
    env.process(pio_user())
    env.run()
    dma_t = dict(log)["dma"]
    pio_t = dict(log)["pio"]
    assert pio_t == dma_t + 121  # PIO had to wait for the DMA burst


# ------------------------------------------------------------------- EISA
def test_eisa_dma_rate_near_23mbps():
    params = EISAParams()
    assert params.dma_bandwidth_mbps(65536) == pytest.approx(23.0, rel=0.05)


def test_eisa_slower_than_pci():
    eisa, pci = EISAParams(), PCIParams()
    assert eisa.mmio_write_ns > pci.mmio_write_ns
    assert eisa.dma_time_ns(4096) > pci.dma_time_ns(4096)


def test_eisa_bus_pio():
    env = Environment()
    bus = EISABus(env)
    done = {}

    def proc():
        yield bus.mmio_write(2)
        done["t"] = env.now

    env.process(proc())
    env.run()
    assert done["t"] == 2 * EISAParams().mmio_write_ns


@pytest.mark.parametrize("bus_type", [PCIBus, EISABus])
def test_a_dma_hold_lasts_what_its_law_says(bus_type):
    """``dma`` computes the hold inline; it must be ``dma_time_ns``."""
    env = Environment()
    bus = bus_type(env)
    knee = getattr(bus.params, "dma_knee_bytes", 4096)
    for nbytes in (-1, 0, 1, 4, 999, 1000, knee - 1, knee, knee + 1,
                   8192 + 3, 65536, 262144):
        hold = bus.dma(nbytes)
        assert hold.delay == bus.params.dma_time_ns(nbytes), nbytes
        env.run()


# ---------------------------------------------------------------- memory bus
def test_bcopy_bandwidth_near_50mbps():
    """Paper: bcopy ~50 MB/s on the P166 testbed (section 5.4)."""
    params = MemoryBusParams()
    for size in (1024, 8192, 65536, 512 * 1024):
        assert 40 <= params.bcopy_bandwidth_mbps(size) <= 60


def test_bcopy_cold_slower_than_warm():
    params = MemoryBusParams()
    warm = params.bcopy_bandwidth_mbps(16 * 1024)
    cold = params.bcopy_bandwidth_mbps(1024 * 1024)
    assert cold < warm


def test_bcopy_zero_is_free():
    assert MemoryBusParams().bcopy_ns(0) == 0


def test_membus_process_charges_time():
    env = Environment()
    membus = MemoryBus(env)
    done = {}

    def proc():
        yield membus.bcopy(8192)
        done["t"] = env.now

    env.process(proc())
    env.run()
    assert done["t"] == MemoryBusParams().bcopy_ns(8192)
    assert done["t"] > US  # a multi-KB copy takes microseconds
