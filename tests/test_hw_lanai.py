"""Tests for the LANai NIC hardware: SRAM, processor, DMA engines, NIC."""

import mmap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Environment
from repro.mem import PAGE_SIZE, PhysicalMemory
from repro.hw.bus import PCIBus, PCIParams
from repro.hw.lanai import (
    LANaiProcessor,
    LanaiNIC,
    SRAM,
    SRAMExhausted,
)
from repro.hw.lanai.sram import SRAM_SIZE
from repro.hw.myrinet import MyrinetPacket, topology
from repro.hw.myrinet.packet import BaselineHeader


# ---------------------------------------------------------------------- SRAM
def test_sram_is_256kb():
    assert SRAM().size == 256 * 1024 == SRAM_SIZE


def test_sram_alloc_and_usage_report():
    sram = SRAM()
    sram.alloc("lcp_code", 64 * 1024)
    sram.alloc("sendq.p0", 4096)
    report = sram.usage_report()
    assert report == {"lcp_code": 65536, "sendq.p0": 4096}
    assert sram.used == 65536 + 4096
    assert sram.free_bytes == SRAM_SIZE - sram.used


def test_sram_exhaustion():
    sram = SRAM()
    sram.alloc("big", 200 * 1024)
    with pytest.raises(SRAMExhausted):
        sram.alloc("too_big", 100 * 1024)


def test_sram_duplicate_region_rejected():
    sram = SRAM()
    sram.alloc("x", 16)
    with pytest.raises(ValueError):
        sram.alloc("x", 16)
    with pytest.raises(ValueError):
        sram.alloc("y", 0)


def test_sram_rw_and_bounds():
    sram = SRAM()
    sram.write(100, b"abc")
    assert sram.read(100, 3).tobytes() == b"abc"
    with pytest.raises(ValueError):
        sram.read(SRAM_SIZE - 1, 2)


def test_sram_view_mutates():
    sram = SRAM()
    sram.view(0, 4)[:] = [9, 8, 7, 6]
    assert sram.read(0, 4).tolist() == [9, 8, 7, 6]


def _mapping_of(array: np.ndarray):
    """The object whose buffer ``array``'s bytes live in."""
    base = array.base
    return base.obj if isinstance(base, memoryview) else base


def test_sram_and_physical_memory_are_anonymous_mappings():
    # Both byte stores are committed a page at a time as they are
    # touched, never zeroed up front on the heap.
    assert isinstance(_mapping_of(SRAM().data), mmap.mmap)
    assert isinstance(_mapping_of(PhysicalMemory(2 * PAGE_SIZE).data),
                      mmap.mmap)


@pytest.mark.parametrize("size", [0, -PAGE_SIZE])
def test_empty_byte_stores_are_rejected(size):
    with pytest.raises(ValueError, match="positive size"):
        SRAM(size)
    with pytest.raises(ValueError, match="positive size"):
        PhysicalMemory(size)


def test_sram_unwritten_bytes_read_zero():
    sram = SRAM()
    sram.write(PAGE_SIZE + 3, b"\xff" * 5)
    assert not sram.read(0, PAGE_SIZE + 3).any()
    assert not sram.read(PAGE_SIZE + 8, SRAM_SIZE - PAGE_SIZE - 8).any()
    assert sram.read(PAGE_SIZE + 3, 5).tolist() == [255] * 5


def test_sram_data_and_raw_alias():
    sram = SRAM(2 * PAGE_SIZE)
    assert np.shares_memory(np.asarray(sram.raw), sram.data)
    sram.raw[10:13] = b"xyz"
    assert sram.data[10:13].tobytes() == b"xyz"
    sram.data[PAGE_SIZE] = 7
    assert sram.raw[PAGE_SIZE] == 7


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2 * PAGE_SIZE, SRAM_SIZE]), st.data())
def test_sram_matches_a_bytearray(size, data):
    """Writes of bytes and arrays, reads and views, in any order, see
    exactly what a zeroed ``bytearray`` sees."""
    sram, model = SRAM(size), bytearray(size)
    # Spans start near page edges and the ends of the store; writes
    # are short, reads and views may run to the end.
    hot = [0, PAGE_SIZE - 8, PAGE_SIZE, size - 64]
    for _ in range(data.draw(st.integers(min_value=1, max_value=12))):
        op = data.draw(st.sampled_from(["bytes", "array", "read", "view"]))
        addr = data.draw(st.sampled_from(hot)) + data.draw(
            st.integers(min_value=0, max_value=63))
        longest = size - addr if op in ("read", "view") else 96
        nbytes = data.draw(st.integers(min_value=0,
                                       max_value=min(longest, size - addr)))
        if op in ("bytes", "array"):
            payload = data.draw(st.binary(min_size=nbytes, max_size=nbytes))
            sram.write(addr, payload if op == "bytes"
                       else np.frombuffer(payload, dtype=np.uint8))
            model[addr:addr + nbytes] = payload
        elif op == "read":
            assert sram.read(addr, nbytes).tobytes() == model[
                addr:addr + nbytes]
        else:
            view = sram.view(addr, nbytes)
            assert view.tobytes() == model[addr:addr + nbytes]
            view[:] = 0x5A
            model[addr:addr + nbytes] = b"\x5a" * nbytes
    assert sram.data.tobytes() == model


# ------------------------------------------------------------------ processor
def test_processor_cycle_time_is_33mhz():
    env = Environment()
    cpu = LANaiProcessor(env)
    done = {}

    def proc():
        yield cpu.cycles(100)
        done["t"] = env.now

    env.process(proc())
    env.run()
    assert done["t"] == 100 * 30  # 30 ns per cycle at 33 MHz
    assert cpu.cycles_charged == 100
    assert cpu.busy_time_ns == 3000


def test_processor_work_ns_rounds_up_to_cycles():
    env = Environment()
    cpu = LANaiProcessor(env)

    def proc():
        yield cpu.work_ns(45)  # 1.5 cycles -> 2 cycles

    env.process(proc())
    env.run()
    assert env.now == 60


# ----------------------------------------------------------------- NIC + DMA
def make_nic_pair():
    env = Environment()
    net = topology.build(topology.SingleSwitchSpec(nhosts_=2), env)
    mem0 = PhysicalMemory(1024 * 1024)
    mem1 = PhysicalMemory(1024 * 1024)
    nic0 = LanaiNIC(env, net, "node0", PCIBus(env), mem0)
    nic1 = LanaiNIC(env, net, "node1", PCIBus(env), mem1)
    return env, net, (nic0, mem0), (nic1, mem1)


def test_host_dma_to_sram_moves_real_bytes():
    env, _, (nic, mem), _ = make_nic_pair()
    payload = np.arange(4096, dtype=np.uint8) % 251
    mem.write(8192, payload)
    done = {}

    def proc():
        yield nic.host_dma.to_sram(8192, 1000, 4096)
        done["t"] = env.now

    env.process(proc())
    env.run()
    assert np.array_equal(nic.sram.read(1000, 4096), payload)
    assert done["t"] == PCIParams().dma_time_ns(4096)
    assert nic.host_dma.bytes_to_sram == 4096


def test_host_dma_to_host_roundtrip():
    env, _, (nic, mem), _ = make_nic_pair()
    nic.sram.write(500, b"from sram")

    def proc():
        yield nic.host_dma.write_host(nic.sram.read(500, 9), 4096)

    env.process(proc())
    env.run()
    assert mem.read(4096, 9).tobytes() == b"from sram"
    assert nic.host_dma.bytes_to_host == 9


def test_host_dma_scatter_two_extents():
    env, _, (nic, mem), _ = make_nic_pair()
    nic.sram.write(0, bytes(range(100)))
    done = {}

    def proc():
        yield nic.host_dma.write_host_scatter(nic.sram.read(0, 100),
                                              [(1000, 60), (5000, 40)])
        done["t"] = env.now

    env.process(proc())
    env.run()
    assert mem.read(1000, 60).tobytes() == bytes(range(60))
    assert mem.read(5000, 40).tobytes() == bytes(range(60, 100))
    # Two transactions, the second queued as the first ends.
    params = PCIParams()
    assert done["t"] == params.dma_time_ns(60) + params.dma_time_ns(40)


def test_host_dma_serializes_transfers():
    env, _, (nic, mem), _ = make_nic_pair()
    times = []

    def proc():
        a = nic.host_dma.to_sram(0, 0, 1024)
        b = nic.host_dma.to_sram(4096, 2048, 1024)
        yield a
        times.append(env.now)
        yield b
        times.append(env.now)

    env.process(proc())
    env.run()
    one = PCIParams().dma_time_ns(1024)
    assert times == [one, 2 * one]


def test_net_send_to_recv_through_fabric():
    env, net, (nic0, _), (nic1, _) = make_nic_pair()
    nic0.sram.write(0, b"wire payload!")

    def sender():
        pkt = MyrinetPacket(net.compute_route("node0", "node1"),
                            BaselineHeader("api_msg"),
                            nic0.sram.read(0, 13))
        yield nic0.net_send.send(pkt)

    env.process(sender())
    env.run()
    assert nic1.net_recv.pending() == 1
    assert nic0.net_send.packets_sent == 1
    assert nic1.net_recv.packets_received == 1
    assert nic1.net_recv.crc_errors == 0

    got = {}

    def drain():
        pkt = yield nic1.net_recv.get()
        got["payload"] = bytes(pkt.payload)
        got["crc_ok"] = pkt.meta["crc_ok"]

    env.process(drain())
    env.run()
    assert got == {"payload": b"wire payload!", "crc_ok": True}


def test_host_mmio_sram_write_and_read():
    env, _, (nic, _), _ = make_nic_pair()
    got = {}

    def proc():
        yield nic.host_write_sram(64, b"posted!!")  # 2 words
        got["t_write"] = env.now
        data = yield nic.host_read_sram(64, 8)
        got["t_read"] = env.now
        got["data"] = bytes(data)

    env.process(proc())
    env.run()
    assert got["data"] == b"posted!!"
    assert got["t_write"] == 2 * 121
    assert got["t_read"] - got["t_write"] == 2 * 422


def test_interrupt_requires_driver():
    env, _, (nic, _), _ = make_nic_pair()
    with pytest.raises(RuntimeError):
        nic.raise_interrupt("tlb_miss")


def test_interrupt_dispatch_to_handler():
    env, _, (nic, _), _ = make_nic_pair()
    seen = []

    def handler(reason, payload):
        seen.append((reason, payload, env.now))
        return "serviced"           # a plain result, not an event

    nic.set_interrupt_handler(handler)

    def proc():
        seen.append((yield nic.raise_interrupt("tlb_miss", {"vpage": 3})))

    env.process(proc())
    env.run()
    assert seen == [("tlb_miss", {"vpage": 3}, 0), "serviced"]
    assert nic.interrupts_raised == 1
