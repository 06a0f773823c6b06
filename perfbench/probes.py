"""Isolated host-time probes: one layer's public API, timed alone.

Each probe returns one number; :func:`run_probes` takes the best of a
few repeats (the least disturbed one).  Probes exist for layers whose
work happens inside generators and so cannot be wall-timed by a span
around the workload — and for the costs ROADMAP item 2 names.  The two
``hw.bus.dma_mbps_*`` entries are simulated values (Figure 1), listed
here because they too come from calling one layer directly.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench.microbench import VmmcPair, vmmc_pingpong_latency
from repro.bench.simcore import SIMCORE_WORKLOADS
from repro.cluster import TestbedConfig
from repro.dsm import wire
from repro.hw.bus.pci import PCIParams
from repro.hw.myrinet import topology
from repro.hw.myrinet.crc import crc8
from repro.kv.hashing import HashRing
from repro.kv.store import (decode_get_reply, decode_put_reply,
                            encode_put_args)
from repro.mem import AddressSpace, PhysicalMemory
from repro.obs.metrics import MetricsRegistry, count, observe
from repro.rpc import XdrDecoder, XdrEncoder
from repro.sim import Environment

MB = 1024 * 1024


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _simcore(shape: str, events: int) -> float:
    env = Environment()
    seconds = _timed(lambda: SIMCORE_WORKLOADS[shape](env, events, 0))
    return seconds * 1e9 / env.events_processed


def _physical_init(scale: float) -> float:
    return _timed(lambda: PhysicalMemory(max(1, int(64 * scale)) * MB,
                                         reserved_frames=64)) * 1e3


def _alloc_frame(scale: float) -> float:
    memory = PhysicalMemory(64 * MB, reserved_frames=64)
    n = max(10, int(2000 * scale))
    return _timed(lambda: [memory.alloc_frame() for _ in range(n)]) * 1e9 / n


def _buffer_space(nbytes: int) -> tuple[AddressSpace, int]:
    space = AddressSpace(PhysicalMemory(16 * MB, reserved_frames=64))
    return space, space.mmap(nbytes)


def _translate(scale: float) -> float:
    space, vaddr = _buffer_space(256 * 1024)
    addresses = [vaddr + (i * 4099) % (256 * 1024)
                 for i in range(max(10, int(20000 * scale)))]

    def run():
        for address in addresses:
            space.translate(address)

    return _timed(run) * 1e9 / len(addresses)


def _extents(scale: float) -> float:
    space, vaddr = _buffer_space(256 * 1024)
    n = max(2, int(200 * scale))

    def run():
        for _ in range(n):
            space.physical_extents(vaddr, 256 * 1024)

    return _timed(run) * 1e9 / (n * 64)


def _read_write(scale: float) -> float:
    space, vaddr = _buffer_space(256 * 1024)
    payload = np.arange(256 * 1024, dtype=np.uint32).astype(np.uint8)
    n = max(2, int(100 * scale))

    def run():
        for _ in range(n):
            space.write(vaddr, payload)
            space.read(vaddr, 256 * 1024)

    return _timed(run) * 1e9 / (n * 2 * 256)


def _crc8(scale: float) -> float:
    payload = np.arange(4096, dtype=np.uint32).astype(np.uint8)
    n = max(2, int(2000 * scale))
    crc8(payload)                       # builds the power table once

    def run():
        for _ in range(n):
            crc8(payload)

    return _timed(run) * 1e9 / (n * 4)


def _fabric(scale: float) -> str:
    return "fattree:8,h=2" if scale >= 1 else "fattree:4,h=2"


def _topology_build(scale: float) -> float:
    return _timed(lambda: topology.build(_fabric(scale),
                                         Environment())) * 1e3


def _deadlock_check(scale: float) -> float:
    net = topology.build(_fabric(scale), Environment())
    return _timed(lambda: topology.check_deadlock_free(net)) * 1e3


def _pingpong(scale: float) -> float:
    pair = VmmcPair(TestbedConfig(nnodes=2, memory_mb=16),
                    buffer_bytes=4096)
    n = max(5, int(2000 * scale))
    return _timed(lambda: vmmc_pingpong_latency(pair, 4, n)) * 1e6 / n


def _xdr(scale: float) -> float:
    value = bytes(range(64))
    n = max(10, int(20000 * scale))

    def run():
        for key in range(n):
            dec = XdrDecoder(encode_put_args(key, value))
            dec.unpack_uhyper()
            dec.unpack_opaque()
            decode_put_reply(XdrDecoder(
                XdrEncoder().pack_uhyper(key).getvalue()))
            decode_get_reply(XdrDecoder(
                XdrEncoder().pack_bool(True).pack_opaque(value)
                .pack_uhyper(key).getvalue()))

    return _timed(run) * 1e9 / n


def _dsm_wire(scale: float) -> float:
    page = bytes(256)
    n = max(10, int(20000 * scale))

    def run():
        for i in range(n):
            wire.decode(wire.encode(wire.OP_PAGE, i, 1, (i, 7), page))

    return _timed(run) * 1e9 / n


def _route(scale: float) -> float:
    ring = HashRing([f"node{i}" for i in range(1, 5)])
    n = max(10, int(20000 * scale))

    def run():
        for key in range(n):
            ring.route(key % 512)

    return _timed(run) * 1e9 / n


def _obs(record, scale: float) -> float:
    env = Environment()
    MetricsRegistry().install(env)
    n = max(10, int(100_000 * scale))

    def run():
        for i in range(n):
            record(env, "probe.series", i, node="node0")

    return _timed(run) * 1e9 / n


#: name -> (probe taking a size scale, repeats)
PROBES = {
    "sim.chain_ns_per_event":
        (lambda s: _simcore("chain", max(100, int(100_000 * s))), 5),
    "sim.storm_ns_per_event":
        (lambda s: _simcore("storm", max(100, int(100_000 * s))), 5),
    "mem.physical_init_ms_per_node": (_physical_init, 5),
    "mem.alloc_frame_ns": (_alloc_frame, 5),
    "mem.translate_ns": (_translate, 5),
    "mem.extents_ns_per_page": (_extents, 5),
    "mem.rw_ns_per_kb": (_read_write, 5),
    "hw.myrinet.crc8_ns_per_kb": (_crc8, 5),
    "hw.myrinet.topology_build_ms": (_topology_build, 5),
    "hw.myrinet.deadlock_check_ms": (_deadlock_check, 5),
    # 2 000 round trips take seconds; three repeats are enough.
    "vmmc.pingpong_host_us_per_rtt": (_pingpong, 3),
    "rpc.xdr_roundtrip_ns": (_xdr, 5),
    "dsm.wire_roundtrip_ns": (_dsm_wire, 5),
    "kv.route_ns_per_key": (_route, 5),
    "obs.count_ns_per_call": (lambda s: _obs(count, s), 5),
    "obs.observe_ns_per_call": (lambda s: _obs(observe, s), 5),
}


def run_probes(scale: float = 1.0) -> dict[str, float]:
    """Every probe at ``scale`` times its full size (tests use 0.001)."""
    out = {name: min(probe(scale) for _ in range(repeats))
           for name, (probe, repeats) in PROBES.items()}
    pci = PCIParams()
    out["hw.bus.dma_mbps_4k"] = pci.dma_bandwidth_mbps(4096)
    out["hw.bus.dma_mbps_64k"] = pci.dma_bandwidth_mbps(65536)
    return out
