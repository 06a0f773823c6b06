#!/usr/bin/env python
"""Distributed 2-D heat diffusion with halo exchange over VMMC.

The classic SPMD workload the paper's class of machines was built for:
each node owns a horizontal strip of a grid, iterates a 5-point stencil,
and exchanges boundary rows ("halos") with its neighbours every step.
Communication uses :mod:`repro.mp` — the message-passing library built on
the public VMMC API — so every halo crosses the simulated Myrinet as real
bytes, on reliable VMMC channels that recover lost or corrupted packets
and daemon cold restarts.

The result is checked bit-for-bit against a single-node numpy reference
(the halos carry exact float64 bytes and each rank applies the same
arithmetic in the same order), and the run reports the
compute/communicate breakdown per iteration.

Run:  python examples/stencil_heat.py
"""

import numpy as np

from repro import Cluster, TestbedConfig
from repro.mp import barrier, build_world

WIDTH = 256          # grid columns
ROWS_PER_RANK = 64   # grid rows owned by each rank
STEPS = 5
ALPHA = 0.1

TAG_UP, TAG_DOWN = 1, 2


def reference(initial: np.ndarray, steps: int) -> np.ndarray:
    """Single-node ground truth."""
    grid = initial.copy()
    for _ in range(steps):
        padded = np.pad(grid, 1, mode="edge")
        grid = grid + ALPHA * (
            padded[:-2, 1:-1] + padded[2:, 1:-1]
            + padded[1:-1, :-2] + padded[1:-1, 2:] - 4 * grid)
    return grid


def rank_program(comm, strip: np.ndarray, results: dict):
    """One rank: halo exchange + stencil step, STEPS times."""
    env = comm.env
    up = comm.rank - 1 if comm.rank > 0 else None
    down = comm.rank + 1 if comm.rank < comm.size - 1 else None
    grid = strip.copy()
    comm_time = 0

    for step in range(STEPS):
        tag_shift = 10 * step
        t0 = env.now
        sends = []
        if up is not None:
            sends.append(comm.send_array(up, grid[0], tag=TAG_DOWN + tag_shift))
        if down is not None:
            sends.append(comm.send_array(down, grid[-1],
                                         tag=TAG_UP + tag_shift))
        halo_up = grid[0]       # edge condition: replicate own row
        halo_down = grid[-1]
        if up is not None:
            halo_up = yield comm.recv_array(up, grid.dtype,
                                            tag=TAG_UP + tag_shift)
        if down is not None:
            halo_down = yield comm.recv_array(down, grid.dtype,
                                              tag=TAG_DOWN + tag_shift)
        for send in sends:
            if not send.triggered:
                yield send
        comm_time += env.now - t0
        # Local 5-point stencil with the received halos.
        stacked = np.vstack([halo_up, grid, halo_down])
        padded = np.pad(stacked, ((0, 0), (1, 1)), mode="edge")
        interior = stacked[1:-1]
        grid = interior + ALPHA * (
            padded[:-2, 1:-1] + padded[2:, 1:-1]
            + padded[1:-1, :-2] + padded[1:-1, 2:] - 4 * interior)
        yield from barrier(comm, tag=1000 + step)
    results[comm.rank] = {"grid": grid, "comm_ns": comm_time}


def main() -> None:
    nranks = 4
    cluster = Cluster.build(TestbedConfig(nnodes=nranks, memory_mb=32))
    env = cluster.env
    comms = build_world(cluster, slot_bytes=8192)
    print(f"{nranks} ranks wired over the simulated Myrinet")

    rng = np.random.default_rng(42)
    full = rng.random((nranks * ROWS_PER_RANK, WIDTH))
    strips = np.split(full, nranks, axis=0)
    results: dict[int, dict] = {}

    t0 = env.now
    procs = [env.process(rank_program(comm, strips[i], results))
             for i, comm in enumerate(comms)]
    for proc in procs:
        env.run(until=proc)
    elapsed_ms = (env.now - t0) / 1e6

    computed = np.vstack([results[i]["grid"] for i in range(nranks)])
    expected = reference(full, STEPS)
    max_err = float(np.abs(computed - expected).max())
    print(f"{STEPS} stencil steps on a {full.shape[0]}x{WIDTH} grid: "
          f"{elapsed_ms:.2f} ms simulated")
    print(f"max deviation from single-node reference: {max_err:.2e}")
    assert np.array_equal(computed, expected), \
        "distributed result is not bit-for-bit the reference!"
    for rank in range(nranks):
        comm_ms = results[rank]["comm_ns"] / 1e6
        print(f"  rank {rank}: halo-exchange time {comm_ms:.2f} ms, "
              f"{comms[rank].messages_sent} msgs sent, "
              f"{comms[rank].fragments_sent} fragments")
    print("distributed == reference: True")


if __name__ == "__main__":
    main()
