#!/usr/bin/env python
"""Parallel global reduction (allreduce) over VMMC on 4 nodes.

The paper's motivation is building "a high-performance server out of a
network of commodity computer systems"; the canonical communication
pattern of such a machine is a global reduction.  This example builds a
small message-passing layer on the public VMMC API — every rank exports a
mailbox, imports every peer's mailbox, and data moves receiver-side
zero-copy — then runs a binomial-tree allreduce on real vectors and checks
the result against numpy.

Run:  python examples/parallel_reduction.py
"""

import numpy as np

from repro import Cluster, TestbedConfig

VECTOR_WORDS = 4096          # 16 KB per rank
SLOT = 32 * 1024             # mailbox slot per peer


class Rank:
    """One participant: endpoint + mailboxes + vector."""

    def __init__(self, cluster, index, nranks):
        self.index = index
        self.nranks = nranks
        self.node = cluster.nodes[index]
        _, self.ep = self.node.attach_process(f"rank{index}")
        # One inbound slot per peer, plus a flag word per peer.
        self.mailbox = self.ep.alloc_buffer(nranks * SLOT)
        self.vector = np.arange(VECTOR_WORDS, dtype=np.uint32) * (index + 1)
        self.out = self.ep.alloc_buffer(SLOT)
        self.peers = {}

    def setup(self):
        yield self.ep.export(self.mailbox, f"mbox{self.index}")

    def connect(self):
        for peer in range(self.nranks):
            if peer != self.index:
                self.peers[peer] = yield self.ep.import_buffer(
                    f"node{peer}", f"mbox{peer}")

    def send_vector(self, dst_rank, vec, seq):
        """Send the vector + a sequence stamp into our slot at dst."""
        payload = vec.tobytes() + np.uint32(seq).tobytes()
        self.out.write(payload)
        return self.ep.send(self.out, self.peers[dst_rank],
                            len(payload),
                            dest_offset=self.index * SLOT)

    def recv_vector(self, src_rank, seq):
        """Spin until src_rank's stamped vector arrives; returns it."""
        base = src_rank * SLOT
        stamp_off = base + VECTOR_WORDS * 4

        def arrived():
            return int(np.frombuffer(self.mailbox.read(stamp_off, 4).tobytes(),
                                     dtype=np.uint32)[0]) == seq

        def take(done):
            raw = self.mailbox.read(base, VECTOR_WORDS * 4)
            done.succeed(np.frombuffer(raw.tobytes(), dtype=np.uint32).copy())

        return self.ep.spin(self.mailbox, stamp_off, 4, arrived, take)


def allreduce(rank: Rank, seq_base: int):
    """Binomial-tree reduce to rank 0, then broadcast back down."""
    value = rank.vector.copy()
    n = rank.nranks
    # Reduce toward rank 0: at each doubling step, odd-positioned ranks
    # send their partial sum one step down and drop out.
    step = 1
    active = True
    while step < n:
        if active and rank.index % (2 * step) == step:
            yield rank.send_vector(rank.index - step, value, seq_base + step)
            active = False
        elif active and rank.index % (2 * step) == 0 \
                and rank.index + step < n:
            incoming = yield rank.recv_vector(rank.index + step,
                                              seq_base + step)
            value = value + incoming
        step *= 2
    # Broadcast the total back down the same tree.
    step = n // 2
    while step >= 1:
        if rank.index % (2 * step) == step:
            value = yield rank.recv_vector(rank.index - step,
                                           seq_base + 100 + step)
        elif rank.index % (2 * step) == 0 and rank.index + step < n:
            yield rank.send_vector(rank.index + step, value,
                                   seq_base + 100 + step)
        step //= 2
    return value


def main() -> None:
    nranks = 4
    cluster = Cluster.build(TestbedConfig(nnodes=nranks, memory_mb=16))
    env = cluster.env
    ranks = [Rank(cluster, i, nranks) for i in range(nranks)]

    def wire():
        for rank in ranks:
            yield env.process(rank.setup())
        for rank in ranks:
            yield env.process(rank.connect())

    env.run(until=env.process(wire()))
    print(f"{nranks} ranks wired "
          f"({sum(n.daemon.imports_served for n in cluster.nodes)} imports)")

    results = {}
    t0 = env.now

    def participant(rank):
        value = yield env.process(allreduce(rank, seq_base=1))
        results[rank.index] = value

    procs = [env.process(participant(r)) for r in ranks]
    for proc in procs:
        env.run(until=proc)
    elapsed_us = (env.now - t0) / 1000

    expected = sum((np.arange(VECTOR_WORDS, dtype=np.uint32) * (i + 1)
                    for i in range(nranks)))
    for index, value in sorted(results.items()):
        assert np.array_equal(value, expected), f"rank {index} wrong!"
    print(f"allreduce of {VECTOR_WORDS}-word vectors across {nranks} ranks: "
          f"{elapsed_us:.1f} us simulated")
    print(f"all ranks agree with numpy reference: True")
    per_node = [(n.lcp.long_sends, n.lcp.packets_delivered)
                for n in cluster.nodes]
    print("per-node (long sends, packets delivered):", per_node)


if __name__ == "__main__":
    main()
