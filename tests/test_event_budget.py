"""Exact event budgets of the data path.

The simulator is deterministic, so what one operation costs in
``Environment.events_processed`` is a number, not a distribution.  Each
budget here is an equality: a ``Process`` spawned per transaction, or a
grant event for an idle resource, creeping back into the data path fails
a named test with the new count.  (Lowering a budget on purpose: update
the number and say so in CHANGES.md.  Simulated *times* are pinned
elsewhere — the campaign cells' fingerprints and the ``paper_*``
gates.)

The CRC is the other per-packet cost that is a number: the link hardware
seals a packet once and checks it once, so ``seal``/``crc_ok`` calls are
budgeted against the packets that reached a NIC.

The host pays per Python call as well as per event, so the calls a
4 KB packet makes in ``src/repro`` have budgets too, and so do those of
a KV GET, of a request in an overloaded KV trial, of a DSM read and
write fault, of a spun-on 4 KB message and of a null vRPC call.  They
are upper bounds, not equalities, because the count depends a little on
the CPython version.

What no longer costs an event: a grant of a free resource, a store
hand-off that completes at once, and the completion of a process nobody
waits on — each is settled in place (DESIGN.md §9).  A bus transaction
or a DMA-engine transfer costs its hold's end and nothing else: it is a
plain call on a callback-driven server, not a process.
"""

import itertools
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.bench.microbench import (
    VmmcPair,
    _stamp,
    spin_until_stamp,
    vmmc_oneway_bandwidth,
    vmmc_pingpong_latency,
)
from repro.cluster import Cluster, TestbedConfig
from repro.dsm import build_dsm_world
from repro.hw.bus.membus import MemoryBus
from repro.hw.myrinet import MyrinetPacket, topology
from repro.hw.myrinet.packet import ProbeHeader
from repro.kv import KVStore
from repro.kv.bench import run_kv_trial
from repro.mem import PhysicalMemory
from repro.kv.store import PROC_GET, PROC_PUT, encode_get_args, encode_put_args
from repro.obs.metrics import MetricsRegistry
from repro.rpc import RPCProgram, VRPCClient, VRPCServer
from repro.rpc.reliable import connect_reliable_rpc
from repro.vmmc import mapping_lcp, reliable
from repro.vmmc.reliable import open_channel
from repro.sim import Environment, Process, Timeout
from repro.sim.resources import Request
from repro.sim.trace import Tracer


def events_of(env, work) -> int:
    """Events ``work()`` costs, including everything it leaves in
    flight; the queue is drained before and after."""
    env.run()
    before = env.events_processed
    work()
    env.run()
    return env.events_processed - before


@pytest.fixture
def pair():
    return VmmcPair(TestbedConfig(nnodes=2, memory_mb=32),
                    buffer_bytes=16 * 1024)


def test_one_4_byte_pingpong_round_trip(pair):
    one = events_of(pair.env, lambda: vmmc_pingpong_latency(pair, 4, 1))
    two = events_of(pair.env, lambda: vmmc_pingpong_latency(pair, 4, 2))
    # 60 and 61 while the net send, the completion writeback and the
    # receive delivery were each a process: three start events per
    # one-way message.  54 and 55 while ``VMMCEndpoint.send`` was a
    # process: its start event, once per one-way message.
    assert (one, two - one) == (52, 53)


def test_one_4kb_long_send_chunk_end_to_end(pair):
    def send(nbytes):
        return events_of(pair.env, lambda: pair.env.run(
            until=pair.ep_a.send(pair.src_a, pair.to_b, nbytes)))

    # One page: post, pickup, translate, host DMA overlapped with header
    # preparation, net DMA, two cables and a switch, receive-side checks,
    # the delivery DMA and the completion word.  A second page repeats
    # everything from the translate to the delivery DMA.  (27 and 16
    # while the net send, the delivery and the completion writeback were
    # processes; 24 while the library call was one.)
    assert send(4096) == 23
    assert send(8192) == 23 + 14


def test_a_4kb_long_send_makes_no_request_and_no_nic_process(
        monkeypatch, pair):
    pair.env.run()
    constructed = []
    for cls in (Process, Request):
        def counted_init(self, *args, _cls=cls, _real=cls.__init__,
                         **kwargs):
            _real(self, *args, **kwargs)
            constructed.append(getattr(self, "name", _cls.__name__))
        monkeypatch.setattr(cls, "__init__", counted_init)
    pair.env.run(until=pair.ep_a.send(pair.src_a, pair.to_b, 4096))
    pair.env.run()
    # No process at all: the library call returns an event, and the
    # buses, the host-DMA and net-send engines and the LCP's writebacks
    # are plain calls.  (The library call used to be a process.)
    assert constructed == []


def test_one_64kb_one_way_message():
    pair = VmmcPair(TestbedConfig(nnodes=2, memory_mb=32),
                    buffer_bytes=64 * 1024)
    before = pair.cluster.nodes[1].nic.net_recv.packets_received
    cost = events_of(pair.env, lambda: pair.env.run(
        until=pair.ep_a.send(pair.src_a, pair.to_b, 64 * 1024)))
    assert pair.cluster.nodes[1].nic.net_recv.packets_received - before == 16
    # Sixteen 4 KB packets: 23 for the first (post, pickup, completion
    # word included; 24 while the library call was a process) and 14
    # for each further one, 14.5 per packet.  Per
    # further packet the sender's LCP pays the TLB probe, the proxy
    # lookup, the host DMA's bus time and the rest of the header
    # preparation (zero: the DMA covers it, but the wait is still an
    # event, which keeps the LCP behind a packet landing in the same
    # nanosecond); the net send its wire time; two cable latencies and
    # the switch's crossbar and tail timers; the receiving LCP's
    # doorbell, main-loop pass, parse + check and DMA start; and the
    # delivery DMA's bus time.  (27 + 15 * 16 while the net send and the
    # delivery were processes, each with a start event.)
    assert cost == 23 + 15 * 14


def test_one_switch_hop_of_a_probe_on_fattree_4(monkeypatch):
    env = Environment()
    net = topology.build("fattree:4", env)
    arrived = []
    for name in net.host_names:
        net.attach_host_sink(name, arrived.append)
    constructed = Counter()
    for cls in (Process, Request):
        def counted_init(self, *args, _cls=cls, _real=cls.__init__,
                         **kwargs):
            constructed[_cls] += 1
            _real(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted_init)

    def probe(dst):
        route = net.compute_route("node0", dst)
        packet = MyrinetPacket(list(route), ProbeHeader(
            "map_probe", 0, net.host_names.index(dst)), b"")
        def inject():
            yield net.inject("node0", packet)

        cost = events_of(env, lambda: env.run(until=env.process(inject())))
        assert arrived.pop() is packet and packet.route_exhausted
        return len(route), cost

    same_edge, same_pod, cross_pod = (probe(d) for d in
                                      ("node1", "node2", "node15"))
    assert [hops for hops, _ in (same_edge, same_pod, cross_pod)] == [1, 3, 5]
    # The injecting process (start, wire time) and the first cable cost
    # 3; every switch crossed adds its crossbar timer, its tail timer and
    # the next cable's latency — no process, no resource request.  The
    # injecting process's end is not an event: nobody waits on it.
    assert same_edge[1] == 3 + 3
    assert same_pod[1] == 3 + 3 * 3
    assert cross_pod[1] == 3 + 5 * 3
    assert constructed == {Process: 3}      # the three injections only


def test_a_fattree_boot_costs_its_events_one_proof_and_no_probe_process(
        monkeypatch):
    proofs, processes = [], []
    real_check, real_init = topology.check_deadlock_free, Process.__init__

    def counted_check(*args, **kwargs):
        proofs.append(args)
        return real_check(*args, **kwargs)

    def counted_init(self, *args, **kwargs):
        processes.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(topology, "check_deadlock_free", counted_check)
    monkeypatch.setattr(mapping_lcp, "check_deadlock_free", counted_check)
    monkeypatch.setattr(Process, "__init__", counted_init)
    built = []
    calls = repro_calls(lambda: built.append(
        Cluster.build(topology="fattree:4,h=2")))
    cluster, = built
    assert cluster.mapping.probes_sent == 240
    # Events and boot time are what they were while the fabric was proven
    # twice and every probe was a process.
    assert (cluster.env.events_processed, cluster.env.now) == (4196, 57240)
    # The mapping phase's proof is the one of the boot (``topology.build``
    # made a second).
    assert len(proofs) == 1
    # 273 while each of the 240 mapping probes was a process: what is
    # left is the mapping phase itself and each node's LCP and daemon.
    assert len(processes) == 33
    # 18 990 on CPython 3.11; 22 298 with the second proof, the probe
    # processes and a random generator built per link.
    assert calls <= 19_800


def warm_kv_client(registry: bool = False):
    """A reliable-RPC KV connection on two nodes, after one PUT and one
    GET; returns ``(env, client, store)``.  With ``registry``, one is
    installed once the cluster is built."""
    cluster = Cluster.build(TestbedConfig(nnodes=2, memory_mb=32))
    env = cluster.env
    if registry:
        MetricsRegistry().install(env)
    _, cli_ep = cluster.nodes[0].attach_process("cli")
    _, srv_ep = cluster.nodes[1].attach_process("srv")
    store = KVStore("shard0")
    client, _server = env.run(until=connect_reliable_rpc(
        cli_ep, srv_ep, "kv", store.program()))
    env.run(until=client.call(PROC_PUT, encode_put_args(7, b"v" * 64)))
    env.run(until=client.call(PROC_GET, encode_get_args(7)))
    env.run()
    return env, client, store


def test_one_clean_kv_get():
    env, client, store = warm_kv_client()
    cost = events_of(env, lambda: env.run(
        until=client.call(PROC_GET, encode_get_args(7))))
    assert store.gets == 2
    # 179 while each retransmit deadline was a proxy event, a flush event
    # and a one-member deadline batch; a plain Timeout saved 3 events per
    # ACK wait, two waits per call (173).  Settling store hand-offs and
    # unwatched process ends in place, and fusing LCP charges nothing
    # observes apart, took 38 more (135).  A switch hop of three timers
    # took one per packet, four packets (131).  Engine transfers as plain
    # calls took the net send's, the delivery's and the completion
    # writeback's process starts (119).  The library's four sends as
    # calls took their process starts, and one standing watcher per
    # ring and per ACK word the four one-shot watches (two on rings, two
    # on ACK words) that fired after their wait had ended (111).  An ACK
    # write wakes the sends armed before it through one hop, not a wake
    # event and a condition event per send: one event per ACK wait, two
    # waits per call (109).
    assert cost == 109


def test_a_clean_kv_get_makes_no_message_process_and_arms_no_watch(
        monkeypatch):
    cluster = Cluster.build(TestbedConfig(nnodes=2, memory_mb=32))
    env = cluster.env
    _, cli_ep = cluster.nodes[0].attach_process("cli")
    _, srv_ep = cluster.nodes[1].attach_process("srv")
    client, _server = env.run(until=connect_reliable_rpc(
        cli_ep, srv_ep, "kv", KVStore("shard0").program()))
    env.run(until=client.call(PROC_PUT, encode_put_args(7, b"v" * 64)))
    constructed, watches = [], []
    real_init, real_watch = Process.__init__, PhysicalMemory.watch_writes

    def counted_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        constructed.append(self.name)

    def counted_watch(self, *args):
        watches.append(args)
        return real_watch(self, *args)

    monkeypatch.setattr(Process, "__init__", counted_init)
    monkeypatch.setattr(PhysicalMemory, "watch_writes", counted_watch)
    dec = env.run(until=client.call(PROC_GET, encode_get_args(7)))
    env.run()
    assert dec is not None
    # Once the connection is open, the call, both channel sends, both
    # receives and the four VMMC sends under them are calls returning
    # events, and each ring and ACK word has its one standing watcher,
    # registered when the connection opened: a request registers none.
    # Only the two serve/demux loops, parked in their next ``recv``, are
    # processes — and they were made when the connection opened.  (A
    # GET spawned ten processes — ``rrpc.call``, ``rrpc.reply``, two
    # ``rel.send``, two ``rel.recv`` and four ``vmmc.send`` — and made 40
    # one-shot watch registrations, re-arming every ring page at every
    # look.)
    assert constructed == []
    assert watches == []


def test_a_clean_reliable_send_arms_one_timeout_per_ack_wait(monkeypatch):
    cluster = Cluster.build(TestbedConfig(nnodes=2, memory_mb=32))
    env = cluster.env
    _, ep_tx = cluster.nodes[0].attach_process("tx")
    _, ep_rx = cluster.nodes[1].attach_process("rx")
    tx, rx = env.run(until=open_channel(ep_tx, ep_rx, "budget"))

    def receiver():
        for _ in range(2):
            yield rx.recv()

    env.process(receiver())
    env.run(until=tx.send(b"w" * 1024))                         # warm
    timeouts, deadlines = [0], []
    real_init = Timeout.__init__
    real_check = reliable._Message.check

    def counted_init(self, *args, **kwargs):
        timeouts[0] += 1
        real_init(self, *args, **kwargs)

    def watched_check(message, *args):
        had = message.timer
        real_check(message, *args)
        if message.timer is not had:
            deadlines.append(type(message.timer))

    monkeypatch.setattr(Timeout, "__init__", counted_init)
    monkeypatch.setattr(reliable._Message, "check", watched_check)
    cost = events_of(env, lambda: env.run(until=tx.send(b"x" * 1024)))
    assert tx.stats.retransmits == 0
    # One ACK wait, its deadline a plain Timeout.  With the deadline
    # batched the send cost 89 events: the proxy, the flush and the
    # batch's own completion on top of the Timeout.  With every LCP charge
    # its own Timeout it constructed 44 and cost 86.  Each of the seven
    # bus holds (post, fetch, delivery and completion word of the data;
    # post, delivery and completion word of the ACK) is a Timeout too.
    # While engine transfers were processes the send cost 63 events,
    # and 57 while the library's two sends (data, ACK) were processes and
    # the ring and the ACK word were re-watched at every look, leaving
    # one watch each to fire after the wait was over.  It cost 53 events
    # and 40 Timeouts while the ACK write's wake was an event per send
    # and the deadline raced it in an ``AnyOf``: the write's one hop, a
    # zero-delay Timeout like the hop that starts the send, replaces the
    # wake and the condition event.
    assert deadlines == [Timeout]
    assert (timeouts[0], cost) == (42, 52)


def test_one_ack_write_wakes_the_parked_sends_once(monkeypatch):
    cluster = Cluster.build(TestbedConfig(nnodes=2, memory_mb=32))
    env = cluster.env
    _, ep_tx = cluster.nodes[0].attach_process("tx")
    _, ep_rx = cluster.nodes[1].attach_process("rx")
    # A 1 ms RTO floor: no deadline falls due while the sends land.
    tx, rx = env.run(until=open_channel(ep_tx, ep_rx, "herd",
                                        timeout_ns=1_000_000))

    def receiver(count):
        for _ in range(count):
            yield rx.recv()

    env.process(receiver(8))
    for _ in range(8):                       # clean ACKs grow the window
        env.run(until=tx.send(b"w" * 64))
    assert tx.cwnd == 8
    sends = [tx.send(b"x" * 64) for _ in range(8)]       # nobody receives
    env.run(until=env.now + 200_000)
    assert tx.inflight == 8 and len(tx._armed) == 8
    assert all(m.parked and m.timer is not None for m in tx._armed)
    timers = {m.seq: m.timer for m in tx._armed}

    fills, timeouts = [0], [0]
    real_fill, real_init = MemoryBus.cacheline_fill, Timeout.__init__

    def counted_fill(membus):
        fills[0] += 1
        return real_fill(membus)

    def counted_init(self, *args, **kwargs):
        timeouts[0] += 1
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(MemoryBus, "cacheline_fill", counted_fill)
    monkeypatch.setattr(Timeout, "__init__", counted_init)
    # The receiver's ACK DMA, as a device write of the cumulative ACK
    # word: it acknowledges the first four of the eight.
    first = min(timers)
    [(paddr, _)] = tx.ack_buf.space.physical_extents(tx.ack_buf.vaddr, 4)
    memory = tx.ack_buf.space.memory
    memory.data[paddr:paddr + 4] = np.frombuffer(
        (first + 3).to_bytes(4, "little"), dtype=np.uint8)
    before = env.events_processed
    memory.notify_write(paddr, 4)
    env.run(until=env.now + 1_000)
    # One hop for the write and one cache-line fill for the batch; each
    # send still waiting keeps the deadline timer it parked with.  (With
    # a wake per send: eight wake events, eight condition events, eight
    # fills and four fresh deadline timers.)
    assert (fills[0], timeouts[0], env.events_processed - before) == (
        1, 2, 2)
    assert [s.processed for s in sends] == [True] * 4 + [False] * 4
    assert [m.seq for m in tx._armed] == [first + i for i in range(4, 8)]
    assert all(m.parked and m.timer is timers[m.seq] for m in tx._armed)


# ------------------------------------------------------------ Python calls
#: Where the simulator's own code lives: a call counts when it enters it.
_REPRO = str(Path(repro.__file__).parent)


#: Calls an installed registry may add to one DSM read fault, one write
#: fault and one clean KV GET: the ``Gauge.set`` of each queue-depth and
#: congestion gauge the objects own, and nothing else.
READ_FAULT_REGISTRY_CALLS = 42
WRITE_FAULT_REGISTRY_CALLS = 26
KV_GET_REGISTRY_CALLS = 28


def repro_calls(work) -> int:
    """Python calls into ``src/repro`` that ``work()`` makes: the
    ``"call"`` events of ``sys.setprofile`` whose code lives there,
    generator resumes included (C functions, numpy's among them, are
    ``"c_call"`` events and do not count)."""
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(_REPRO):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        work()
    finally:
        sys.setprofile(previous)
    return calls


def calls_per_packet(size: int, messages: int) -> float:
    """Repro-level calls per 4 KB packet of a warm ``size``-byte one-way
    stream (Figure 3's sender and its spinning receiver)."""
    pair = VmmcPair(TestbedConfig(nnodes=2, memory_mb=32),
                    buffer_bytes=max(size, 64 * 1024))
    vmmc_oneway_bandwidth(pair, size, 2)
    pair.env.run()
    calls = repro_calls(lambda: vmmc_oneway_bandwidth(pair, size, messages))
    return calls / (messages * size // 4096)


def test_a_4kb_chunk_of_a_64kb_message_costs_few_python_calls():
    # Every firmware step, bus hold and memory access costs about one
    # call per timer it schedules, and no metric handle is called
    # without a registry: 107.8 per chunk on CPython 3.11 (184.7 while a
    # cycle charge went through cycles and charge, TLB hits, proxy
    # resolves and incoming-table checks through helper chains, and
    # every site called its handles).
    assert calls_per_packet(64 * 1024, 8) <= 115


def test_a_4kb_message_costs_few_python_calls():
    # 216.8 per message on CPython 3.11 (336.2 before, as above, and
    # with the sequence stamp built and read through numpy).
    assert calls_per_packet(4096, 32) <= 240


def spinning_receiver():
    """A warm two-node pair and ``messages(n)``, which sends ``n`` 4 KB
    messages from one process, each spun on by the receiver until its
    stamp lands before the next is sent (``fig3-stream``'s size mix)."""
    pair = VmmcPair(TestbedConfig(nnodes=2, memory_mb=32),
                    buffer_bytes=16 * 1024)
    env, stamps = pair.env, itertools.count(1)

    def stream(count):
        for seq in itertools.islice(stamps, count):
            _stamp(pair.src_a, 4096, seq)
            yield pair.ep_a.send(pair.src_a, pair.to_b, 4096)
            yield spin_until_stamp(pair.ep_b, pair.inbox_b, 4096, seq)

    def messages(count):
        env.run(until=env.process(stream(count), name="stream"))
        env.run()

    messages(2)
    return env, messages


def warm_vrpc_client():
    """A vRPC connection on two nodes after one null call; returns
    ``(env, client)``."""
    cluster = Cluster.build(TestbedConfig(nnodes=2, memory_mb=32))
    env = cluster.env
    _, client_ep = cluster.nodes[0].attach_process("client")
    _, server_ep = cluster.nodes[1].attach_process("server")
    program = RPCProgram(0x20000001, 1)
    program.register(0, lambda dec: b"")
    server = VRPCServer(server_ep, "node1", program)
    channel = env.run(until=server.accept(client_ep, "node0", "cli"))
    client = VRPCClient(channel, 0x20000001, 1)
    env.run(until=client.call(0))
    env.run()
    return env, client


@pytest.fixture
def made(monkeypatch):
    """Names of the ``Process``es constructed while the test runs."""
    names = []
    real_init = Process.__init__

    def counted_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        names.append(self.name)

    monkeypatch.setattr(Process, "__init__", counted_init)
    return names


def test_a_spun_on_4kb_message_costs_its_events_and_no_process(made):
    env, messages = spinning_receiver()
    made.clear()
    one = events_of(env, lambda: messages(1))
    two = events_of(env, lambda: messages(2))
    # The spin is a callback chain from one event at ``now``, where the
    # ``bench.spin`` process's start event ran, so the events are the
    # process's.  One of the 30 is the last look's arm, which fires at
    # the next message's write with nobody waiting on it.
    assert two - one == 30
    # The stream processes the test made; the spins made none (one
    # ``bench.spin`` per message while the spin was a process).
    assert made == ["stream", "stream"]


def test_a_spun_on_4kb_message_costs_few_python_calls():
    env, messages = spinning_receiver()
    calls = repro_calls(lambda: messages(16)) / 16
    # 219.6 on CPython 3.11.  230.6 while the spin was a ``bench.spin``
    # process and each look armed a one-shot watch that rebuilt its
    # frame's bucket (two looks per message).
    assert calls <= 225


def test_a_vrpc_null_call_costs_its_events_and_no_spin_process(made):
    env, client = warm_vrpc_client()
    made.clear()
    cost = events_of(env, lambda: env.run(until=client.call(0)))
    processes = sorted(made)
    calls = repro_calls(lambda: (env.run(until=client.call(0)), env.run()))
    assert cost == 101
    # The call and the two deposits (request and reply) are processes;
    # each side's wait for the other's record is a spin chain.  (Two
    # ``vrpc.await`` processes more while those were processes.)
    assert processes == ["vrpc.call", "vrpc.deposit", "vrpc.deposit"]
    # 746 on CPython 3.11; 764 with the two ``vrpc.await`` processes.
    assert calls <= 760


def kv_request_costs(requests: int, base_gap_ns: int,
                     seed: int = 1) -> tuple[float, float]:
    """Events and repro-level calls per request of one clean
    ``run_kv_trial`` at ``base_gap_ns`` (the ``kv-serve`` shape), cluster
    boot included."""
    envs = []
    real_init = Environment.__init__

    def recorded_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        envs.append(self)

    Environment.__init__ = recorded_init
    try:
        calls = repro_calls(lambda: run_kv_trial(
            seed, shards=4, requests=requests, nkeys=512, skew=0.9,
            get_fraction=0.8, load="steady", scenario="clean",
            base_gap_ns=base_gap_ns))
    finally:
        Environment.__init__ = real_init
    events = sum(env.events_processed for env in envs)
    return events / requests, calls / requests


def test_a_clean_kv_get_costs_few_python_calls():
    env, client, store = warm_kv_client()

    def get():
        env.run(until=client.call(PROC_GET, encode_get_args(7)))
        env.run()

    calls = repro_calls(get)
    assert store.gets == 2
    # 734 on CPython 3.11.  976 while the XDR headers were decoded one
    # ``_take`` per field, a send resolved its destination through five
    # calls and probed its slot twice, the completion spin was a
    # ``then``/lambda chain, and the ACK wait was a wake event and an
    # ``AnyOf`` per send.
    assert calls <= 800


def test_an_overloaded_kv_trial_costs_few_events_and_calls_per_request():
    events, calls = kv_request_costs(200, 10_000)
    # 120.0 events and 1 120.3 calls per request on CPython 3.11, boot
    # included.  161.6 and 1 666 while every ACK write woke every send in
    # flight on the channel (a wake event, a condition event, a
    # cache-line fill and a fresh deadline timer each) and every kick
    # re-parked every send queued behind the window on a fresh event.
    assert events <= 125
    assert calls <= 1_400


def dsm_faults(measure, registry: bool = False):
    """``measure(run)`` of one DSM read fault and one write fault on a
    warm 2-node world, ``run`` doing the op and draining the queue;
    with ``registry``, one is installed once the cluster is built."""
    cluster = Cluster.build(TestbedConfig(nnodes=2, memory_mb=32))
    env = cluster.env
    if registry:
        MetricsRegistry().install(env)
    node = build_dsm_world(cluster, npages=8, page_bytes=128)[0].node

    def op(generator):
        def run():
            env.run(until=env.process(generator))
            env.run()
        return run

    op(node.read_u32(3, 0))()                    # warm, on another page
    op(node.write_u32(3, 0, 1))()
    # Page 1 is homed at rank 1: a read fault fetches it, then a write
    # fault upgrades the copy (the home invalidates its own).
    read = measure(op(node.read_u32(1, 0)))
    write = measure(op(node.write_u32(1, 0, 5)))
    assert (node.read_faults, node.write_faults) == (2, 2)
    return read, write


def test_a_dsm_read_fault_and_write_fault_cost_few_python_calls():
    read, write = dsm_faults(repro_calls)
    # 1 176 and 782 on CPython 3.11 (1 486 and 986 with the frames
    # decoded one ``_take`` per field and the library and channel paths
    # as above; 1 174 and 779 before a bytes store became a call of
    # ``PhysicalMemory.write``).
    assert read <= 1_200
    assert write <= 800


def test_a_dsm_read_fault_and_write_fault_make_few_processes(monkeypatch):
    made = []
    real_init = Process.__init__

    def counted_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        made.append(self.name)

    monkeypatch.setattr(Process, "__init__", counted_init)

    def processes(run):
        made.clear()
        run()
        return sorted(made)

    read, write = dsm_faults(processes)
    # The op (made by the test), the home's handler of its request and,
    # for a write fault, the home's invalidation of its own copy.  Most
    # of a fault's ``Process`` resumes are not these: of the 67 of a
    # read fault, 56 are the two LCP main loops (made once, at boot).
    assert read == ["dsm.read_fault.1", "read_u32"]
    assert write == ["dsm.invalidate.1", "dsm.write_fault.1", "write_u32"]


def test_a_registry_costs_a_dsm_fault_and_a_kv_get_few_python_calls():
    """What an installed registry adds to an operation: the records
    only the registry wants (gauges, samples, counts the objects do not
    keep anyway), where only a gauge's ``set`` is a call.  42, 26 and 28
    on CPython 3.11 (1 218 against 1 176, 808 against 782, 764 against
    736); a registry added 394, 258 and 252 while every record was a
    call on a bound handle (1 568 against 1 174, 1 037 against 779, 986
    against 734)."""
    (read, write), (bare_read, bare_write) = (
        dsm_faults(repro_calls, registry) for registry in (True, False))

    def kv_get_calls(registry):
        env, client, _store = warm_kv_client(registry)

        def get():
            env.run(until=client.call(PROC_GET, encode_get_args(7)))
            env.run()
        return repro_calls(get)

    get, bare_get = kv_get_calls(True), kv_get_calls(False)
    assert read - bare_read <= READ_FAULT_REGISTRY_CALLS
    assert write - bare_write <= WRITE_FAULT_REGISTRY_CALLS
    assert get - bare_get <= KV_GET_REGISTRY_CALLS


# -------------------------------------------------------------------- CRC work
@pytest.fixture
def crc_calls(monkeypatch):
    """Running ``seal``/``crc_ok`` call counts; ``clear()`` restarts them."""
    calls = Counter()
    for name in ("seal", "crc_ok"):
        def counted(packet, _real=getattr(MyrinetPacket, name), _name=name):
            calls[_name] += 1
            return _real(packet)
        monkeypatch.setattr(MyrinetPacket, name, counted)
    return calls


def received(cluster) -> int:
    return sum(n.nic.net_recv.packets_received for n in cluster.nodes)


def test_a_4kb_chunk_is_sealed_once_and_checked_once(crc_calls, pair):
    pair.env.run()
    before = received(pair.cluster)
    crc_calls.clear()
    pair.env.run(until=pair.ep_a.send(pair.src_a, pair.to_b, 4096))
    pair.env.run()
    assert received(pair.cluster) - before == 1
    assert crc_calls == {"seal": 1, "crc_ok": 1}


def test_a_fattree_boot_seals_and_checks_each_probe_once(crc_calls):
    cluster = Cluster.build(TestbedConfig(memory_mb=8),
                            topology="fattree:4,h=2")
    probes = cluster.mapping.probes_sent
    assert probes == received(cluster) == 16 * 15
    assert crc_calls == {"seal": probes, "crc_ok": probes}


def test_crc_verdicts_are_the_corruptions_the_link_injected(crc_calls, pair):
    env = pair.env
    env.run()
    env.tracer = Tracer(keep=lambda category: category == "lanai.netrecv")
    registry = MetricsRegistry().install(env)
    link = pair.cluster.fabric.find_link("node0->sw0")
    link.set_error_rate(1.0)
    crc_calls.clear()
    env.run(until=pair.ep_a.send(pair.src_a, pair.to_b, 3 * 4096))
    env.run()
    assert link.errors_injected == 3
    assert [r.payload["ok"] for r in env.tracer.records] == [False] * 3
    assert registry.snapshot()["net.crc_errors{nic=node1}"] == 3
    assert pair.cluster.nodes[1].nic.net_recv.crc_errors == 3
    assert crc_calls == {"seal": 3, "crc_ok": 3}
