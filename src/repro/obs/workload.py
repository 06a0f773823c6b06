"""The instrumented end-to-end *contract workload*.

One deterministic run that drives every subsystem the trace-category
contract documents as ``e2e``: cluster boot (mapping phase, daemon
matchmaking over Ethernet), a short send, a cold-TLB long send (host
interrupt + driver refill), a notified delivery (signal path), a reliable
channel riding out a total-corruption error burst (CRC drops, timeouts,
retransmissions), and a hardware-fault sweep (cable down, switch port
down, LANai stall, daemon crash/restart) with traffic in flight.

The docs-vs-code diff test and the CI gate both run this workload: every
category it emits must be documented in docs/TRACING.md, and every
category documented as ``e2e`` must be emitted here — so neither the code
nor the documentation can drift alone.
"""

from __future__ import annotations

from repro.sim import Environment, Tracer
from repro.obs.metrics import MetricsRegistry

__all__ = ["run_contract_workload"]


def run_contract_workload() -> tuple[Tracer, MetricsRegistry]:
    """Run the workload; returns its (full) tracer and metrics registry."""
    # Local imports: this module sits below repro.cluster in the layering.
    from repro.cluster import Cluster, TestbedConfig
    from repro.dsm import wire_dsm_world
    from repro.faults import (
        DAEMON_CRASH,
        FaultCampaign,
        FaultEvent,
        FaultInjector,
        LANAI_STALL,
        LINK_DOWN,
        LINK_ERROR_BURST,
        SWITCH_PORT_DOWN,
    )
    from repro.vmmc.reliable import open_channel

    env = Environment(tracer=Tracer())
    registry = MetricsRegistry().install(env)
    cluster = Cluster.build(TestbedConfig(nnodes=2, memory_mb=8), env=env)
    injector = FaultInjector(cluster)
    node0, node1 = cluster.nodes[0], cluster.nodes[1]
    _, ep_a = node0.attach_process("obs_a")
    _, ep_b = node1.attach_process("obs_b")
    inbox_b = ep_b.alloc_buffer(32 * 1024)
    src_a = ep_a.alloc_buffer(32 * 1024)
    notifications: list[dict] = []

    def on_notify(info):
        notifications.append(info)

    def app():
        # -- plain VMMC traffic ------------------------------------------
        yield ep_b.export(inbox_b, "obs_inbox", notify_handler=on_notify)
        to_b = yield ep_a.import_buffer("node1", "obs_inbox")
        # Short send (also raises a notification: the export is notified).
        yield ep_a.send(src_a, to_b, 4)
        # Long send with a *cold* software TLB: misses interrupt the host
        # driver (kernel irq path) and refill through the page tables.
        yield ep_a.send(src_a, to_b, 12 * 1024)
        yield env.timeout(300_000)  # drain deliveries + signal handlers

        # -- reliable channel under a total-corruption burst -------------
        sender, receiver = yield open_channel(ep_a, ep_b, "obs")
        recv = receiver.recv()
        yield sender.send(b"clean run")
        yield recv
        burst = FaultCampaign.of("obs_burst", [
            FaultEvent(at_ns=0, kind=LINK_ERROR_BURST,
                       target="node0->sw0", duration_ns=200_000,
                       params={"rate": 1.0}),
        ])
        driving = injector.run(burst)
        recv = receiver.recv()
        # First transmission and first retransmission are corrupted and
        # CRC-dropped; the second retransmission (after the burst clears)
        # gets through — exercising timeout, backoff and recovery.
        yield sender.send(b"through the storm")
        yield recv
        yield driving

        # -- paced aftermath ---------------------------------------------
        # The storm's timeouts left retransmit pressure behind; the next
        # back-to-back sends are stretched by the pacer (`rel.pace`) while
        # clean ACKs drain the pressure and regrow the window.
        for payload in (b"paced one", b"paced two"):
            recv = receiver.recv()
            yield sender.send(payload)
            yield recv

        # -- hardware fault sweep with traffic in flight ------------------
        t0 = env.now
        sweep = FaultCampaign.of("obs_sweep", [
            FaultEvent(at_ns=0, kind=LINK_DOWN,
                       target="sw0->node1", duration_ns=150_000),
            FaultEvent(at_ns=200_000, kind=SWITCH_PORT_DOWN,
                       target="sw0:1", duration_ns=150_000),
            FaultEvent(at_ns=400_000, kind=LANAI_STALL,
                       target="node0", duration_ns=20_000),
            FaultEvent(at_ns=500_000, kind=DAEMON_CRASH,
                       target="node1", duration_ns=500_000),
        ])
        driving = injector.run(sweep)
        yield env.timeout(10_000)
        # Worm truncated on the dead cable (`link.lost_down`): base VMMC
        # never learns — the short sync send still completes locally.
        yield ep_a.send(src_a, to_b, 4)
        yield env.timeout(t0 + 250_000 - env.now)
        # Worm sunk by the downed crossbar port (`switch.drop_port_down`).
        yield ep_a.send(src_a, to_b, 4)
        yield env.timeout(t0 + 550_000 - env.now)
        # Import request hitting the crashed daemon is dropped on the
        # floor (`daemon.drop_crashed`); deliberately not awaited — the
        # reply never comes, which is exactly the failure mode.  (The
        # Ethernet stack costs ~270 us end-to-end, so the crash window
        # must still be open when the datagram lands.)
        ep_a.import_buffer("node1", "obs_missing")
        yield driving
        yield env.timeout(100_000)

        # -- DSM stage: page faults, coherence actions, sync --------------
        # A two-rank shared segment: rank 0 allocates and writes (home
        # page, local hit), rank 1 read-faults the page in (fetch), then
        # write-faults it (invalidating rank 0's copy) — touching every
        # `dsm.*` e2e trace point.
        segments = yield wire_dsm_world(cluster, npages=8, page_bytes=128)
        shared: dict = {}

        def dsm_rank0():
            seg = segments[0]
            base = yield from seg.alloc(2 * 128)
            shared["base"] = base
            yield from seg.lock(1)
            yield from seg.write_u32(base, 41)
            yield from seg.unlock(1)
            yield from seg.barrier()
            yield from seg.barrier()  # rank 1's ops are done

        def dsm_rank1():
            seg = segments[1]
            yield from seg.barrier()  # base is published
            base = shared["base"]
            value = yield from seg.read_u32(base)
            yield from seg.lock(1)
            yield from seg.write_u32(base, value + 1)
            yield from seg.unlock(1)
            yield from seg.barrier()

        rank0 = env.process(dsm_rank0(), name="obs.dsm0")
        rank1 = env.process(dsm_rank1(), name="obs.dsm1")
        yield rank0
        yield rank1
        yield env.timeout(100_000)

    env.run(until=env.process(app(), name="obs.contract"))
    assert notifications, "contract workload expected a notification"
    return env.tracer, registry
