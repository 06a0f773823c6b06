"""An injected LANai stall delays a long send exactly as it always did.

The LCP charges each firmware step through ``LANaiProcessor.charge``
(a duration, any pending stall included) and waits on a ``Timeout`` of
it; ``cycles`` is the same charge as a timer.  These tests pin, on the
paper testbed, what a stall costs a 64 KB send — its completion time
and the stall time the processor served — for a stall that starts
before a charge, one that starts inside a charge, and two overlapping
stalls.  The numbers were recorded when every LCP step still went
through ``cycles``.
"""

import pytest

from repro.bench.microbench import VmmcPair
from repro.cluster import TestbedConfig
from repro.hw.lanai.processor import LANaiProcessor
from repro.sim import Environment

#: Offsets are from the send call.  The sender's LCP charges its main
#: loop at 2 184 ns, the pickup at 2 664 ns, the first TLB probe at
#: 3 204 ns and the first chunk's header preparation over 3 804..5 424 ns
#: (covered by the host DMA, which ends near 44.8 µs).
STALLS = {
    # LCP idle: the first charge after the doorbell serves the rest.
    "before a charge": [(1_000, 5_000)],
    # Starts inside the first chunk's header preparation: that charge
    # is already taken, so the next chunk's TLB probe serves what is left.
    "inside a charge": [(4_500, 50_000)],
    # The second extends the first; neither shortens the other.
    "two overlapping stalls": [(60_000, 30_000), (80_000, 25_000)],
}

#: (completion time of the send in ns, stall ns the processor served).
PINNED = {
    "before a charge": (675_496, 3_816),
    "inside a charge": (681_378, 9_698),
    "two overlapping stalls": (690_280, 18_600),
}
UNSTALLED_NS = 671_680


def long_send(stalls):
    """Completion time of a 64 KB synchronous send with ``stalls``
    ``(offset, duration)`` injected into the sender's LANai, and the
    stall time its processor served."""
    pair = VmmcPair(TestbedConfig(), buffer_bytes=64 * 1024)
    env = pair.env
    cpu = pair.cluster.nodes[0].nic.processor
    t0 = env.now

    def inject(at, duration):
        yield env.timeout(at)
        cpu.stall(duration)

    for at, duration in stalls:
        env.process(inject(at, duration))
    env.run(until=pair.ep_a.send(pair.src_a, pair.to_b, 64 * 1024))
    return env.now - t0, cpu.stall_ns_served


def test_an_unstalled_long_send():
    assert long_send([]) == (UNSTALLED_NS, 0)


@pytest.mark.parametrize("case", STALLS)
def test_a_stalled_long_send_ends_where_it_always_did(case):
    assert long_send(STALLS[case]) == PINNED[case]


def test_cycles_and_charge_agree_on_every_duration():
    """Two processors under the same stalls, one charged through
    ``charge`` and one through ``cycles``: every duration and the
    stall time served are equal."""
    env = Environment()
    by_charge, by_cycles = LANaiProcessor(env), LANaiProcessor(env)
    durations = []

    def firmware():
        for at, stall, n in [(0, 0, 16), (100, 700, 18), (300, 0, 8),
                             (0, 5_000, 54), (2_000, 1_000, 12),
                             (10, 0, 1), (0, 0, 225)]:
            yield env.timeout(at)
            for cpu in (by_charge, by_cycles):
                if stall:
                    cpu.stall(stall)
            timer = by_cycles.cycles(n)
            durations.append((by_charge.charge(n), timer.delay))
            yield timer

    env.run(until=env.process(firmware()))
    assert all(charged == timed for charged, timed in durations)
    assert [d for d, _ in durations] == [480, 1_240, 240, 6_620, 1_360,
                                         30, 6_750]
    assert by_charge.stall_ns_served == by_cycles.stall_ns_served == 6_700
    assert by_charge.cycles_charged == by_cycles.cycles_charged == 334
