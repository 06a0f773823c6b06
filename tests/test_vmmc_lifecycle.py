"""Import/export lifecycle: typed destinations, unimport/reimport, and
the daemon cold-restart recovery protocol (epoch bump, invalidation,
re-registration, transparent re-import)."""

import pytest

from repro import Cluster, TestbedConfig
from repro.vmmc.api import LifecycleState, ProxyAddress
from repro.vmmc.errors import (
    CompletionError,
    ImportDenied,
    ImportStale,
    ImportTimeout,
    InvalidSendError,
    SendError,
)
from repro.vmmc.proxy import ProxySpace


def small_cluster(nnodes=2, **overrides):
    return Cluster.build(TestbedConfig(nnodes=nnodes, memory_mb=8,
                                       **overrides))


def drain(env, us=2000):
    env.run(until=env.now + us * 1000)


def wire_pair(cluster, nbytes=16384, name="inbox", notify_handler=None):
    env = cluster.env
    _, sender = cluster.nodes[0].attach_process("s")
    _, receiver = cluster.nodes[1].attach_process("r")
    state = {}

    def setup():
        inbox = receiver.alloc_buffer(nbytes)
        inbox.fill(0)
        state["handle"] = yield receiver.export(
            inbox, name, notify_handler=notify_handler)
        state["imported"] = yield sender.import_buffer("node1", name)
        state["inbox"] = inbox

    env.run(until=env.process(setup()))
    return sender, receiver, state


# ------------------------------------------------------------ error taxonomy
def test_send_error_hierarchy():
    """`except SendError` still catches everything; new code can
    discriminate (satellite: typed error hierarchy)."""
    assert issubclass(InvalidSendError, SendError)
    assert issubclass(CompletionError, SendError)
    assert issubclass(ImportStale, SendError)
    assert issubclass(ImportTimeout, ImportDenied)
    err = ImportStale("x", remote_node="node1", name="inbox",
                      state="stale", epoch=3)
    assert (err.remote_node, err.name, err.state, err.epoch) == \
        ("node1", "inbox", "stale", 3)
    assert CompletionError("bad", status=7).status == 7


def test_invalid_send_arguments_raise_typed_error():
    cluster = small_cluster()
    env = cluster.env
    sender, _, state = wire_pair(cluster)
    imported = state["imported"]

    def app():
        src = sender.alloc_buffer(4096)
        with pytest.raises(InvalidSendError):
            yield sender.send(src, imported.at(0), 0)
        with pytest.raises(InvalidSendError):
            yield sender.send(src, imported.at(0), 9 * 1024 * 1024)
        with pytest.raises(InvalidSendError):
            yield sender.send(src, imported.at(0), 4096, src_offset=1)

    env.run(until=env.process(app()))


# ------------------------------------------------------- typed destinations
def test_proxy_address_typed_destination_delivers():
    cluster = small_cluster()
    env = cluster.env
    sender, _, state = wire_pair(cluster)
    imported, inbox = state["imported"], state["inbox"]

    def app():
        src = sender.alloc_buffer(4096)
        src.write(b"typed destination")
        dest = imported.at(100)
        assert isinstance(dest, ProxyAddress)
        yield sender.send(src, dest, 17)
        yield sender.send(src, imported.at(0) + 200, 17)  # offset arithmetic

    env.run(until=env.process(app()))
    drain(env, 500)
    assert inbox.read(100, 17).tobytes() == b"typed destination"
    assert inbox.read(200, 17).tobytes() == b"typed destination"


def test_proxy_address_bounds_checked():
    cluster = small_cluster()
    sender, _, state = wire_pair(cluster)
    imported = state["imported"]
    with pytest.raises(Exception):
        imported.at(imported.nbytes)        # one past the end
    with pytest.raises(Exception):
        imported.at(-1)


def test_legacy_destination_forms_are_rejected():
    """Raw-int and (imported, offset) tuple destinations were removed:
    they fail as malformed sends, before any I/O."""
    cluster = small_cluster()
    env = cluster.env
    sender, _, state = wire_pair(cluster)
    imported, inbox = state["imported"], state["inbox"]

    def app():
        src = sender.alloc_buffer(4096)
        src.write(b"legacy")
        for legacy in (imported.address(0), (imported, 16)):
            with pytest.raises(InvalidSendError):
                yield sender.send(src, legacy, 6)

    env.run(until=env.process(app()))
    drain(env, 500)
    assert sender.sends_posted == 0
    assert inbox.read(0, 6).tobytes() != b"legacy"


# ------------------------------------------------------------------ unimport
def test_unimport_blocks_sends_and_reimport_gets_fresh_region():
    cluster = small_cluster()
    env = cluster.env
    sender, _, state = wire_pair(cluster)
    imported, inbox = state["imported"], state["inbox"]
    old_first_page = imported.region.first_page
    state2 = {}

    def app():
        src = sender.alloc_buffer(4096)
        yield sender.send(src, imported.at(0), 64)
        yield sender.unimport(imported)
        assert imported.state is LifecycleState.REVOKED
        with pytest.raises(ImportStale):
            yield sender.send(src, imported.at(0), 64)
        with pytest.raises(ImportStale):
            # A revoked import cannot be re-established in place.
            yield sender.reimport(imported)
        # A fresh import of the same export lands on a *fresh* region.
        again = yield sender.import_buffer("node1", "inbox")
        assert again.region.first_page != old_first_page
        src.write(b"after unimport")
        yield sender.send(src, again.at(0), 14)
        state2["again"] = again

    env.run(until=env.process(app()))
    drain(env, 500)
    assert inbox.read(0, 14).tobytes() == b"after unimport"
    assert cluster.nodes[0].daemon.unimports_served == 1
    assert sender.stale_sends_blocked == 1


def test_proxy_space_release_prefers_virgin_pages():
    space = ProxySpace(npages=4)
    r1 = space.reserve(4096)
    space.reserve(4096)
    space.release(r1)
    r3 = space.reserve(2 * 4096)
    assert r3.first_page == 2          # virgin cursor pages, not the hole
    r4 = space.reserve(4096)
    assert r4.first_page == r1.first_page  # hole reused only when forced
    assert space.pages_reserved == 4


# --------------------------------------------------- cold-restart recovery
def test_peer_cold_restart_invalidates_imports_and_reimport_recovers():
    cluster = small_cluster()
    env = cluster.env
    sender, _, state = wire_pair(cluster)
    imported, inbox, handle = \
        state["imported"], state["inbox"], state["handle"]
    fired = []
    imported.on_invalidate(lambda info: fired.append(dict(info)))

    # Cold-crash the *exporting* node's daemon.
    cluster.nodes[1].daemon.crash()
    drain(env, 200)
    cluster.nodes[1].daemon.restart(cold=True)
    drain(env, 2000)   # teardown + re-export + invalidate broadcast

    assert cluster.nodes[1].daemon.epoch == 1
    assert cluster.nodes[1].daemon.cold_restarts == 1
    assert imported.state is LifecycleState.STALE
    assert imported.stale_reason == "peer_cold_restart"
    assert fired and fired[0]["reason"] == "peer_cold_restart"
    # Lazy re-registration: the lost export is only *noted*
    # at cold boot — the handle sits STALE and nothing is re-installed
    # until the first import RPC names it.
    assert handle.state is LifecycleState.STALE
    assert cluster.nodes[1].daemon.exports_reestablished == 0
    assert cluster.nodes[1].daemon.lazy_reexports == 0

    def app():
        src = sender.alloc_buffer(4096)
        with pytest.raises(ImportStale):
            yield sender.send(src, imported.at(0), 32)
        yield sender.reimport(imported)
        assert imported.state is LifecycleState.REESTABLISHED
        assert imported.epoch == 1
        assert imported.reestablishments == 1
        src.write(b"recovered")
        yield sender.send(src, imported.at(0), 9)

    env.run(until=env.process(app()))
    drain(env, 500)
    assert inbox.read(0, 9).tobytes() == b"recovered"
    assert sender.stale_sends_blocked == 1
    assert sender.reimports == 1
    # The reimport's import RPC drove the lazy re-registration: fresh
    # buffer id, handle REESTABLISHED, exactly one re-install.
    assert handle.state is LifecycleState.REESTABLISHED
    assert cluster.nodes[1].daemon.exports_reestablished == 1
    assert cluster.nodes[1].daemon.lazy_reexports == 1


def test_local_cold_restart_marks_own_imports_stale():
    cluster = small_cluster()
    env = cluster.env
    _, _, state = wire_pair(cluster)
    imported = state["imported"]

    # Cold-crash the *importing* node's daemon: its outgoing page-table
    # state is gone, so its own imports go stale too.
    cluster.nodes[0].daemon.restart(cold=True)
    drain(env, 1000)
    assert imported.state is LifecycleState.STALE
    assert imported.stale_reason == "local_cold_restart"


def test_epoch_jump_on_rpc_catches_missed_broadcast():
    """A peer that was down during the invalidate broadcast still learns
    of the cold boot from the epoch riding on the next ordinary RPC."""
    cluster = small_cluster(nnodes=3)
    env = cluster.env
    _, exporter = cluster.nodes[1].attach_process("x")
    _, importer = cluster.nodes[2].attach_process("i")
    state = {}

    def setup():
        yield exporter.export(exporter.alloc_buffer(4096), "a")
        yield exporter.export(exporter.alloc_buffer(4096), "b")
        state["a"] = yield importer.import_buffer("node1", "a")

    env.run(until=env.process(setup()))

    # node2's daemon is dead while node1 cold-boots: broadcast missed.
    cluster.nodes[2].daemon.crash()
    cluster.nodes[1].daemon.restart(cold=True)
    drain(env, 2000)
    cluster.nodes[2].daemon.restart()          # warm: no state lost
    assert state["a"].state is LifecycleState.ACTIVE  # nobody told it yet

    def later():
        # Any RPC to/from node1 now carries epoch 1; the reply's epoch
        # jump triggers the same invalidation the broadcast would have.
        state["b"] = yield importer.import_buffer("node1", "b")

    env.run(until=env.process(later()))
    assert state["a"].state is LifecycleState.STALE
    assert state["a"].stale_reason == "peer_cold_restart"
    assert state["b"].usable                     # granted at the new epoch
    assert cluster.nodes[2].daemon.invalidations_rx == 1


def test_import_timeout_when_exporter_daemon_dead():
    cluster = small_cluster()
    env = cluster.env
    _, sender = cluster.nodes[0].attach_process("s")
    cluster.nodes[1].attach_process("r")
    cluster.nodes[1].daemon.crash()

    def app():
        with pytest.raises(ImportTimeout):
            yield sender.import_buffer("node1", "ghost",
                                       timeout_ns=2_000_000)

    env.run(until=env.process(app()))
    assert cluster.nodes[1].daemon.requests_dropped_crashed == 1


# ----------------------------------------------------- notifications across restarts
def test_notifications_survive_warm_restart():
    cluster = small_cluster()
    env = cluster.env
    events = []
    sender, _, state = wire_pair(cluster,
                                 notify_handler=lambda i: events.append(i))
    imported = state["imported"]

    cluster.nodes[1].daemon.crash()
    drain(env, 200)
    cluster.nodes[1].daemon.restart()          # warm: NIC state intact
    drain(env, 200)

    def app():
        src = sender.alloc_buffer(4096)
        yield sender.send(src, imported.at(0), 32)

    env.run(until=env.process(app()))
    drain(env, 1000)
    assert len(events) == 1                     # arming survived
    assert imported.usable                      # no invalidation either


def test_notifications_dropped_by_cold_restart():
    cluster = small_cluster()
    env = cluster.env
    events = []
    sender, _, state = wire_pair(cluster,
                                 notify_handler=lambda i: events.append(i))
    imported, inbox, handle = \
        state["imported"], state["inbox"], state["handle"]
    old_buffer_id = handle.record.buffer_id

    cluster.nodes[1].daemon.restart(cold=True)
    drain(env, 2000)

    def app():
        yield sender.reimport(imported)
        src = sender.alloc_buffer(4096)
        src.write(b"silent")
        yield sender.send(src, imported.at(0), 6)

    env.run(until=env.process(app()))
    # The reimport re-installed the export lazily, under a fresh buffer
    # id — whose notification arming did not survive.
    assert handle.record.buffer_id != old_buffer_id
    drain(env, 1000)
    # Data still arrives, but the notification arming did not survive.
    assert inbox.read(0, 6).tobytes() == b"silent"
    assert events == []
    assert cluster.nodes[1].kernel.signals_delivered == 0


# ------------------------------------------------------------- fault harness
def test_fault_stats_count_cold_crashes_separately():
    from repro.faults import (DAEMON_COLD_CRASH, DAEMON_CRASH, FaultCampaign,
                              FaultEvent, FaultInjector)

    cluster = small_cluster()
    env = cluster.env
    campaign = FaultCampaign.of("mixed", [
        FaultEvent(at_ns=1_000, kind=DAEMON_CRASH, target="node0",
                   duration_ns=50_000),
        FaultEvent(at_ns=200_000, kind=DAEMON_COLD_CRASH, target="node0",
                   duration_ns=50_000),
    ])
    stats = env.run(until=FaultInjector(cluster).run(campaign))
    assert stats.by_kind == {"daemon_crash": 1, "daemon_cold_crash": 1}
    assert cluster.nodes[0].daemon.crashes == 2
    assert cluster.nodes[0].daemon.cold_restarts == 1


def test_cold_crash_chaos_exactly_once_and_deterministic():
    """The acceptance experiment: seeded cold crashes over the reliable
    layer deliver every payload exactly once, and a rerun reproduces
    identical FaultStats and recovery counters."""
    from repro.bench.chaos import run_cold_crash_point

    point_a, stats_a, rec_a = run_cold_crash_point(seed=5, messages=120)
    point_b, stats_b, rec_b = run_cold_crash_point(seed=5, messages=120)
    assert point_a.delivered_intact == point_a.messages == 120
    assert point_a.send_failures == 0
    assert rec_a["cold_restarts"] == 2
    assert rec_a["reimports"] > 0           # recovery actually exercised
    assert rec_a["exports_reestablished"] > 0
    assert point_a == point_b
    assert stats_a.as_dict() == stats_b.as_dict()
    assert rec_a == rec_b
