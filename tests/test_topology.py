"""Property tests for the declarative topology layer.

For **every** registered spec kind (sizes swept), the generated routing
function must satisfy three properties:

1. **Delivery** — walking each route's bytes through the real cabling
   terminates at the claimed destination host, for all ordered pairs.
2. **Checker agreement** — the routes walked by the deadlock checker
   are the same channels, and the channel dependency graph is acyclic
   (``check_deadlock_free`` returns a report whose counts match).
3. **Discipline** — mesh/torus routes are dimension-ordered (all X
   moves before any Y move, one direction per dimension, no wrap use);
   fat-tree routes never come back up after turning down (up*/down*).

Plus the negative half of the contract: the checker must *reject*
cyclic routing functions — both the canonical minimal-torus table and a
hand-built three-switch ring — with a typed
:class:`~repro.hw.myrinet.topology.RoutingDeadlockError` carrying the
cycle.

networkx is the oracle, and only here: the checker's verdict, counts and
named cycle must be what ``nx.find_cycle`` gives on the channel
dependency graph, and ``fabric_stats``'s bisection what
``nx.maximum_flow_value`` gives on the cabling.
"""

import hashlib
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import networkx as nx
import pytest

import repro
from repro.sim import Environment
from repro.hw.myrinet import (
    MyrinetNetwork,
    PortRangeError,
    PortRef,
    natural_key,
    topology,
)
from repro.hw.myrinet.topology import (
    DeadlockReport,
    DualSwitchSpec,
    FatTreeSpec,
    MeshSpec,
    RoutingDeadlockError,
    SingleSwitchSpec,
    TopologyError,
    check_deadlock_free,
    fabric_stats,
    minimal_torus_routes,
    walk_route,
)

#: Size sweep per registered kind — every kind in SPEC_KINDS must appear
#: here (asserted below), so a new generator cannot dodge the property
#: tests by omission.
SWEEP = {
    "single": ["single:2", "single:5", "single:8", "single:6,ports=8"],
    "dual": ["dual:4", "dual:8", "dual:14"],
    "fattree": ["fattree:2", "fattree:4", "fattree:4,h=1", "fattree:8,h=2"],
    "mesh": ["mesh:2x2", "mesh:3x2,h=2", "mesh:4x4",
             "torus:3x3", "torus:4x4"],
}

ALL_SPECS = [text for texts in SWEEP.values() for text in texts]


def built(text):
    return topology.parse(text), topology.build(text, Environment())


def channel_dependency_graph(net, routes):
    """The wormhole channel dependency graph as a networkx ``DiGraph``:
    nodes are channels, ``c1 -> c2`` when a worm holding ``c1`` requests
    ``c2``; nodes and edges inserted in the checker's walk order."""
    cdg = nx.DiGraph()
    for (src, _), route in sorted(routes.items()):
        _, channels = walk_route(net, src, route)
        cdg.add_nodes_from(channels)
        cdg.add_edges_from(zip(channels, channels[1:]))
    return cdg


def cabling_bisection(net):
    """Max-flow between the two halves of the hosts in index order, every
    cable capacity 1 each way, computed by networkx."""
    flow = nx.DiGraph()
    for link in net.links:
        a, b = link.name.split("->")
        flow.add_edge(a, b, capacity=1)
    hosts = net.host_names
    half = len(hosts) // 2
    for host in hosts[:half]:
        flow.add_edge("bisect_src", host, capacity=len(hosts))
    for host in hosts[half:]:
        flow.add_edge(host, "bisect_dst", capacity=len(hosts))
    return nx.maximum_flow_value(flow, "bisect_src", "bisect_dst")


def test_sweep_covers_every_registered_kind():
    assert set(SWEEP) == set(topology.SPEC_KINDS)


# ------------------------------------------------ delivery + checker
@pytest.mark.parametrize("text", ALL_SPECS)
def test_all_pairs_routes_deliver(text):
    spec, net = built(text)
    table = net.route_table
    hosts = net.host_names
    assert len(hosts) == spec.nhosts
    assert set(table) == {(s, d) for s in hosts for d in hosts if s != d}
    for (src, dst), route in table.items():
        terminal, channels = walk_route(net, src, route)
        assert terminal == dst
        # One channel per device the worm leaves: host uplink + each hop.
        assert len(channels) == len(route) + 1
        assert channels[0] == f"{src}->{net.host_uplink(src)}"
        assert channels[-1].endswith(f"->{dst}")


@pytest.mark.parametrize("text", ALL_SPECS)
def test_checker_graph_matches_walked_routes(text):
    spec, net = built(text)
    table = net.route_table
    report = check_deadlock_free(net)          # installed table
    cdg = channel_dependency_graph(net, table)
    walked = set()
    deps = set()
    for (src, _), route in table.items():
        _, channels = walk_route(net, src, route)
        walked.update(channels)
        deps.update(zip(channels, channels[1:]))
    assert set(cdg.nodes) == walked
    assert set(cdg.edges) == deps
    assert report.routes == len(table)
    assert report.channels == len(walked)
    assert report.dependencies == len(deps)


@pytest.mark.parametrize("text", ALL_SPECS)
def test_compute_route_serves_installed_table(text):
    _, net = built(text)
    hosts = net.host_names
    for (src, dst), route in net.route_table.items():
        assert net.compute_route(src, dst) == route
    assert hosts == sorted(hosts, key=natural_key)


# ------------------------------------------------ routing discipline
@pytest.mark.parametrize("text", ["mesh:4x4", "mesh:3x2,h=2",
                                  "torus:3x3", "torus:4x4"])
def test_mesh_routes_are_dimension_ordered(text):
    spec, net = built(text)
    x_moves = {MeshSpec.EAST, MeshSpec.WEST}
    y_moves = {MeshSpec.NORTH, MeshSpec.SOUTH}
    for (src, dst), route in net.route_table.items():
        *hops, exit_port = route
        assert exit_port >= MeshSpec.HOST_BASE
        dims = [0 if byte in x_moves else 1 for byte in hops]
        assert dims == sorted(dims), \
            f"{src}->{dst} {route}: Y move before X finished"
        # One direction per dimension, and never the wrap cable: the
        # hop count in each dimension equals the coordinate distance.
        sx, sy, _ = spec.host_coords(int(src[4:]))
        dx, dy, _ = spec.host_coords(int(dst[4:]))
        assert hops.count(MeshSpec.EAST) - hops.count(MeshSpec.WEST) \
            == dx - sx
        assert hops.count(MeshSpec.NORTH) - hops.count(MeshSpec.SOUTH) \
            == dy - sy
        assert len(set(hops) & x_moves) <= 1
        assert len(set(hops) & y_moves) <= 1


@pytest.mark.parametrize("text", ["fattree:4", "fattree:8,h=2"])
def test_fattree_routes_are_up_down(text):
    spec, net = built(text)
    tier = {}
    for name in net.switches:
        tier[name] = (0 if ":edge[" in name else
                      1 if ":agg[" in name else 2)
    for (src, dst), route in net.route_table.items():
        _, channels = walk_route(net, src, route)
        # Tier sequence of switch hops must rise then fall (up*/down*).
        tiers = [tier[ch.split("->")[0]] for ch in channels[1:]]
        peak = tiers.index(max(tiers))
        assert tiers[:peak + 1] == sorted(tiers[:peak + 1])
        assert tiers[peak:] == sorted(tiers[peak:], reverse=True)
        assert len(route) <= 5


def test_fattree_deterministic_up_path_is_destination_moded():
    # In-order delivery needs one fixed path per (src, dst): re-building
    # the same spec yields the identical table.
    a = topology.build("fattree:4", Environment()).route_table
    b = topology.build("fattree:4", Environment()).route_table
    assert a == b


# ------------------------------------------------ rejection: cyclic tables
def minimal_torus():
    spec = topology.parse("torus:4x4")
    net = MyrinetNetwork(Environment())
    spec.materialize(net)
    return net, minimal_torus_routes(spec)


def test_minimal_torus_routing_is_rejected_as_deadlock():
    net, cyclic = minimal_torus()
    with pytest.raises(RoutingDeadlockError) as err:
        check_deadlock_free(net, cyclic)
    cycle = err.value.cycle
    assert len(cycle) >= 4
    assert cycle[0] == cycle[-1]           # a closed channel chain
    for channel in cycle:
        assert "->" in channel


def test_minimal_torus_routes_requires_torus():
    with pytest.raises(TopologyError, match="torus"):
        minimal_torus_routes(topology.parse("mesh:4x4"))


def hand_built_ring():
    # Three switches cabled in a unidirectional ring (port 0 -> next,
    # port 1 <- previous, port 2 -> host).  One-hop routes are fine;
    # adding the two-hop (+2) routes closes the channel cycle.
    env = Environment()
    net = MyrinetNetwork(env)
    for i in range(3):
        net.add_switch(f"ring{i}", nports=3)
        net.add_host(f"node{i}")
        net.connect(PortRef(f"node{i}", 0), PortRef(f"ring{i}", 2))
    for i in range(3):
        net.connect(PortRef(f"ring{i}", 0), PortRef(f"ring{(i + 1) % 3}", 1))
    one_hop = {(f"node{s}", f"node{(s + 1) % 3}"): [0, 2] for s in range(3)}
    full = dict(one_hop)
    full.update({(f"node{s}", f"node{(s + 2) % 3}"): [0, 0, 2]
                 for s in range(3)})
    return net, one_hop, full


def test_hand_built_ring_routing_is_rejected():
    net, one_hop, full = hand_built_ring()
    report = check_deadlock_free(net, one_hop)
    assert report.routes == 3
    with pytest.raises(RoutingDeadlockError) as err:
        check_deadlock_free(net, full)
    assert "cycle" in str(err.value)
    ring_channels = {f"ring{i}->ring{(i + 1) % 3}" for i in range(3)}
    assert ring_channels.issubset(set(err.value.cycle))


def _table_of(case):
    """(net, route table) of a built spec or of a hand-made cyclic case."""
    if case == "minimal-torus":
        return minimal_torus()
    if case.startswith("ring"):
        net, one_hop, full = hand_built_ring()
        return net, one_hop if case == "ring-one-hop" else full
    net = topology.build(case, Environment())
    return net, net.route_table


@pytest.mark.parametrize(
    "case", ALL_SPECS + ["minimal-torus", "ring-one-hop", "ring-full"])
def test_checker_agrees_with_networkx(case):
    # The checker proves acyclicity without networkx; the verdict, the
    # counts and the cycle it names must be what find_cycle gives on the
    # channel dependency graph, and a built fabric's bisection what
    # maximum_flow_value gives on its cabling.
    net, table = _table_of(case)
    cdg = channel_dependency_graph(net, table)
    try:
        edges = nx.find_cycle(cdg)
    except nx.NetworkXNoCycle:
        assert check_deadlock_free(net, table) == DeadlockReport(
            len(table), cdg.number_of_nodes(), cdg.number_of_edges())
    else:
        with pytest.raises(RoutingDeadlockError) as err:
            check_deadlock_free(net, table)
        assert err.value.cycle == [a for a, _ in edges] + [edges[-1][1]]
        assert f"cycle of length {len(edges)}" in str(err.value)
    if case in ALL_SPECS:
        assert fabric_stats(net).bisection_links == cabling_bisection(net)


def test_runtime_runs_without_networkx():
    # networkx is a test-only oracle: with its import blocked, the package
    # and the CLI load, a fat-tree cluster boots and reports its
    # bisection, and the checker still rejects the minimal torus.
    script = textwrap.dedent("""
        import sys
        sys.modules["networkx"] = None
        import repro, repro.cli
        from repro.cluster import Cluster, TestbedConfig
        from repro.hw.myrinet import MyrinetNetwork, topology
        from repro.sim import Environment
        cluster = Cluster.build(TestbedConfig(memory_mb=8),
                                topology="fattree:4")
        print(topology.fabric_stats(cluster.fabric).bisection_links)
        spec = topology.parse("torus:4x4")
        net = MyrinetNetwork(Environment())
        spec.materialize(net)
        try:
            topology.check_deadlock_free(
                net, topology.minimal_torus_routes(spec))
        except topology.RoutingDeadlockError as err:
            print(len(err.cycle) - 1)
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(repro.__file__).parents[1]),
                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    bisection, cycle_length = done.stdout.split()
    assert bisection == "8"
    assert int(cycle_length) >= 4


def test_check_requires_some_table():
    net = MyrinetNetwork(Environment())
    with pytest.raises(TopologyError, match="no route table"):
        check_deadlock_free(net)


def test_route_walk_rejects_lies():
    _, net = built("mesh:2x2")
    with pytest.raises(TopologyError, match="not cabled"):
        # Port EAST of the right-edge switch has no cable in a mesh.
        walk_route(net, "node1", [MeshSpec.EAST, MeshSpec.HOST_BASE])
    with pytest.raises(TopologyError, match="not a host"):
        walk_route(net, "mesh0:sw[0][0]", [0])
    with pytest.raises(TopologyError, match="forward through"):
        # First byte reaches node1's *switch* neighbour... the HOST_BASE
        # byte then lands on host node0, and the extra byte asks the
        # host to forward.
        walk_route(net, "node1", [MeshSpec.WEST, MeshSpec.HOST_BASE, 0])



@pytest.mark.parametrize("pair, route, error, message", [
    (("node1", "node0"), [MeshSpec.EAST, MeshSpec.HOST_BASE],
     TopologyError, "not cabled"),
    (("node1", "node0"), [MeshSpec.WEST, MeshSpec.HOST_BASE, 0],
     TopologyError, "forward through"),
    (("node1", "node0"), [99], PortRangeError, "port 99"),
    (("node9", "node0"), [0], TopologyError, "not a host"),
    (("node1", "node3"), [MeshSpec.WEST, MeshSpec.HOST_BASE],
     TopologyError, r"route node1->node3 \[1, 4\] terminates at 'node0'"),
])
def test_the_proof_rejects_a_route_that_lies(pair, route, error, message):
    # The proof walks every route over interned channel ids; a lie raises
    # what walking that route raises, and of two lies the first in
    # route-table order.
    _, net = built("mesh:2x2")
    table = dict(net.route_table)
    table[pair] = route
    with pytest.raises(error, match=message):
        check_deadlock_free(net, table)
    # node0's switch is on the west edge.
    table[("node0", "node1")] = [MeshSpec.WEST, MeshSpec.HOST_BASE]
    with pytest.raises(TopologyError, match="node0: switch .* port 1 is not"):
        check_deadlock_free(net, table)


def _shuffled(table, seed):
    """``table`` with its routes inserted in a seeded random order."""
    items = sorted(table.items())
    random.Random(seed).shuffle(items)
    return dict(items)


@pytest.mark.parametrize("seed", range(4))
def test_the_proof_names_the_same_fault_in_any_table_order(seed):
    # The proof walks a table in its own order and walks it again sorted
    # only to name a fault: the cycle or the lie it names, and what a
    # passing proof reports, do not depend on the insertion order.
    _, mesh = built("mesh:2x2")
    lies = dict(mesh.route_table)
    lies[("node1", "node3")] = [MeshSpec.WEST, MeshSpec.HOST_BASE]
    lies[("node0", "node1")] = [MeshSpec.WEST, MeshSpec.HOST_BASE]
    cases = [_table_of(case) for case in ("minimal-torus", "ring-full")]
    for net, table in cases + [(mesh, lies)]:
        outcomes = []
        for order in (dict(sorted(table.items())), _shuffled(table, seed)):
            with pytest.raises(TopologyError) as err:
                check_deadlock_free(net, order)
            outcomes.append((type(err.value), str(err.value),
                             getattr(err.value, "cycle", None)))
        assert outcomes[0] == outcomes[1]
    net, table = _table_of("fattree:4,h=2")
    assert check_deadlock_free(net, _shuffled(table, seed)) == \
        check_deadlock_free(net, table)


def test_route_walk_from_an_unknown_or_uncabled_host_is_a_topology_error():
    _, net = built("single:2")
    net.add_host("loose")
    for src, message in [("node9", "not a host"), ("loose", "not cabled")]:
        with pytest.raises(TopologyError, match=message):
            walk_route(net, src, [0])


def test_route_walk_reads_the_port_map_directly(monkeypatch):
    _, net = built("fattree:4")
    for name in ("port_neighbor", "host_uplink"):
        monkeypatch.setattr(net, name, None)
    check_deadlock_free(net)


#: sha256 (first 16 hex digits) of each example spec's installed route
#: table, in insertion order, one ``"src dst [bytes]"`` line per pair —
#: and, for a torus, of its minimal (cyclic) table after it.  Recorded
#: while the generators still computed a host's coordinates once per
#: ordered pair; ``mesh:8x8`` is the benchmark's mesh.
ROUTE_TABLE_DIGESTS = {
    "dual:4": "486abd5ed8afb5dc",
    "dual:8": "3f228402f3827931",
    "dual:14": "61ce6ea0445e4026",
    "fattree:2": "2edce4968a93a47a",
    "fattree:4": "a6708b5ba4dda7e1",
    "fattree:4,h=1": "7a564ab3c0a7630c",
    "fattree:8,h=2": "276a3c67e5b26469",
    "mesh:2x2": "c669fa5c5b515426",
    "mesh:3x2,h=2": "3be9d6f1a3ab52d7",
    "mesh:4x4": "6e3ddec9ec00ce07",
    "mesh:8x8": "c9417f6b930d2818",
    "torus:3x3": "da624ccfa00c4170",
    "torus:4x4": "42d31dd98caa3f6c",
    "single:2": "c92e2a59dac1f15e",
    "single:4": "85cb70bd21b78209",
    "single:8": "30941e1d047e7e23",
}


def test_every_example_route_table_is_unchanged():
    examples = [text for kind in topology.SPEC_KINDS.values()
                for text in kind.EXAMPLES] + ["mesh:8x8"]
    assert sorted(examples) == sorted(ROUTE_TABLE_DIGESTS)
    for text in examples:
        spec, net = built(text)
        tables = [net.route_table]
        if getattr(spec, "torus", False):
            tables.append(minimal_torus_routes(spec))
        digest = hashlib.sha256()
        for table in tables:
            for (src, dst), route in table.items():
                digest.update(f"{src} {dst} {route}\n".encode())
        assert digest.hexdigest()[:16] == ROUTE_TABLE_DIGESTS[text], text


# ------------------------------------------------ parse / resolve / stats
def test_parse_rejects_bad_strings():
    for bad in ["fddi:4", "single", "single:x", "mesh:4", "mesh:4x",
                "fattree:3", "fattree:4,ports=8", "single:4,h=2",
                "torus:2x4", "mesh:8x8,h=0"]:
        with pytest.raises(TopologyError):
            topology.parse(bad)


def test_parse_options():
    spec = topology.parse("single:6,ports=8")
    assert (spec.nhosts, spec.switch_ports) == (6, 8)
    spec = topology.parse("fattree:8,h=2")
    assert (spec.k, spec.h, spec.nhosts) == (8, 2, 64)
    spec = topology.parse("torus:3x3")
    assert spec.torus and spec.name == "torus0"
    spec = topology.parse("mesh:8x8,h=2")
    assert (spec.cols, spec.rows, spec.nhosts) == (8, 8, 128)


def test_resolve_legacy_names_and_specs():
    assert isinstance(topology.resolve("single_switch", nhosts=6),
                      SingleSwitchSpec)
    assert topology.resolve("single_switch", nhosts=6).nhosts == 6
    assert isinstance(topology.resolve("dual_switch", nhosts=8),
                      DualSwitchSpec)
    spec = FatTreeSpec(k=4)
    assert topology.resolve(spec) is spec
    with pytest.raises(TopologyError, match="not a topology"):
        topology.resolve(42)


def test_fabric_stats_known_values():
    _, net = built("fattree:4")
    stats = fabric_stats(net)
    assert (stats.nhosts, stats.nswitches, stats.ncables) == (16, 20, 48)
    assert stats.diameter_hops == 5
    assert stats.bisection_links == 8
    _, mesh = built("mesh:4x4")
    mstats = fabric_stats(mesh)
    assert mstats.diameter_hops == 7          # corner-to-corner + exit
    assert mstats.bisection_links == 4        # row cut of a 4x4 mesh
    _, torus = built("torus:4x4")
    assert fabric_stats(torus).bisection_links == 8   # wrap doubles it


def test_spec_describe_and_host_names():
    for text in ALL_SPECS:
        spec = topology.parse(text)
        assert spec.describe()
        names = spec.host_names()
        assert names == [f"node{i}" for i in range(spec.nhosts)]
