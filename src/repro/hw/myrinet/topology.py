"""Declarative multi-switch topology generation with deadlock-free routing.

The paper's VMMC runs on arbitrary wormhole-routed Myrinet fabrics; the
reproduction grew up on the hand-wired 1- and 2-switch testbeds.  This
module scales the fabric out declaratively:

* **Topology specs** — frozen dataclasses (:class:`SingleSwitchSpec`,
  :class:`DualSwitchSpec`, :class:`FatTreeSpec`, :class:`MeshSpec`)
  describing a fabric: how many switches, how they are cabled, where the
  hosts attach.  ``parse("fattree:4")`` / ``parse("mesh:8x8")`` give a
  compact string form usable in configs and CLIs; every spec kind lives
  in the :data:`SPEC_KINDS` registry.
* **Generators** — :func:`build` materializes a spec into a cabled
  :class:`~repro.hw.myrinet.network.MyrinetNetwork` (switches, full-duplex
  cables, host attachment points named ``node0..nodeN-1``).
* **Source-route computers** — each spec emits the per-hop Myrinet route
  bytes for every ordered host pair: deterministic shortest path on the
  small testbeds, **up*/down*** on fat-trees, **dimension-order (X then
  Y)** on meshes and tori.  The table is installed into the network and
  becomes the ground truth the mapping LCP (section 4.3) discovers.
* **Deadlock checker** — :func:`check_deadlock_free` builds the channel
  dependency graph of a routing function over the wormhole channels
  (unidirectional links) and proves it cycle-free; a cyclic routing
  function — e.g. minimal dimension-order routing on a torus without
  virtual channels (:func:`minimal_torus_routes`) — raises the typed
  :class:`RoutingDeadlockError` carrying the offending channel cycle.
  The mapping phase that boots a fabric runs the checker once on its
  installed table (:mod:`repro.vmmc.mapping_lcp`), so no booted
  cluster carries an unproven routing function.

Deadlock-freedom arguments (details in DESIGN.md §8):

* Fat-tree up*/down*: channels partition into *up* (toward the core) and
  *down*; every route is a sequence of up channels followed by a sequence
  of down channels, so dependencies only go up→up (strictly rising
  level), up→down, down→down (strictly falling level) — never down→up.
  A level-indexed potential function orders the channels; no cycle.
* Mesh dimension-order: all X-channel dependencies point monotonically
  along a row (no wraparound), Y likewise along a column, and turns only
  go X→Y.  Ordering channels (dimension, direction, coordinate) is a
  topological order.
* Torus: the wrap cables are generated, but **minimal** DOR over them is
  cyclic without virtual channels (the classic ring dependency cycle) —
  our switches model none, so the generated routing is
  *dateline-restricted*: it never crosses the wrap edge, which is
  exactly mesh DOR.  Wrap cables still exist for fault injection and
  hand-built routing experiments; :func:`minimal_torus_routes` computes
  the wrap-using variant precisely so tests can watch the checker
  reject it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import ClassVar, Optional, Union

from repro.sim import Environment
from repro.hw.myrinet.link import LinkParams
from repro.hw.myrinet.network import MyrinetNetwork, PortRef

__all__ = [
    "TopologyError",
    "RoutingDeadlockError",
    "TopologySpec",
    "SingleSwitchSpec",
    "DualSwitchSpec",
    "FatTreeSpec",
    "MeshSpec",
    "SPEC_KINDS",
    "DeadlockReport",
    "TopologyStats",
    "build",
    "parse",
    "resolve",
    "walk_route",
    "check_deadlock_free",
    "minimal_torus_routes",
    "fabric_stats",
]


class TopologyError(ValueError):
    """A topology spec, route table, or generated fabric is invalid."""


class RoutingDeadlockError(TopologyError):
    """The routing function's channel dependency graph has a cycle.

    ``cycle`` is the offending channel chain (``["a->b", "b->c", ...,
    "a->b"]``): a worm holding each channel while waiting for the next
    would wait forever.
    """

    def __init__(self, message: str, cycle: list[str]):
        super().__init__(message)
        self.cycle = list(cycle)


#: Route tables map ordered host-name pairs to per-hop route bytes.
RouteTable = dict[tuple[str, str], list[int]]

#: kind string → spec class (the declarative registry).
SPEC_KINDS: dict[str, type] = {}


def _register(cls):
    SPEC_KINDS[cls.kind] = cls
    return cls


_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_-]*$")


@dataclass(frozen=True)
class TopologySpec:
    """Base class: a declarative description of one fabric.

    Subclasses define :attr:`kind` (the registry key and string-form
    prefix), validate themselves in ``__post_init__``, and implement
    :meth:`materialize` (add switches/hosts/cables to a network) and
    :meth:`routes` (the topology's deadlock-free source-routing
    function).  Hosts are always named ``node0..node{nhosts-1}`` in
    attachment order, matching :class:`repro.cluster.Cluster` node names.
    """

    kind: ClassVar[str] = ""
    #: Example string forms (CLI help + the property-test sweep floor).
    EXAMPLES: ClassVar[tuple[str, ...]] = ()

    @property
    def nhosts(self) -> int:
        raise NotImplementedError

    def host_names(self) -> list[str]:
        return [f"node{i}" for i in range(self.nhosts)]

    def materialize(self, net: MyrinetNetwork) -> None:
        raise NotImplementedError

    def routes(self, net: MyrinetNetwork) -> RouteTable:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


@_register
@dataclass(frozen=True)
class SingleSwitchSpec(TopologySpec):
    """The paper's testbed: N hosts on one crossbar (M2F-SW8)."""

    nhosts_: int = 4
    switch_ports: int = 8

    kind: ClassVar[str] = "single"
    EXAMPLES: ClassVar[tuple[str, ...]] = ("single:2", "single:4", "single:8")

    def __post_init__(self) -> None:
        if self.nhosts_ < 1:
            raise TopologyError(f"single: need >= 1 host, got {self.nhosts_}")
        if self.nhosts_ > self.switch_ports:
            raise TopologyError(
                f"more hosts ({self.nhosts_}) than switch ports "
                f"({self.switch_ports})")

    @property
    def nhosts(self) -> int:
        return self.nhosts_

    def materialize(self, net: MyrinetNetwork) -> None:
        net.add_switch("sw0", nports=self.switch_ports)
        for i in range(self.nhosts_):
            name = net.add_host(f"node{i}")
            net.connect(PortRef(name, 0), PortRef("sw0", i))

    def routes(self, net: MyrinetNetwork) -> RouteTable:
        # Host i sits on switch port i: one route byte naming the port.
        table: RouteTable = {}
        for s in range(self.nhosts_):
            for d in range(self.nhosts_):
                if s != d:
                    table[(f"node{s}", f"node{d}")] = [d]
        return table

    def describe(self) -> str:
        return (f"{self.nhosts_} hosts on one {self.switch_ports}-port "
                "crossbar")


@_register
@dataclass(frozen=True)
class DualSwitchSpec(TopologySpec):
    """Two cascaded 8-port switches (the original multi-hop testbed)."""

    nhosts_: int = 4

    kind: ClassVar[str] = "dual"
    EXAMPLES: ClassVar[tuple[str, ...]] = ("dual:4", "dual:8", "dual:14")

    def __post_init__(self) -> None:
        if not 2 <= self.nhosts_ <= 14:
            raise TopologyError(
                f"dual: 2..14 hosts (7 per switch + uplink), "
                f"got {self.nhosts_}")

    @property
    def nhosts(self) -> int:
        return self.nhosts_

    def _placement(self, i: int) -> tuple[str, int]:
        switch = "sw0" if i < self.nhosts_ // 2 else "sw1"
        return switch, i % 7

    def materialize(self, net: MyrinetNetwork) -> None:
        net.add_switch("sw0")
        net.add_switch("sw1")
        net.connect(PortRef("sw0", 7), PortRef("sw1", 7))
        for i in range(self.nhosts_):
            name = net.add_host(f"node{i}")
            switch, port = self._placement(i)
            net.connect(PortRef(name, 0), PortRef(switch, port))

    def routes(self, net: MyrinetNetwork) -> RouteTable:
        names = self.host_names()
        placement = [self._placement(i) for i in range(self.nhosts_)]
        table: RouteTable = {}
        for s, (s_sw, _) in enumerate(placement):
            for d, (d_sw, d_port) in enumerate(placement):
                if s == d:
                    continue
                if s_sw == d_sw:
                    table[(names[s], names[d])] = [d_port]
                else:
                    # Cross the port-7 uplink, then exit at the far port.
                    table[(names[s], names[d])] = [7, d_port]
        return table

    def describe(self) -> str:
        return f"{self.nhosts_} hosts on two cascaded 8-port switches"


@_register
@dataclass(frozen=True)
class FatTreeSpec(TopologySpec):
    """A k-ary fat-tree / folded Clos (k pods, 3 switch tiers).

    ``k`` (even) pods each hold ``k/2`` edge and ``k/2`` aggregation
    switches; ``(k/2)^2`` core switches join the pods.  Each edge switch
    attaches ``hosts_per_edge`` hosts (default ``k/2`` — the classic
    fully-provisioned Al-Fares tree; fewer hosts per edge
    over-provisions the uplinks).  Switch names are
    ``{name}:edge[pod][i]``, ``{name}:agg[pod][i]``, ``{name}:core[i][j]``.

    Routing is deterministic **up*/down***: the up path (edge→agg→core)
    is chosen by destination index (D-mod, so traffic to one host always
    takes one path — preserving Myrinet's in-order delivery guarantee),
    then down core→agg→edge→host.
    """

    k: int = 4
    hosts_per_edge: Optional[int] = None
    name: str = "ft0"

    kind: ClassVar[str] = "fattree"
    EXAMPLES: ClassVar[tuple[str, ...]] = (
        "fattree:2", "fattree:4", "fattree:4,h=1", "fattree:8,h=2")

    def __post_init__(self) -> None:
        if self.k < 2 or self.k % 2:
            raise TopologyError(f"fattree: k must be even >= 2, got {self.k}")
        if not _NAME_RE.match(self.name):
            raise TopologyError(
                f"fattree: bad fabric name {self.name!r} "
                "(letters/digits/_/- only)")
        h = self.h
        if h < 1 or h > self.k // 2:
            raise TopologyError(
                f"fattree: hosts_per_edge must be 1..k/2={self.k // 2}, "
                f"got {h}")

    @property
    def h(self) -> int:
        """Hosts attached to each edge switch."""
        return self.k // 2 if self.hosts_per_edge is None else \
            self.hosts_per_edge

    @property
    def half(self) -> int:
        return self.k // 2

    @property
    def nhosts(self) -> int:
        return self.k * self.half * self.h

    # -- naming ----------------------------------------------------------
    def edge(self, pod: int, e: int) -> str:
        return f"{self.name}:edge[{pod}][{e}]"

    def agg(self, pod: int, a: int) -> str:
        return f"{self.name}:agg[{pod}][{a}]"

    def core(self, i: int, j: int) -> str:
        return f"{self.name}:core[{i}][{j}]"

    def host_coords(self, idx: int) -> tuple[int, int, int]:
        """Host index → (pod, edge, slot)."""
        per_pod = self.half * self.h
        pod, rest = divmod(idx, per_pod)
        e, s = divmod(rest, self.h)
        return pod, e, s

    def materialize(self, net: MyrinetNetwork) -> None:
        half, h = self.half, self.h
        for pod in range(self.k):
            for e in range(half):
                net.add_switch(self.edge(pod, e), nports=h + half)
            for a in range(half):
                net.add_switch(self.agg(pod, a), nports=self.k)
        for i in range(half):
            for j in range(half):
                net.add_switch(self.core(i, j), nports=self.k)
        # Edge ports: 0..h-1 down to hosts, h..h+half-1 up to aggs.
        # Agg ports: 0..half-1 down to edges, half..k-1 up to cores.
        # Core ports: one per pod.
        for pod in range(self.k):
            for e in range(half):
                for a in range(half):
                    net.connect(PortRef(self.edge(pod, e), h + a),
                                PortRef(self.agg(pod, a), e))
            for a in range(half):
                for j in range(half):
                    net.connect(PortRef(self.agg(pod, a), half + j),
                                PortRef(self.core(a, j), pod))
        for idx in range(self.nhosts):
            pod, e, s = self.host_coords(idx)
            name = net.add_host(f"node{idx}")
            net.connect(PortRef(name, 0), PortRef(self.edge(pod, e), s))

    def routes(self, net: MyrinetNetwork) -> RouteTable:
        half, h = self.half, self.h
        names = self.host_names()
        coords = [self.host_coords(i) for i in range(self.nhosts)]
        table: RouteTable = {}
        for s_idx, (sp, se, _) in enumerate(coords):
            for d_idx, (dp, de, ds) in enumerate(coords):
                if s_idx == d_idx:
                    continue
                if sp == dp and se == de:
                    route = [ds]                    # same edge switch
                elif sp == dp:
                    a = d_idx % half                # up to one agg, down
                    route = [h + a, de, ds]
                else:
                    a = d_idx % half                # D-mod up-path choice
                    j = (d_idx // half) % half
                    route = [h + a, half + j, dp, de, ds]
                table[(names[s_idx], names[d_idx])] = route
        return table

    def describe(self) -> str:
        half = self.half
        return (f"{self.k}-ary fat-tree: {self.nhosts} hosts, "
                f"{self.k * half} edge + {self.k * half} agg + "
                f"{half * half} core switches, up*/down* routing")


@_register
@dataclass(frozen=True)
class MeshSpec(TopologySpec):
    """A 2-D mesh (or torus) of switches with hosts at every switch.

    Switches ``{name}:sw[x][y]`` form a ``cols x rows`` grid; ports 0-3
    are +x/-x/+y/-y neighbours, ports ``4..4+h-1`` attach hosts (the
    APENet/PMS mesh-machine shape).  ``torus=True`` adds wraparound
    cables in each dimension.

    Routing is **dimension-order** (X fully, then Y) and never crosses
    the wrap cables: minimal torus DOR without virtual channels has the
    classic ring dependency cycle (see :func:`minimal_torus_routes`),
    so the generated, provably deadlock-free routing is
    dateline-restricted — wrap cables serve fault-injection and routing
    experiments, not the default route table.
    """

    cols: int = 2
    rows: int = 2
    hosts_per_switch: int = 1
    torus: bool = False
    name: str = "mesh0"

    kind: ClassVar[str] = "mesh"
    EXAMPLES: ClassVar[tuple[str, ...]] = (
        "mesh:2x2", "mesh:3x2,h=2", "mesh:4x4", "torus:3x3", "torus:4x4")

    def __post_init__(self) -> None:
        if self.cols < 1 or self.rows < 1 or self.cols * self.rows < 2:
            raise TopologyError(
                f"mesh: need >= 2 switches, got {self.cols}x{self.rows}")
        if self.torus and (self.cols < 3 or self.rows < 3):
            raise TopologyError(
                f"torus: wrap cables need >= 3 switches per dimension, "
                f"got {self.cols}x{self.rows}")
        if self.hosts_per_switch < 1:
            raise TopologyError(
                f"mesh: hosts_per_switch must be >= 1, "
                f"got {self.hosts_per_switch}")
        if not _NAME_RE.match(self.name):
            raise TopologyError(
                f"mesh: bad fabric name {self.name!r} "
                "(letters/digits/_/- only)")

    # Port conventions.
    EAST, WEST, NORTH, SOUTH = 0, 1, 2, 3
    HOST_BASE: ClassVar[int] = 4

    @property
    def nhosts(self) -> int:
        return self.cols * self.rows * self.hosts_per_switch

    def sw(self, x: int, y: int) -> str:
        return f"{self.name}:sw[{x}][{y}]"

    def host_coords(self, idx: int) -> tuple[int, int, int]:
        """Host index → (x, y, slot); x-major within each row."""
        sw_idx, s = divmod(idx, self.hosts_per_switch)
        y, x = divmod(sw_idx, self.cols)
        return x, y, s

    def materialize(self, net: MyrinetNetwork) -> None:
        nports = self.HOST_BASE + self.hosts_per_switch
        for y in range(self.rows):
            for x in range(self.cols):
                net.add_switch(self.sw(x, y), nports=nports)
        for y in range(self.rows):
            for x in range(self.cols):
                if x + 1 < self.cols:
                    net.connect(PortRef(self.sw(x, y), self.EAST),
                                PortRef(self.sw(x + 1, y), self.WEST))
                elif self.torus:
                    net.connect(PortRef(self.sw(x, y), self.EAST),
                                PortRef(self.sw(0, y), self.WEST))
                if y + 1 < self.rows:
                    net.connect(PortRef(self.sw(x, y), self.NORTH),
                                PortRef(self.sw(x, y + 1), self.SOUTH))
                elif self.torus:
                    net.connect(PortRef(self.sw(x, y), self.NORTH),
                                PortRef(self.sw(x, 0), self.SOUTH))
        for idx in range(self.nhosts):
            x, y, s = self.host_coords(idx)
            name = net.add_host(f"node{idx}")
            net.connect(PortRef(name, 0),
                        PortRef(self.sw(x, y), self.HOST_BASE + s))

    def _dor_route(self, src: tuple[int, int, int],
                   dst: tuple[int, int, int], *, minimal: bool) -> list[int]:
        """Dimension-order route bytes between two hosts' coordinates;
        ``minimal`` may use wrap cables."""
        (sx, sy, _), (dx, dy, ds) = src, dst
        route: list[int] = []
        route += self._ring_steps(sx, dx, self.cols, self.EAST, self.WEST,
                                  minimal=minimal)
        route += self._ring_steps(sy, dy, self.rows, self.NORTH, self.SOUTH,
                                  minimal=minimal)
        route.append(self.HOST_BASE + ds)
        return route

    def _ring_steps(self, a: int, b: int, n: int, plus: int, minus: int,
                    *, minimal: bool) -> list[int]:
        if a == b:
            return []
        if minimal and self.torus:
            fwd = (b - a) % n
            back = (a - b) % n
            # Minimal direction, wrap allowed; ties go +.
            return [plus] * fwd if fwd <= back else [minus] * back
        return [plus] * (b - a) if b > a else [minus] * (a - b)

    def routes(self, net: MyrinetNetwork) -> RouteTable:
        return self._dor_table(minimal=False)

    def _dor_table(self, *, minimal: bool) -> RouteTable:
        names = self.host_names()
        coords = [self.host_coords(i) for i in range(self.nhosts)]
        return {(names[s], names[d]): self._dor_route(src, dst,
                                                      minimal=minimal)
                for s, src in enumerate(coords)
                for d, dst in enumerate(coords) if s != d}

    def describe(self) -> str:
        shape = "torus" if self.torus else "mesh"
        return (f"{self.cols}x{self.rows} {shape}, "
                f"{self.hosts_per_switch} host(s)/switch "
                f"({self.nhosts} hosts), dimension-order routing")


def minimal_torus_routes(spec: MeshSpec) -> RouteTable:
    """Minimal (wrap-using) dimension-order routes on a torus.

    This is the textbook deadlock example: with >= 4 switches in a ring
    and no virtual channels, the minimal routes use every channel of the
    ring *and* continue past it, closing a cyclic channel dependency.
    :func:`check_deadlock_free` must reject this table — tests rely on
    it as the canonical "hand-built cyclic routing function".
    """
    if not spec.torus:
        raise TopologyError("minimal_torus_routes needs torus=True")
    return spec._dor_table(minimal=True)


# -- string forms ----------------------------------------------------------
_SHAPE_RE = re.compile(r"^(\d+)x(\d+)$")


def parse(text: str) -> TopologySpec:
    """Parse a compact topology string into a spec.

    Grammar: ``kind:shape[,key=value...]`` —

    ==================  ==============================================
    string              spec
    ==================  ==============================================
    ``single:8``        :class:`SingleSwitchSpec` (8 hosts, 8 ports)
    ``single:6,ports=8``  explicit crossbar size
    ``dual:8``          :class:`DualSwitchSpec` (8 hosts)
    ``fattree:4``       :class:`FatTreeSpec` k=4 (16 hosts)
    ``fattree:8,h=2``   k=8, 2 hosts per edge switch (64 hosts)
    ``mesh:4x4``        :class:`MeshSpec` 4x4, 1 host/switch
    ``mesh:8x8,h=2``    8x8, 2 hosts per switch (128 hosts)
    ``torus:4x4``       4x4 with wraparound cables
    ==================  ==============================================
    """
    head, _, rest = text.strip().partition(":")
    head = head.lower()
    if head not in SPEC_KINDS and head != "torus":
        raise TopologyError(
            f"unknown topology kind {head!r} (registered: "
            f"{', '.join(sorted(SPEC_KINDS) + ['torus'])})")
    if not rest:
        raise TopologyError(
            f"topology {text!r} needs a shape, e.g. "
            f"'single:8', 'fattree:4', 'mesh:4x4'")
    shape, *opts = rest.split(",")
    kv: dict[str, int] = {}
    for opt in opts:
        key, _, value = opt.partition("=")
        if not value or not value.isdigit():
            raise TopologyError(f"bad topology option {opt!r} in {text!r}")
        kv[key.strip()] = int(value)

    def _int_shape() -> int:
        if not shape.isdigit():
            raise TopologyError(f"bad host count {shape!r} in {text!r}")
        return int(shape)

    if head == "single":
        ports = kv.pop("ports", None)
        _reject_extra(text, kv)
        n = _int_shape()
        return SingleSwitchSpec(nhosts_=n,
                                switch_ports=ports if ports else max(8, n))
    if head == "dual":
        _reject_extra(text, kv)
        return DualSwitchSpec(nhosts_=_int_shape())
    if head == "fattree":
        h = kv.pop("h", None)
        _reject_extra(text, kv)
        return FatTreeSpec(k=_int_shape(), hosts_per_edge=h)
    # mesh / torus
    match = _SHAPE_RE.match(shape)
    if not match:
        raise TopologyError(
            f"bad mesh shape {shape!r} in {text!r} (want COLSxROWS)")
    h = kv.pop("h", 1)
    _reject_extra(text, kv)
    return MeshSpec(cols=int(match.group(1)), rows=int(match.group(2)),
                    hosts_per_switch=h, torus=head == "torus",
                    name="torus0" if head == "torus" else "mesh0")


def _reject_extra(text: str, kv: dict) -> None:
    if kv:
        raise TopologyError(
            f"unknown topology option(s) {sorted(kv)} in {text!r}")


def resolve(spec: Union[TopologySpec, str],
            nhosts: Optional[int] = None) -> TopologySpec:
    """Normalize a config's topology field into a spec.

    Accepts a :class:`TopologySpec` (returned as-is), a compact string
    (``"fattree:4"`` — see :func:`parse`), or the legacy names
    ``"single_switch"`` / ``"dual_switch"`` sized by ``nhosts``.
    """
    if isinstance(spec, TopologySpec):
        return spec
    if not isinstance(spec, str):
        raise TopologyError(f"not a topology spec or name: {spec!r}")
    if spec == "single_switch":
        return SingleSwitchSpec(nhosts_=nhosts if nhosts else 4)
    if spec == "dual_switch":
        return DualSwitchSpec(nhosts_=nhosts if nhosts else 4)
    return parse(spec)


# -- generation ------------------------------------------------------------
def build(spec: Union[TopologySpec, str], env: Environment,
          link_params: Optional[LinkParams] = None) -> MyrinetNetwork:
    """Materialize a spec into a cabled network with its route table.

    Generates the devices and cables, computes the spec's source-route
    table and installs it (which checks that it covers every ordered
    host pair) so :meth:`MyrinetNetwork.compute_route` — and therefore
    the mapping LCP — serves the topology's routing discipline.  The
    table is proven deadlock-free once, by the mapping phase that boots
    the fabric (:func:`check_deadlock_free`), not here.
    """
    spec = resolve(spec)
    net = MyrinetNetwork(env, link_params)
    spec.materialize(net)
    net.install_topology(spec, spec.routes(net))
    return net


# -- route walking + the deadlock checker ----------------------------------
def walk_route(net: MyrinetNetwork, src: str,
               route: list[int]) -> tuple[str, list[str]]:
    """Follow route bytes through the cabling graph (no simulation).

    Returns ``(terminal_device, channels)`` where ``channels`` is the
    ordered list of unidirectional link names (``"a->b"``) a worm
    holds.  Raises :class:`TopologyError` on a source that is not a
    cabled host, an uncabled port or a route that tries to forward
    through a host; :class:`~repro.hw.myrinet.switch.PortRangeError` on
    an out-of-range route byte.  The deadlock check walks every route
    of a table, so the walk reads the network's port map directly.
    """
    if src not in net.hosts:
        raise TopologyError(f"{src!r} is not a host")
    port_map, switches = net._port_map, net.switches
    uplink = port_map.get(src)
    if not uplink:
        raise TopologyError(f"host {src!r} is not cabled")
    here = next(iter(uplink.values()))
    channels = [f"{src}->{here}"]
    for byte in route:
        if here not in switches:
            raise TopologyError(
                f"route from {src} tries to forward through {here!r}, "
                "which is not a switch")
        switches[here]._check_port(byte)
        ports = port_map[here]
        if byte not in ports:
            raise TopologyError(
                f"route from {src}: switch {here!r} port {byte} is "
                "not cabled")
        there = ports[byte]
        channels.append(f"{here}->{there}")
        here = there
    return here, channels


@dataclass(frozen=True)
class DeadlockReport:
    """Result of a successful deadlock-freedom proof."""

    routes: int
    channels: int
    dependencies: int


def check_deadlock_free(net: MyrinetNetwork,
                        routes: Optional[RouteTable] = None
                        ) -> DeadlockReport:
    """Prove a routing function cycle-free over a network's channels.

    Uses the installed route table when ``routes`` is omitted.  Every
    route is walked through the real cabling and must terminate at its
    claimed destination host (a route that does not raises what
    :func:`walk_route` raises on it).  Returns a :class:`DeadlockReport`
    on success; raises :class:`RoutingDeadlockError` (carrying the
    channel cycle) when the channel dependency graph is cyclic — such a
    routing function can wedge the wormhole fabric permanently under
    contention.

    The mapping phase runs the one proof of each boot
    (:meth:`repro.vmmc.mapping_lcp.MappingPhase.run`); a fabric no
    mapping phase maps is proven by whoever builds it, or needs none.
    """
    if routes is None:
        routes = net.route_table
        if routes is None:
            raise TopologyError(
                "no route table installed and none given to check")
    # A passing proof does not depend on the walk's order; a failing one
    # (a cycle, or a lie: a TopologyError or PortRangeError) walks again
    # sorted, to name a fault whatever order the table has.
    try:
        return _prove(net, routes.items(), len(routes))
    except ValueError:
        _prove(net, sorted(routes.items()), len(routes))
        raise


def _prove(net: MyrinetNetwork, routes, nroutes: int) -> DeadlockReport:
    """:func:`check_deadlock_free` over ``routes``' pairs, in order."""
    # Channels are interned integers: a device's cabled port -> (the
    # channel leaving through it, the device it reaches); the ``"a->b"``
    # names are built only to report a cycle.
    ids: dict[tuple[str, str], int] = {}
    hops: dict[str, dict[int, tuple[int, str]]] = {}
    for device, ports in net._port_map.items():
        hops[device] = {port: (ids.setdefault((device, there), len(ids)),
                               there)
                        for port, there in ports.items()}
    uplinks = {host: next(iter(hops[host].values()))
               for host in net.hosts if hops.get(host)}
    forwarding = {name: hops[name] for name in net.switches if name in hops}
    # The channel dependency graph: channel -> the channels a worm
    # holding it requests next, both in walk order (dicts, not sets, so
    # a cycle is named the same way on every run).
    successors: list[dict[int, None]] = [{} for _ in ids]
    seen: dict[int, None] = {}
    for (src, dst), route in routes:
        if src == dst:
            continue
        hop = uplinks.get(src)
        if hop is None:
            walk_route(net, src, route)         # raises, naming the fault
        channel, here = hop
        seen[channel] = None
        for byte in route:
            ports = forwarding.get(here)
            hop = None if ports is None else ports.get(byte)
            if hop is None:
                walk_route(net, src, route)     # raises, naming the fault
            successors[channel][hop[0]] = None
            channel, here = hop
            seen[channel] = None
        if here != dst:
            raise TopologyError(
                f"route {src}->{dst} {route} terminates at {here!r}")
    dependencies = sum(len(successors[channel]) for channel in seen)
    # Kahn's algorithm: peel off the channels no worm requests while it
    # holds one not yet peeled; the relation is acyclic iff they all go.
    holders = [0] * len(ids)
    for channel in seen:
        for nxt in successors[channel]:
            holders[nxt] += 1
    ready = [channel for channel in seen if holders[channel] == 0]
    peeled = 0
    while ready:
        peeled += 1
        for channel in successors[ready.pop()]:
            holders[channel] -= 1
            if holders[channel] == 0:
                ready.append(channel)
    if peeled == len(seen):
        return DeadlockReport(routes=nroutes, channels=len(seen),
                              dependencies=dependencies)
    names = {channel: f"{a}->{b}" for (a, b), channel in ids.items()}
    chain = [names[channel] for channel in _first_cycle(
        {channel: successors[channel] for channel in seen})]
    raise RoutingDeadlockError(
        f"routing function has a channel dependency cycle of length "
        f"{len(chain) - 1}: {' -> '.join(chain)}", cycle=chain)


def _first_cycle(successors: dict[int, dict[int, None]]) -> list[int]:
    """The first cycle a depth-first search meets, roots and successors
    taken in insertion order, as a closed chain ``[c, ..., c]``.  Only
    called once Kahn's algorithm has proven a cycle exists."""
    finished: set[int] = set()
    for root in successors:
        if root in finished:
            continue
        path = [root]
        todo = [iter(successors[root])]
        while todo:
            channel = next(todo[-1], None)
            if channel is None:
                finished.add(path.pop())
                todo.pop()
            elif channel in path:
                return path[path.index(channel):] + [channel]
            elif channel not in finished:
                path.append(channel)
                todo.append(iter(successors[channel]))
    raise AssertionError("Kahn's algorithm left channels but no cycle")


# -- fabric statistics -----------------------------------------------------
@dataclass(frozen=True)
class TopologyStats:
    """Measured properties of one built fabric (README fabric table)."""

    nhosts: int
    nswitches: int
    ncables: int
    #: Longest route in the installed table, in switch hops.
    diameter_hops: int
    #: Mean route length over all ordered host pairs.
    route_hops_mean: float
    #: Min-cut (unidirectional links) between the canonical host halves —
    #: the fabric's bisection width; host-limited fabrics report n/2.
    bisection_links: int


def fabric_stats(net: MyrinetNetwork) -> TopologyStats:
    """Compute diameter / route-length / bisection stats of a built fabric.

    Bisection is an exact min-cut (max-flow, every cable = capacity 1
    each direction) between the first and second half of the hosts in
    index order — the canonical partition for every generated topology.
    """
    table = net.route_table
    if table is None:
        raise TopologyError("fabric has no installed route table")
    hosts = net.host_names
    lengths = [len(route) for route in table.values()]
    half = len(hosts) // 2
    bisection = _max_flow(net, hosts[:half], hosts[half:]) if half else 0
    return TopologyStats(
        nhosts=len(hosts),
        nswitches=len(net.switches),
        ncables=len(net.links) // 2,
        diameter_hops=max(lengths) if lengths else 0,
        route_hops_mean=(sum(lengths) / len(lengths)) if lengths else 0.0,
        bisection_links=bisection,
    )


def _max_flow(net: MyrinetNetwork, sources: list[str],
              sinks: list[str]) -> int:
    """Edge-disjoint paths from ``sources`` to ``sinks`` over the cabling,
    every cable one unit each way: breadth-first augmenting paths
    (Edmonds–Karp) on a skew-symmetric flow between device pairs."""
    targets = set(sinks)
    flow: dict[tuple[str, str], int] = {}
    paths = 0
    while True:
        parent: dict[str, Optional[str]] = dict.fromkeys(sources)
        frontier = list(sources)
        reached = None
        while frontier and reached is None:
            nxt = []
            for here in frontier:
                for there in net._port_map.get(here, {}).values():
                    if there in parent or flow.get((here, there), 0) >= 1:
                        continue
                    parent[there] = here
                    if there in targets:
                        reached = there
                        break
                    nxt.append(there)
                if reached is not None:
                    break
            frontier = nxt
        if reached is None:
            return paths
        while parent[reached] is not None:
            here = parent[reached]
            flow[here, reached] = flow.get((here, reached), 0) + 1
            flow[reached, here] = flow.get((reached, here), 0) - 1
            reached = here
        paths += 1
