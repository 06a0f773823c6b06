"""Unit tests for repro.obs.metrics: the metrics registry."""

import ast
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.microbench import VmmcPair
from repro.cluster import Cluster, TestbedConfig
from repro.obs.metrics import (
    SNAPSHOT_QUANTILES,
    UNSET,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    count,
    observe,
    quantile_key,
    registry_of,
    set_gauge,
)
from repro.sim import Environment


class _Env:
    """Bare environment stand-in; carries whatever attributes we set."""


# ---------------------------------------------------------------- primitives
def test_counter_monotonic():
    c = Counter()
    c.inc()
    c.inc(3)
    assert c.value == 4
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_tracks_high_water_mark():
    g = Gauge()
    g.set(7)
    g.set(2)
    assert g.value == 2
    assert g.max_value == 7
    assert g.snapshot() == {"value": 2, "max": 7}


def test_histogram_exact_interpolated_quantiles():
    h = Histogram()
    for v in range(1, 101):            # 1..100
        h.observe(v)
    assert h.count == 100
    assert h.sum == 5050
    # Rank interpolation over 100 samples: p50 sits between 50 and 51.
    assert h.quantile(0.5) == pytest.approx(50.5)
    assert h.quantile(0.0) == 1
    assert h.quantile(1.0) == 100
    assert h.quantile(0.99) == pytest.approx(99.01)
    snap = h.snapshot()
    assert snap["count"] == 100 and snap["min"] == 1 and snap["max"] == 100
    assert snap["p90"] == pytest.approx(h.quantile(0.9))
    # p999 is a distinct key, not a silent collision with p99.
    assert snap["p999"] == pytest.approx(h.quantile(0.999))
    assert snap["p999"] != snap["p99"]


def test_quantile_keys_unique_and_monotone_in_q():
    """Property: rendered keys are unique and ordered like their quantiles.

    `int(q * 100)` collapsed 0.999 onto "p99"; the digit-based renderer
    must keep every distinct q distinct, and parsing a key back must
    recover a value monotone in q.
    """
    qs = [0.0, 0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95,
          0.99, 0.995, 0.999, 0.9999, 1.0]
    keys = [quantile_key(q) for q in qs]
    assert len(set(keys)) == len(keys)
    # Parse "p<digits>" back to a float: digits are the decimal expansion.
    def parse(key):
        digits = key[1:]
        if digits == "100":
            return 1.0
        return int(digits) / (10 ** len(digits))
    parsed = [parse(k) for k in keys]
    assert parsed == sorted(parsed)
    for q, p in zip(qs, parsed):
        assert p == pytest.approx(q)
    # The conventional spellings.
    assert quantile_key(0.5) == "p50"
    assert quantile_key(0.9) == "p90"
    assert quantile_key(0.99) == "p99"
    assert quantile_key(0.999) == "p999"
    assert 0.999 in SNAPSHOT_QUANTILES
    with pytest.raises(ValueError):
        quantile_key(1.5)


def test_histogram_single_sample_quantiles():
    h = Histogram()
    h.observe(42)
    snap = h.snapshot()
    # Every quantile of a single sample is that sample.
    for q in SNAPSHOT_QUANTILES:
        assert snap[quantile_key(q)] == 42
    assert snap["min"] == snap["max"] == 42
    assert snap["count"] == 1 and snap["sum"] == 42


def test_histogram_duplicate_heavy_quantiles():
    h = Histogram()
    for _ in range(999):
        h.observe(7)
    h.observe(1000)                     # one outlier at the very top
    assert h.quantile(0.5) == 7
    assert h.quantile(0.99) == 7
    # p999 lands on the interpolation ramp into the outlier.
    assert h.quantile(0.999) == pytest.approx(7 + (1000 - 7) * 0.001, rel=1e-6)
    assert h.sum == 999 * 7 + 1000


def test_histogram_interleaved_observe_snapshot_invalidates_sort_cache():
    h = Histogram()
    h.observe(10)
    h.observe(20)
    assert h.snapshot()["max"] == 20    # sorts and caches
    h.observe(5)                        # out of order: must invalidate
    snap = h.snapshot()
    assert snap["min"] == 5 and snap["max"] == 20
    assert h.quantile(0.0) == 5
    h.observe(30)                       # in order after a sorted snapshot
    assert h.snapshot()["max"] == 30
    assert h.sum == 65


def test_histogram_running_sum_matches_recomputed_sum():
    h = Histogram()
    values = [3.5, -2, 0, 1e9, 17, 0.25, -0.25]
    for v in values:
        h.observe(v)
    assert h.sum == pytest.approx(sum(values))
    assert h.snapshot()["sum"] == pytest.approx(sum(h._values))


def test_histogram_edge_cases():
    h = Histogram()
    with pytest.raises(ValueError):
        h.quantile(0.5)                # empty
    h.observe(5)
    with pytest.raises(ValueError):
        h.quantile(1.5)                # outside [0, 1]
    assert h.quantile(0.5) == 5
    # Out-of-order observations are sorted lazily but correctly.
    h.observe(1)
    h.observe(3)
    assert h.quantile(0.5) == 3
    assert Histogram().snapshot() == {"count": 0, "sum": 0}


# ------------------------------------------------------------------ registry
def test_labels_give_distinct_metrics_and_sorted_rendering():
    reg = MetricsRegistry()
    reg.counter("link.bytes", link="a->b").inc(10)
    reg.counter("link.bytes", link="b->a").inc(20)
    reg.counter("plain").inc()
    snap = reg.snapshot()
    assert snap["link.bytes{link=a->b}"] == 10
    assert snap["link.bytes{link=b->a}"] == 20
    assert snap["plain"] == 1
    # Label keys render sorted regardless of kwarg order.
    reg.counter("multi", zz=1, aa=2).inc()
    assert "multi{aa=2,zz=1}" in reg.snapshot()
    assert reg.names() == ["link.bytes", "multi", "plain"]


def test_kind_conflict_rejected():
    reg = MetricsRegistry()
    reg.counter("x").inc()
    with pytest.raises(TypeError):
        reg.gauge("x")
    with pytest.raises(TypeError):
        reg.histogram("x", label="other")   # conflict is per base name


def test_snapshot_keys_are_sorted():
    reg = MetricsRegistry()
    for name in ("zeta", "alpha", "mid"):
        reg.counter(name).inc()
    assert list(reg.snapshot()) == sorted(reg.snapshot())


def test_rows_render_scalars_and_dicts():
    reg = MetricsRegistry()
    reg.counter("c").inc(2)
    reg.histogram("h").observe(1.25)
    rows = dict((k, v) for k, v in reg.rows())
    assert rows["c"] == "2"
    assert "count=1" in rows["h"] and "1.25" in rows["h"]


# ----------------------------------------------------- emitter-side helpers
def test_helpers_noop_without_registry():
    env = _Env()
    # Must not raise, must not create anything.
    count(env, "a")
    set_gauge(env, "b", 1)
    observe(env, "c", 2)
    assert registry_of(env) is None


def test_helpers_record_with_registry_installed():
    env = _Env()
    reg = MetricsRegistry().install(env)
    assert env.metrics is reg and registry_of(env) is reg
    count(env, "a", 2, tag="t")
    set_gauge(env, "b", 9)
    observe(env, "c", 4)
    snap = reg.snapshot()
    assert snap["a{tag=t}"] == 2
    assert snap["b"]["max"] == 9
    assert snap["c"]["count"] == 1
    assert len(reg) == 3


# -------------------------------------------------------------- determinism
def test_snapshot_identical_across_two_seeded_runs():
    """The acceptance criterion: same seed, bit-identical snapshot."""
    from repro.obs.breakdown import measure_stage_breakdown

    snaps = []
    for _ in range(2):
        registry = MetricsRegistry()
        measure_stage_breakdown(4, registry=registry)
        snaps.append(registry.snapshot())
    assert snaps[0]  # a traced send records real metrics
    assert snaps[0] == snaps[1]


# ---------------------------------------------------- object-owned statistics
class _Owner:
    """An object owning one series per distinct ``(name, labels)`` of
    the ops it records, each in the idiom of the simulator's objects: a
    ``c.*`` counter as ``[total, records]`` (its increments may be 0), an
    ``n.*`` counter as a plain total (its increments are 1), a gauge as
    a :class:`Gauge` set in place, a histogram as a sample list.
    Counters count with or without a registry; gauges and histograms
    only while one is installed.  Its collector yields every series it
    has ever made, recorded into or not."""

    def __init__(self, env):
        self.env = env
        self.series = {}
        env.collectors.append(self._collect)

    def record(self, op):
        name, items, value = op
        # a series is its rendered labels: 0 and False are two
        key = (name, tuple(sorted((k, str(v)) for k, v in items)))
        state = self.series.get(key)
        if state is None:
            state = self.series[key] = {
                "c": lambda: [0, 0], "n": lambda: [0],
                "g": lambda: Gauge(UNSET), "h": list}[name[0]]()
        if name[0] == "c":
            state[0] += value
            state[1] += 1
        elif name[0] == "n":
            state[0] += 1
        elif self.env.metrics is not None:
            if name[0] == "g":
                state.value = value
                if value > state.max_value:
                    state.max_value = value
            else:
                state.append(value)

    def _collect(self):
        for (name, items), state in self.series.items():
            labels = dict(items)
            if name[0] == "c":
                yield "counter", name, labels, tuple(state)
            elif name[0] == "n":
                yield "counter", name, labels, state[0]
            else:
                yield ("gauge" if name[0] == "g" else "histogram", name,
                       labels, state)


#: name prefix -> the per-call helper that records it.
_HELPERS_BY_KIND = {"c": count, "n": count, "g": set_gauge, "h": observe}
_NAMES = ("c.a", "c.b", "n.a", "g.a", "h.a", "h.b")


def _help(env, op):
    name, items, value = op
    if name[0] == "n":
        value = 1
    # the helper gets the labels in the opposite keyword order
    _HELPERS_BY_KIND[name[0]](env, name, value, **dict(reversed(items)))


_label_items = st.lists(
    st.tuples(st.sampled_from(("node", "kind", "link", "short")),
              st.one_of(st.integers(0, 3), st.sampled_from(("a", "b")),
                        st.booleans())),
    max_size=3, unique_by=lambda item: item[0])
_ops = st.lists(st.tuples(st.sampled_from(_NAMES), _label_items,
                          st.integers(0, 1000)),
                min_size=1, max_size=40)


@settings(max_examples=60, deadline=None)
@given(_ops, st.data())
def test_owned_statistics_record_exactly_what_the_helpers_record(ops, data):
    """An object built before any registry exists, recording through two
    registries in turn, gives the snapshots the helpers give; the first
    registry keeps its view once replaced."""
    first, second, peek = sorted(data.draw(
        st.lists(st.integers(0, len(ops)), min_size=3, max_size=3)))
    env_o, env_p = Environment(), Environment()
    owner = _Owner(env_o)

    for op in ops[:first]:
        owner.record(op)             # no registry: kept, not reported
        _help(env_p, op)
    assert env_o.metrics is None and env_p.metrics is None

    reg_o1, reg_p1 = MetricsRegistry().install(env_o), \
        MetricsRegistry().install(env_p)
    for i, op in enumerate(ops[first:second], first):
        if i == peek:                # a snapshot mid-way changes nothing
            assert reg_o1.snapshot() == reg_p1.snapshot()
        owner.record(op)
        _help(env_p, op)
    assert reg_o1.snapshot() == reg_p1.snapshot()
    assert len(reg_o1) == len({(op[0], tuple(sorted(
        (k, str(v)) for k, v in op[1]))) for op in ops[first:second]})
    frozen = reg_o1.snapshot()

    reg_o2, reg_p2 = MetricsRegistry().install(env_o), \
        MetricsRegistry().install(env_p)
    for op in ops[second:]:
        owner.record(op)
        _help(env_p, op)
    assert reg_o2.snapshot() == reg_p2.snapshot()
    assert reg_o1.snapshot() == frozen   # later records land only in it


def test_a_kind_conflict_with_an_owned_series_raises():
    # The owned counter is read at the snapshot, after the gauge...
    env = Environment()
    registry = MetricsRegistry().install(env)
    _Owner(env).record(("n.a", [("node", 0)], 1))
    registry.gauge("n.a").set(1)
    with pytest.raises(TypeError):
        registry.snapshot()
    # ... or read first, and then the helper meets it.
    env = Environment()
    registry = MetricsRegistry().install(env)
    _Owner(env).record(("n.a", [("node", 0)], 1))
    assert registry.snapshot() == {"n.a{node=0}": 1}
    with pytest.raises(TypeError):
        set_gauge(env, "n.a", 2, node=0)


def test_a_registry_stuck_on_a_kind_conflict_still_comes_off():
    # Its last read raises inside the install that replaces it: the
    # error surfaces once, the registry is off the environment anyway,
    # and the next install (or an uninstall) succeeds.
    env = Environment()
    stuck = MetricsRegistry().install(env)
    owner = _Owner(env)
    owner.record(("n.a", [("node", 0)], 1))
    stuck.gauge("n.a").set(1)
    with pytest.raises(TypeError):
        MetricsRegistry().install(env)
    assert env.metrics is None
    stuck.uninstall()
    fresh = MetricsRegistry().install(env)
    assert env.metrics is fresh
    owner.record(("n.a", [("node", 0)], 1))
    assert fresh.snapshot() == {"n.a{node=0}": 1}
    fresh.uninstall()
    assert env.metrics is None

    stuck = MetricsRegistry().install(env)
    owner.record(("n.a", [("node", 0)], 1))
    stuck.gauge("n.a").set(1)
    with pytest.raises(TypeError):
        stuck.uninstall()
    assert env.metrics is None
    assert MetricsRegistry().install(env) is env.metrics


def test_a_registry_installed_after_build_holds_no_boot_record():
    """Booting a fat tree (mapping probes through every switch) with no
    registry leaves nothing for a registry installed afterwards; the
    next send is all it holds."""
    cluster = Cluster.build(TestbedConfig(memory_mb=8),
                            topology="fattree:4,h=2")
    env = cluster.env
    assert cluster.mapping.probes_sent == 16 * 15
    registry = MetricsRegistry().install(env)
    assert registry.snapshot() == {}
    _, ep_a = cluster.nodes[0].attach_process("a")
    _, ep_b = cluster.nodes[1].attach_process("b")
    src = ep_a.alloc_buffer(4096)
    dst = ep_b.alloc_buffer(4096)
    env.run(until=ep_b.export(dst, "dst"))
    imported = env.run(until=ep_a.import_buffer("node1", "dst"))
    env.run(until=ep_a.send(src, imported, 4096))
    env.run()
    snap = registry.snapshot()
    assert snap["lcp.packets_delivered{lcp=node1.lcp}"] == 1
    # one hop through the leaf switch the two hosts share
    assert sum(v for k, v in snap.items()
               if k.startswith("switch.forwarded")) == 1
    # Uninstalled, it keeps that view and lets go of the environment.
    registry.uninstall()
    assert env.metrics is None
    env.run(until=ep_a.send(src, imported, 4096))
    env.run()
    assert registry.snapshot() == snap


def test_no_registry_or_collector_call_without_a_registry():
    """With no registry installed, a hot module neither records through
    :mod:`repro.obs.metrics` nor has its collector read: counted over
    one 64 KB one-way message and one ``fattree:4,h=2`` boot.  (Building
    an owned :class:`Gauge` is the one call there, at construction.)"""
    metrics_file = Path(__file__).resolve().parents[1] / "src" / "repro" \
        / "obs" / "metrics.py"
    calls = []
    collectors = set()

    def profile(frame, event, _arg):
        code = frame.f_code
        if event == "call" and (
                code in collectors or (code.co_filename == str(metrics_file)
                                       and code.co_name != "__init__")):
            calls.append(code.co_qualname)

    def run(work, env_of):
        sys.setprofile(profile)
        try:
            result = work()
        finally:
            sys.setprofile(None)
        collectors.update(c.__code__ for c in env_of(result).collectors)
        return result

    pair = run(lambda: VmmcPair(TestbedConfig(nnodes=2, memory_mb=32),
                                buffer_bytes=64 * 1024), lambda p: p.env)
    env = pair.env
    assert env.metrics is None and len(env.collectors) > 10
    calls.clear()
    run(lambda: env.run(until=pair.ep_a.send(pair.src_a, pair.to_b,
                                             64 * 1024)), lambda _: env)
    run(env.run, lambda _: env)
    assert pair.cluster.nodes[1].lcp.packets_delivered >= 16
    assert calls == []

    cluster = run(lambda: Cluster.build(TestbedConfig(memory_mb=8),
                                        topology="fattree:4,h=2"),
                  lambda c: c.env)
    assert cluster.env.metrics is None
    assert cluster.mapping.probes_sent == 16 * 15
    assert calls == []


#: Modules on the per-packet and per-request path: their objects own
#: their statistics, and they never call the per-call helpers, which
#: sort and render their labels on every record.
HOT_MODULES = (
    "hw/bus/pci.py", "hw/bus/eisa.py", "hw/lanai/dma.py",
    "hw/myrinet/link.py", "hw/myrinet/switch.py",
    "vmmc/lcp.py", "vmmc/api.py", "vmmc/reliable.py", "dsm/node.py",
)
_HELPERS = {"count", "observe", "set_gauge"}


@pytest.mark.parametrize("module", HOT_MODULES)
def test_hot_path_modules_record_through_handles(module):
    """(The name is historical: the "handles" are now the objects' own
    statistics.)"""
    source = Path(__file__).resolve().parents[1] / "src" / "repro" / module
    tree = ast.parse(source.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and \
                node.module == "repro.obs.metrics":
            assert not _HELPERS & {a.name for a in node.names}, \
                f"{module} imports a per-call helper"
        if isinstance(node, ast.Import):
            assert "repro.obs.metrics" not in {a.name for a in node.names}
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            assert node.func.id not in _HELPERS, \
                f"{module}:{node.lineno} calls {node.func.id}()"


#: Modules whose trace points fire per packet or per request: the
#: hot modules plus the NIC and the fabric's host ports.
TRACED_MODULES = HOT_MODULES + ("hw/lanai/nic.py",
                                   "hw/myrinet/network.py")


def _tracer_guarded(test: ast.expr) -> str | None:
    """The environment ``test`` is ``<env>.tracer is not None`` of (as
    an AST dump), else None."""
    if (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.ops[0], ast.IsNot)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
            and isinstance(test.left, ast.Attribute)
            and test.left.attr == "tracer"):
        return ast.dump(test.left.value)
    return None


def unguarded_emits(tree: ast.AST) -> list[int]:
    """Lines of the ``emit(env, ...)`` calls not inside the body of an
    ``if env.tracer is not None`` on the same ``env`` expression.  A
    guard does not reach into a function defined under it."""
    found = []

    def visit(node, guards):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            guards = frozenset()
        if isinstance(node, ast.If):
            guard = _tracer_guarded(node.test)
            inside = guards | {guard} if guard else guards
            for child in node.body:
                visit(child, inside)
            for child in (node.test, *node.orelse):
                visit(child, guards)
            return
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "emit"
                and (not node.args or ast.dump(node.args[0]) not in guards)):
            found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, guards)

    visit(tree, frozenset())
    return found


@pytest.mark.parametrize("module", TRACED_MODULES)
def test_hot_path_trace_points_cost_nothing_untraced(module):
    """Each ``emit`` in a hot module is reached only when a tracer is
    installed, so an untraced run builds no category string and no
    payload dict for it."""
    source = Path(__file__).resolve().parents[1] / "src" / "repro" / module
    lines = unguarded_emits(ast.parse(source.read_text()))
    assert lines == [], (
        f"{module}: emit() outside `if <env>.tracer is not None` at "
        f"line(s) {lines}")


def test_unguarded_emit_finder():
    guarded = ("def f(self, env):\n"
               "    if env.tracer is not None:\n"
               "        emit(env, 'a')\n"
               "    if self.env.tracer is not None:\n"
               "        emit(self.env, 'b')\n")
    assert unguarded_emits(ast.parse(guarded)) == []
    for source, line in [
            ("emit(env, 'a')\n", 1),
            ("if env.tracer is not None:\n    pass\nelse:\n"
             "    emit(env, 'a')\n", 4),
            ("if env.tracer is None:\n    emit(env, 'a')\n", 2),
            ("if other.tracer is not None:\n    emit(env, 'a')\n", 2),
            ("if env.tracer is not None:\n    def later():\n"
             "        emit(env, 'a')\n", 3)]:
        assert unguarded_emits(ast.parse(source)) == [line], source
