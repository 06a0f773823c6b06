"""Unit tests for repro.obs.metrics: the metrics registry."""

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.microbench import VmmcPair
from repro.cluster import Cluster, TestbedConfig
from repro.obs.metrics import (
    SNAPSHOT_QUANTILES,
    Counter,
    CounterHandle,
    Gauge,
    GaugeHandle,
    Histogram,
    HistogramHandle,
    MetricsRegistry,
    count,
    counter,
    gauge,
    histogram,
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


# ------------------------------------------------------------ bound handles
#: kind -> (handle factory, helper, handle method); a name's first
#: letter fixes its kind, so a generated sequence never conflicts.
_KINDS = {
    "c": (counter, count, "inc"),
    "g": (gauge, set_gauge, "set"),
    "h": (histogram, observe, "observe"),
}
_NAMES = ("c.a", "c.b", "g.a", "h.a", "h.b")


def _handle_for(env, op):
    name, items, _value = op
    return _KINDS[name[0]][0](env, name, **dict(items))


def _record(handle, op):
    name, _items, value = op
    getattr(handle, _KINDS[name[0]][2])(value)


def _help(env, op):
    name, items, value = op
    # the helper gets the labels in the opposite keyword order
    _KINDS[name[0]][1](env, name, value, **dict(reversed(items)))


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
def test_handles_record_exactly_what_the_helpers_record(ops, data):
    """Handles made before any registry exists, recording into two
    registries in turn, give the snapshots the helpers give."""
    first, second = sorted(data.draw(
        st.lists(st.integers(0, len(ops)), min_size=2, max_size=2)))
    env_h, env_p = Environment(), Environment()
    handles = [_handle_for(env_h, op) for op in ops]

    for handle, op in zip(handles[:first], ops[:first]):
        _record(handle, op)          # no registry: creates, raises nothing
        _help(env_p, op)
    assert env_h.metrics is None and env_p.metrics is None

    reg_h1, reg_p1 = MetricsRegistry().install(env_h), \
        MetricsRegistry().install(env_p)
    for handle, op in zip(handles[first:second], ops[first:second]):
        _record(handle, op)
        _help(env_p, op)
    assert reg_h1.snapshot() == reg_p1.snapshot()
    assert len(reg_h1) == len({(op[0], tuple(sorted(
        (k, str(v)) for k, v in op[1]))) for op in ops[first:second]})
    frozen = reg_h1.snapshot()

    reg_h2, reg_p2 = MetricsRegistry().install(env_h), \
        MetricsRegistry().install(env_p)
    for handle, op in zip(handles[second:], ops[second:]):
        _record(handle, op)
        _help(env_p, op)
    assert reg_h2.snapshot() == reg_p2.snapshot()
    assert reg_h1.snapshot() == frozen   # later records land only in it

    # A handle of another kind binds quietly and raises at its first
    # record into a registry that already knows the name.
    name, items, value = ops[-1]
    if ops[second:]:
        other = next(k for k in _KINDS if k != name[0])
        handle = _KINDS[other][0](env_h, name, **dict(items))
        with pytest.raises(TypeError):
            getattr(handle, _KINDS[other][2])(value)


def test_handle_kind_conflict_raises_at_first_record_not_at_bind():
    env = Environment()
    registry = MetricsRegistry().install(env)
    registry.gauge("x").set(1)
    handle = counter(env, "x", node=0)       # binding checks nothing
    with pytest.raises(TypeError):
        handle.inc()
    assert registry.snapshot() == {"x": {"value": 1, "max": 1}}


#: Modules on the per-packet and per-request path: they record through
#: handles made at construction, never through the per-call helpers,
#: which sort and render their labels on every record.
HANDLE_MODULES = (
    "hw/bus/pci.py", "hw/bus/eisa.py", "hw/lanai/dma.py",
    "hw/myrinet/link.py", "hw/myrinet/switch.py",
    "vmmc/lcp.py", "vmmc/api.py", "vmmc/reliable.py", "dsm/node.py",
)
_HELPERS = {"count", "observe", "set_gauge"}


@pytest.mark.parametrize("module", HANDLE_MODULES)
def test_hot_path_modules_record_through_handles(module):
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



def test_no_handle_is_called_without_a_registry(monkeypatch):
    """With no registry installed a hot module does not call its
    handles at all: each site tests ``env.metrics`` first.  Counted over
    one 64 KB one-way message and one ``fattree:4,h=2`` boot."""
    calls = []
    for cls, method in ((CounterHandle, "inc"), (GaugeHandle, "set"),
                        (HistogramHandle, "observe")):
        def record(self, *args, _name=f"{cls.__name__}.{method}"):
            calls.append((_name, self._name))
        monkeypatch.setattr(cls, method, record)

    pair = VmmcPair(TestbedConfig(nnodes=2, memory_mb=32),
                    buffer_bytes=64 * 1024)
    env = pair.env
    assert env.metrics is None
    calls.clear()
    env.run(until=pair.ep_a.send(pair.src_a, pair.to_b, 64 * 1024))
    env.run()
    assert pair.cluster.nodes[1].lcp.packets_delivered >= 16
    assert calls == []

    cluster = Cluster.build(TestbedConfig(memory_mb=8),
                            topology="fattree:4,h=2")
    assert cluster.env.metrics is None
    assert cluster.mapping.probes_sent == 16 * 15
    assert calls == []


#: Modules whose trace points fire per packet or per request: the
#: handle modules plus the NIC and the fabric's host ports.
TRACED_MODULES = HANDLE_MODULES + ("hw/lanai/nic.py",
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
