"""Spans, call counts and object capture, all applied from outside ``src/``.

The traced run wraps *synchronous* public calls of the simulator in
spans (name, start, end, parent, unit id), counts calls on two hot
``mem`` methods and on the registry's record path, times the garbage
collector's passes, and remembers the
objects a unit creates (registries, environments, reliable senders,
clusters) so their public counters can be read afterwards.  Nothing in
``src/`` is edited: every wrapper is a monkeypatch installed by
:class:`Patches` and removed again by its ``undo``.

Generator-based layer code (``lcp``, ``link``, ``dma``, ``reliable``)
cannot be wall-timed this way — a generator's body runs inside
``Environment.run`` — so the ``sim.run`` span's self-time is the honest
upper bound for all of it.
"""

from __future__ import annotations

import functools
import gc
import time
from collections import Counter
from contextlib import contextmanager


# -- spans -------------------------------------------------------------------
class Recorder:
    """In-memory span list; a span is ``[name, start, end, parent, unit]``.

    ``parent`` is the index of the enclosing span (``None`` for a root);
    ``unit`` is whatever :attr:`unit` was when the span opened.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.unit = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter(), None, parent, self.unit]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its child spans cover.

    Children are clipped to the parent's interval (a child that outlives
    its parent only discounts the overlap) and overlapping siblings are
    merged, so a self-time is never negative and the self-times of a
    well-nested tree sum to its root's duration.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _name, start, end, parent, _unit in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_name, start, end, _parent, _unit) in enumerate(spans):
        covered = 0.0
        cursor = start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def roots(spans: list[list]) -> list[int]:
    """For each span, the index of the root span it sits under."""
    out: list[int] = []
    for index, (_name, _start, _end, parent, _unit) in enumerate(spans):
        out.append(index if parent is None else out[parent])
    return out


def self_time_by_name(spans: list[list],
                      root: str | None = None) -> dict[str, float]:
    """Summed self-time per span name; with ``root``, only of spans that
    sit under (or are) a root span of that name."""
    totals: dict[str, float] = {}
    for (name, *_), own, top in zip(spans, self_times(spans), roots(spans)):
        if root is None or spans[top][0] == root:
            totals[name] = totals.get(name, 0.0) + own
    return totals


def spans_as_json(spans: list[list]) -> list[dict]:
    """The trace-file form of a span list (see README, 'trace file')."""
    return [
        {"id": i, "name": name, "start_s": start, "end_s": end,
         "parent": parent, "unit": unit, "self_s": own}
        for i, ((name, start, end, parent, unit), own)
        in enumerate(zip(spans, self_times(spans)))]


# -- monkeypatching ----------------------------------------------------------
class Patches:
    """Attribute replacements that can be rolled back."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []
        self._cleanups: list = []

    def set(self, owner, attr: str, new) -> None:
        # vars() keeps classmethod/staticmethod objects intact for undo.
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def undo(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)
        while self._cleanups:
            self._cleanups.pop()()

    def defer(self, cleanup) -> None:
        """Run ``cleanup()`` at :meth:`undo`."""
        self._cleanups.append(cleanup)


class Capture:
    """What one unit created or called; reset between units."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.registries: list = []
        self.envs: list = []
        self.senders: list = []
        self.clusters: list = []
        self.boot_events = 0
        self.calls: Counter = Counter()


def capture_registries(patches: Patches, capture: Capture) -> None:
    """Remember every registry a trial installs.

    ``run_kv_trial`` and ``run_dsm_trial`` build their registry inside
    the call and do not return it; this one-call-per-trial wrapper is
    how the benchmark reads their histograms, traced or not.
    """
    from repro.obs.metrics import MetricsRegistry

    original = MetricsRegistry.install

    @functools.wraps(original)
    def install(self, env):
        capture.registries.append(self)
        return original(self, env)

    patches.set(MetricsRegistry, "install", install)


def _spanned(fn, name: str, recorder: Recorder):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name):
            return fn(*args, **kwargs)
    return wrapper


def _counted(fn, key: str, capture: Capture):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        capture.calls[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def install_tracing(patches: Patches, recorder: Recorder,
                    capture: Capture) -> None:
    """Install every span, count and capture wrapper of the traced run."""
    import repro.dsm.bench as dsm_bench
    import repro.kv.bench as kv_bench
    import repro.vmmc.mapping_lcp as mapping_lcp
    from repro.cluster import Cluster
    from repro.hw.myrinet import topology
    from repro.mem.physical import PhysicalMemory
    from repro.mem.virtual import AddressSpace
    from repro.obs.metrics import MetricsRegistry
    from repro.sim import Environment, VectorEnvironment
    from repro.vmmc.reliable import ReliableSender

    # cluster: build injects a registry-carrying environment where the
    # caller supplied none, so boot and registry-less workloads
    # (fabric-boot, fig3-stream) are counted too.
    build = vars(Cluster)["build"].__func__

    @functools.wraps(build)
    def traced_build(cls, config=None, env=None, topology=None,
                     engine=None):
        if env is None:
            env = Environment(engine=engine)
            MetricsRegistry().install(env)
        with recorder.span("cluster.build"):
            cluster = build(cls, config, env, topology, engine)
        capture.clusters.append(cluster)
        capture.boot_events += env.events_processed
        return cluster

    patches.set(Cluster, "build", classmethod(traced_build))
    patches.set(Cluster, "boot",
                _spanned(Cluster.boot, "cluster.boot", recorder))
    patches.set(topology, "build",
                _spanned(topology.build, "hw.myrinet.topology_build",
                         recorder))
    # Called by name from inside the mapping generator, i.e. under a
    # sim.run span; wrapping it keeps that span's self-time honest.
    patches.set(mapping_lcp, "check_deadlock_free",
                _spanned(mapping_lcp.check_deadlock_free,
                         "hw.myrinet.deadlock_check", recorder))
    patches.set(PhysicalMemory, "__init__",
                _spanned(PhysicalMemory.__init__, "mem.physical_init",
                         recorder))

    # sim: every Environment.run, on whichever engine class defines it.
    for cls in (Environment, VectorEnvironment):
        if "run" not in vars(cls):
            continue
        run = vars(cls)["run"]

        def traced_run(self, until=None, _run=run):
            if not any(self is env for env in capture.envs):
                capture.envs.append(self)
            with recorder.span("sim.run"):
                return _run(self, until)

        patches.set(cls, "run", functools.wraps(run)(traced_run))

    # Host work outside the event loop; the benches import these by name.
    for name in ("generate_schedule", "read_your_writes_oracle"):
        patches.set(kv_bench, name,
                    _spanned(getattr(kv_bench, name), "kv.workload_gen",
                             recorder))
    patches.set(dsm_bench, "check_sequential_consistency",
                _spanned(dsm_bench.check_sequential_consistency,
                         "dsm.checker", recorder))
    patches.set(MetricsRegistry, "snapshot",
                _spanned(MetricsRegistry.snapshot, "obs.snapshot",
                         recorder))

    # Call counts: two hot mem methods, and every registry record
    # (count/set_gauge/observe each resolve their metric through one of
    # these three factories; a snapshot cannot tell how often).
    patches.set(AddressSpace, "translate",
                _counted(AddressSpace.translate, "mem.translate", capture))
    patches.set(PhysicalMemory, "notify_write",
                _counted(PhysicalMemory.notify_write, "mem.notify_write",
                         capture))
    for factory in ("counter", "gauge", "histogram"):
        patches.set(MetricsRegistry, factory,
                    _counted(getattr(MetricsRegistry, factory),
                             "obs.records", capture))

    # The collector runs synchronously inside whatever triggered it, so
    # its passes nest as child spans and leave the parent's self-time.
    collecting = []

    def on_gc(phase: str, _info: dict) -> None:
        if phase == "start":
            collecting.append(recorder.span("host.gc"))
            collecting[-1].__enter__()
        elif collecting:
            collecting.pop().__exit__(None, None, None)

    gc.callbacks.append(on_gc)
    patches.defer(lambda: gc.callbacks.remove(on_gc))

    # reliable: sender stats (paced_ns has no registry series).
    init = ReliableSender.__init__

    @functools.wraps(init)
    def traced_init(self, *args, **kwargs):
        capture.senders.append(self)
        return init(self, *args, **kwargs)

    patches.set(ReliableSender, "__init__", traced_init)
