"""Metrics registry: counters, gauges and histograms for the simulator.

The registry is the quantitative half of the observability layer (the
qualitative half is :mod:`repro.sim.trace`).  Modules record into
whichever registry is installed on their environment (``env.metrics``,
``None`` when there is none) in one of two ways:

* **Object-owned statistics** — every object on the per-packet and
  per-request path (buses, host DMA, links, switches, the LCP, the VMMC
  endpoint, the reliable channel, DSM, the KV driver) owns its
  statistics, as the LCP in the paper owns the words it bumps: a counter
  is an ``int`` attribute, a gauge a :class:`Gauge` of its own (its
  ``max_value`` starts at :data:`UNSET`), a histogram a sample list, so
  a record never calls the registry.  Each such object appends one
  *collector* to ``env.collectors`` when it is built, yielding
  ``(kind, name, labels, value)`` per series; a counter's value is its
  total, or ``(total, records)`` where an increment may be 0.  The
  installed registry reads the collectors at each snapshot: a series
  exists once something was recorded into it (a 0 increment counts).
  What only the registry wants is updated under ``if env.metrics is
  not None:``, so a run with no registry makes no metrics call.
* **Helpers** — :func:`count`, :func:`set_gauge` and :func:`observe`
  resolve the metric on every call, for cold control paths (daemon,
  driver, kernel, Ethernet, the fault injector) and rare request data
  (``kv.failures{shard}``).

A registry may be installed at any time and holds exactly what was
recorded while it was installed: :meth:`~MetricsRegistry.install`
uninstalls the registry it replaces (which reads the collectors one last
time and keeps that view), then rebases them (counter totals become
baselines, gauge maxima go back to :data:`UNSET`, sample lists are
emptied).  The KV and DSM trials uninstall theirs when they end.

Design points:

* **Labels.**  A metric is identified by a base name plus a sorted label
  set (``link.bytes{link=node0->sw0}``), so per-instance detail (per link,
  per LCP, per channel) never requires inventing new metric names.
* **Determinism.**  Snapshots are plain sorted dicts of ints/floats; the
  simulator is deterministic, so two runs with the same seed produce
  *identical* snapshots — asserted by the test suite and usable as a
  regression oracle.
* **Histograms** keep every observation (simulated runs are small) and
  report exact rank-interpolated quantiles, giving the latency
  p50/p90/p99/p999 the ROADMAP's congestion-backoff tuning and the KV
  serving tier's tail reports need.

Usage::

    registry = MetricsRegistry().install(env)   # env.metrics = registry
    ... run the simulation ...
    snap = registry.snapshot()                  # reads every collector
    snap["link.bytes{link=node0->sw0}"]          # -> int
    snap["vmmc.send.sync_ns{node=node0}"]["p90"]  # -> float
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "UNSET",
    "count",
    "set_gauge",
    "observe",
    "quantile_key",
    "registry_of",
]

#: Quantiles reported in histogram snapshots.
SNAPSHOT_QUANTILES = (0.5, 0.9, 0.99, 0.999)

#: An owned :class:`Gauge`'s ``max_value`` while unset since a read.
UNSET = float("-inf")


def quantile_key(q: float) -> str:
    """Render a quantile as a snapshot key: 0.5→p50, 0.99→p99, 0.999→p999.

    The key is built from the decimal digits of ``q`` (not ``int(q*100)``,
    which collapsed 0.999 onto p99), so distinct quantiles always get
    distinct keys and lexicographically longer keys are deeper tails.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    if q == 1.0:
        return "p100"
    digits = f"{q:.12f}"[2:].rstrip("0") or "0"
    # pad so p5 renders as the conventional p50 (and p9 as p90)
    return "p" + digits.ljust(2, "0")


class Counter:
    """A monotonically increasing integer/float total."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, n: float = 1) -> None:
        if n < 0:
            raise ValueError(f"counter increment must be >= 0, got {n}")
        self.value += n

    def snapshot(self) -> float:
        return self.value


class Gauge:
    """A point-in-time value; the high-water mark is tracked alongside
    (from :data:`UNSET` in a gauge an object owns)."""

    __slots__ = ("value", "max_value")

    def __init__(self, max_value: float = 0) -> None:
        self.value: float = 0
        self.max_value: float = max_value

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max_value:
            self.max_value = value

    def snapshot(self) -> dict[str, float]:
        return {"value": self.value, "max": self.max_value}


class Histogram:
    """All observed samples, with exact interpolated quantiles.

    Simulated runs produce at most a few thousand observations per metric,
    so keeping the raw samples is cheap and makes the quantiles exact and
    deterministic (no probabilistic sketches).
    """

    __slots__ = ("_values", "_sorted", "_sum")

    def __init__(self) -> None:
        self._values: list[float] = []
        self._sorted = True
        self._sum: float = 0

    def observe(self, value: float) -> None:
        if self._values and value < self._values[-1]:
            self._sorted = False
        self._values.append(value)
        self._sum += value

    def extend(self, values: list[int]) -> None:
        """:meth:`observe` each of ``values`` (integers: in one sum)."""
        self._values += values
        self._sum += sum(values)
        self._sorted = False

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def sum(self) -> float:
        # Maintained incrementally in observe(); recomputing over a
        # million-sample KV histogram made every snapshot O(n).
        return self._sum

    def _ensure_sorted(self) -> list[float]:
        if not self._sorted:
            self._values.sort()
            self._sorted = True
        return self._values

    def quantile(self, q: float) -> float:
        """Rank-interpolated quantile of the observed samples."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        values = self._ensure_sorted()
        if not values:
            raise ValueError("quantile of an empty histogram")
        pos = q * (len(values) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(values) - 1)
        frac = pos - lo
        return values[lo] * (1 - frac) + values[hi] * frac

    def snapshot(self) -> dict[str, float]:
        if not self._values:
            return {"count": 0, "sum": 0}
        values = self._ensure_sorted()
        snap: dict[str, float] = {
            "count": len(values),
            "sum": self._sum,
            "min": values[0],
            "max": values[-1],
        }
        for q in SNAPSHOT_QUANTILES:
            snap[quantile_key(q)] = self.quantile(q)
        return snap


def _key(name: str, labels: dict[str, Any]) -> tuple[str, tuple]:
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render(name: str, labels: tuple) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Holds every metric of one simulated run.

    One registry per :class:`~repro.sim.core.Environment`; install it with
    :meth:`install` and every instrumented module starts recording.
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, tuple], Any] = {}
        self._kinds: dict[str, type] = {}
        #: The environment it is installed on, whose collectors it reads.
        self._env: Any = None
        #: (collector index, series key) -> (total, records) at last read.
        self._base: dict[tuple[int, tuple], tuple] = {}

    # -- metric factories -----------------------------------------------------
    def _series(self, cls: type, name: str, key: tuple[str, tuple]):
        seen = self._kinds.setdefault(name, cls)
        if seen is not cls:
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{seen.__name__}, cannot reuse it as {cls.__name__}")
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls()
            self._metrics[key] = metric
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._series(Counter, name, _key(name, labels))

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._series(Gauge, name, _key(name, labels))

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._series(Histogram, name, _key(name, labels))

    # -- wiring ---------------------------------------------------------------
    def install(self, env: Any) -> "MetricsRegistry":
        """Attach this registry to an environment (``env.metrics``),
        uninstalling the one it replaces (see the module docstring)."""
        previous = getattr(env, "metrics", None)
        if previous is not None:
            previous.uninstall()
        self._env = env
        self._read(keep=False)
        env.metrics = self
        return self

    def uninstall(self) -> None:
        """Read the collectors one last time and detach from the
        environment (``env.metrics`` back to None), keeping that view;
        an installed registry keeps its whole simulation alive.  It
        detaches even when that read raises (a kind conflict), so the
        error is raised once and the next :meth:`install` succeeds."""
        env = self._env
        if env is not None:
            try:
                self._read(keep=True)
            finally:
                env.metrics = None
                self._env = None

    def _read(self, keep: bool) -> None:
        """Read the collectors of the environment it is installed on
        into its series (``keep``), or just rebase them."""
        base = self._base
        for index, collector in enumerate(
                getattr(self._env, "collectors", ())):
            for kind, name, labels, value in collector():
                key = _key(name, labels)
                if kind == "counter":
                    total, records = (value if type(value) is tuple
                                      else (value, value))
                    was = base.get((index, key), (0, 0))
                    if records != was[1]:
                        if keep:
                            self._series(Counter, name, key).value += \
                                total - was[0]
                        base[index, key] = (total, records)
                elif kind == "gauge":
                    if value.max_value != UNSET:
                        if keep:     # its high-water mark, then its value
                            gauge = self._series(Gauge, name, key)
                            gauge.set(value.max_value)
                            gauge.set(value.value)
                        value.max_value = UNSET
                elif value:
                    if keep:
                        self._series(Histogram, name, key).extend(value)
                    value.clear()

    # -- introspection --------------------------------------------------------
    def __len__(self) -> int:
        self._read(keep=True)
        return len(self._metrics)

    def names(self) -> list[str]:
        """Sorted base metric names (label sets collapsed)."""
        self._read(keep=True)
        return sorted({name for name, _ in self._metrics})

    def snapshot(self) -> dict[str, Any]:
        """Flat, deterministic view: ``name{labels}`` → value/dict.

        Reads the collectors first (:meth:`collect`).  Counters render
        as numbers, gauges as ``{value, max}`` dicts, histograms as
        ``{count, sum, min, max, p50, p90, p99, p999}`` dicts.
        Keys are sorted, so two identically seeded runs produce *equal*
        snapshots (`==` on the dicts).
        """
        self._read(keep=True)
        out: dict[str, Any] = {}
        for (name, labels), metric in sorted(self._metrics.items()):
            out[_render(name, labels)] = metric.snapshot()
        return out

    def rows(self) -> list[list[Any]]:
        """Table rows ``[metric, value]`` for the CLI's table renderer."""
        rows: list[list[Any]] = []
        for key, value in self.snapshot().items():
            if isinstance(value, dict):
                rendered = " ".join(f"{k}={_fmt_num(v)}"
                                    for k, v in value.items())
            else:
                rendered = _fmt_num(value)
            rows.append([key, rendered])
        return rows


def _fmt_num(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.2f}"
    return str(int(value))


# -- emitter-side helpers (no-op without a registry) --------------------------
def registry_of(env: Any) -> Optional[MetricsRegistry]:
    """The environment's registry, or None (the common fast case)."""
    return getattr(env, "metrics", None)


def count(env: Any, name: str, n: float = 1, **labels: Any) -> None:
    """Increment a counter if ``env`` carries a registry."""
    registry = getattr(env, "metrics", None)
    if registry is not None:
        registry.counter(name, **labels).inc(n)


def set_gauge(env: Any, name: str, value: float, **labels: Any) -> None:
    """Set a gauge if ``env`` carries a registry."""
    registry = getattr(env, "metrics", None)
    if registry is not None:
        registry.gauge(name, **labels).set(value)


def observe(env: Any, name: str, value: float, **labels: Any) -> None:
    """Record a histogram sample if ``env`` carries a registry."""
    registry = getattr(env, "metrics", None)
    if registry is not None:
        registry.histogram(name, **labels).observe(value)
