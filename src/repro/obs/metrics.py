"""Metrics registry: counters, gauges and histograms for the simulator.

The registry is the quantitative half of the observability layer (the
qualitative half is :mod:`repro.sim.trace`).  Modules record into
whichever registry is installed on their environment (``env.metrics``,
``None`` when there is none) in one of two ways:

* **Bound handles** — :func:`counter`, :func:`gauge` and
  :func:`histogram` return a handle bound to ``(env, name, labels)``.
  Every site on the per-packet and per-request path (buses, host DMA,
  links, switches, the LCP, the VMMC endpoint, the reliable channel and
  DSM) makes its handles once, at construction, and records with
  ``inc``/``set``/``observe``.  A record reads ``env.metrics``; with no
  registry it does nothing, and when it meets a registry it has not
  seen it resolves its metric there through the registry's factory, so
  the label set is sorted and rendered once per series per registry,
  not once per record.  A registry may be installed at any time, before
  or after the modules are built: each record lands in the registry
  installed when it happens, and a metric exists only once something
  has been recorded into it.  A hot site tests ``env.metrics`` first
  (``if env.metrics is not None:`` around its records, beside the
  ``env.tracer`` guard of its trace points), so a run with no registry
  makes no handle call at all.
* **Helpers** — :func:`count`, :func:`set_gauge` and :func:`observe`
  resolve the metric on every call.  They are for labels drawn from
  request data (``kv.requests{shard,op}``) and for cold control-path
  modules (daemon, driver, kernel, Ethernet, the fault injector) that
  record a handful of times per run.

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
    snap = registry.snapshot()
    snap["link.bytes{link=node0->sw0}"]          # -> int
    snap["vmmc.send.sync_ns{node=node0}"]["p90"]  # -> float
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "counter",
    "gauge",
    "histogram",
    "count",
    "set_gauge",
    "observe",
    "quantile_key",
    "registry_of",
]

#: Quantiles reported in histogram snapshots.
SNAPSHOT_QUANTILES = (0.5, 0.9, 0.99, 0.999)


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
    """A point-in-time value; the high-water mark is tracked alongside."""

    __slots__ = ("value", "max_value")

    def __init__(self) -> None:
        self.value: float = 0
        self.max_value: float = 0

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

    # -- metric factories -----------------------------------------------------
    def _get(self, cls: type, name: str, labels: dict[str, Any]):
        seen = self._kinds.setdefault(name, cls)
        if seen is not cls:
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{seen.__name__}, cannot reuse it as {cls.__name__}")
        key = _key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls()
            self._metrics[key] = metric
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get(Histogram, name, labels)

    # -- wiring ---------------------------------------------------------------
    def install(self, env: Any) -> "MetricsRegistry":
        """Attach this registry to an environment (``env.metrics``)."""
        env.metrics = self
        return self

    # -- introspection --------------------------------------------------------
    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> list[str]:
        """Sorted base metric names (label sets collapsed)."""
        return sorted({name for name, _ in self._metrics})

    def snapshot(self) -> dict[str, Any]:
        """Flat, deterministic view: ``name{labels}`` → value/dict.

        Counters render as numbers, gauges as ``{value, max}`` dicts,
        histograms as ``{count, sum, min, max, p50, p90, p99, p999}``
        dicts.
        Keys are sorted, so two identically seeded runs produce *equal*
        snapshots (`==` on the dicts).
        """
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


# -- bound handles (resolved once per registry) -------------------------------
class _Handle:
    """One series of whichever registry ``env`` carries.

    ``_factory`` names the :class:`MetricsRegistry` factory that makes
    the series, so a handle's first record in a registry does exactly
    what a helper call would (the kind-conflict ``TypeError`` included).
    Each subclass repeats the registry check inline rather than calling
    a shared resolver: it runs once per packet.
    """

    __slots__ = ("_env", "_name", "_labels", "_registry", "_metric")
    _factory = ""

    def __init__(self, env: Any, name: str, labels: dict[str, Any]):
        self._env = env
        self._name = name
        self._labels = labels
        self._registry: Optional[MetricsRegistry] = None
        self._metric: Any = None

    def _bind(self, registry: MetricsRegistry) -> None:
        self._metric = getattr(registry, self._factory)(
            self._name, **self._labels)
        self._registry = registry


class CounterHandle(_Handle):
    __slots__ = ()
    _factory = "counter"

    def inc(self, n: float = 1) -> None:
        registry = self._env.metrics
        if registry is None:
            return
        if registry is not self._registry:
            self._bind(registry)
        self._metric.inc(n)


class GaugeHandle(_Handle):
    __slots__ = ()
    _factory = "gauge"

    def set(self, value: float) -> None:
        registry = self._env.metrics
        if registry is None:
            return
        if registry is not self._registry:
            self._bind(registry)
        self._metric.set(value)


class HistogramHandle(_Handle):
    __slots__ = ()
    _factory = "histogram"

    def observe(self, value: float) -> None:
        registry = self._env.metrics
        if registry is None:
            return
        if registry is not self._registry:
            self._bind(registry)
        self._metric.observe(value)


def counter(env: Any, name: str, **labels: Any) -> CounterHandle:
    """A counter handle bound to ``env`` (see the module docstring)."""
    return CounterHandle(env, name, labels)


def gauge(env: Any, name: str, **labels: Any) -> GaugeHandle:
    """A gauge handle bound to ``env``."""
    return GaugeHandle(env, name, labels)


def histogram(env: Any, name: str, **labels: Any) -> HistogramHandle:
    """A histogram handle bound to ``env``."""
    return HistogramHandle(env, name, labels)
