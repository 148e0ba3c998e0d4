"""Unified metrics registry: labeled counters, gauges, and histograms.

:class:`MetricsRegistry` is the one sink every message-path component
records into — a process-wide default registry or an explicitly injected
one — and a single exposition surface (:mod:`repro.obs.http`) renders the
lot as Prometheus-style text or JSON.

Design constraints, in order:

- **Cheap hot path.**  A counter increment is a dict hit on a cached child
  handle plus one lock; components resolve their children once at
  construction time, not per event.
- **Disabled mode.**  ``MetricsRegistry(enabled=False)`` hands out a
  shared no-op child for every instrument, so fully unobserved runs cost
  one attribute call per record point (the benchmark-guard baseline).
- **Thread safety.**  Children carry their own locks; the registry lock
  only guards family/child creation.

Histograms reuse :class:`repro.util.stats.Histogram` (bucketed quantiles)
and :class:`repro.util.stats.OnlineStats` (sum/mean/min/max) rather than
inventing a new accumulator.

>>> reg = MetricsRegistry()
>>> reg.counter("demo_total").inc()
>>> reg.counter("demo_total").labels(kind="x").inc(2)
>>> sorted(s["value"] for s in reg.snapshot()["demo_total"]["samples"])
[1, 2]
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Iterator

from repro.util.stats import Histogram, OnlineStats

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> _LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class CounterChild:
    """One labeled monotonic counter."""

    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self.value += amount

    def get(self) -> float:
        with self._lock:
            return self.value


class GaugeChild:
    """One labeled gauge: a live read callback (0 until one is bound)."""

    __slots__ = ("_lock", "_fn")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._fn: Callable[[], float] | None = None

    def set_function(self, fn: Callable[[], float]) -> None:
        """Bind a live read callback (re-binding replaces the old one)."""
        with self._lock:
            self._fn = fn

    def get(self) -> float:
        with self._lock:
            fn = self._fn
        if fn is None:
            return 0.0
        try:
            return float(fn())
        except Exception:  # noqa: BLE001 - a dead gauge reads 0
            return 0.0


class HistogramChild:
    """One labeled latency/size histogram with summary statistics."""

    __slots__ = ("_lock", "_hist", "_stats")

    def __init__(self, bucket_width: float, num_buckets: int) -> None:
        self._lock = threading.Lock()
        self._hist = Histogram(bucket_width, num_buckets=num_buckets)
        self._stats = OnlineStats()

    def observe(self, value: float) -> None:
        with self._lock:
            self._hist.add(max(0.0, value))
            self._stats.add(value)

    def quantile(self, q: float) -> float:
        with self._lock:
            return self._hist.quantile(q)

    @property
    def count(self) -> int:
        with self._lock:
            return self._stats.count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._stats.mean * self._stats.count

    def summary(self, quantiles: tuple[float, ...] = (0.5, 0.9, 0.99)) -> dict:
        with self._lock:
            n = self._stats.count
            return {
                "count": n,
                "sum": self._stats.mean * n,
                "min": self._stats.min if n else 0.0,
                "max": self._stats.max if n else 0.0,
                "quantiles": {q: self._hist.quantile(q) for q in quantiles},
            }

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """Prometheus-style cumulative series: ``(upper_edge, count_le)``.

        Only non-empty buckets appear (plus the mandatory ``+Inf`` total,
        which also covers overflow samples), keeping the exposition small
        for sparse latency distributions.
        """
        with self._lock:
            out: list[tuple[float, int]] = []
            cum = 0
            for i, c in enumerate(self._hist.buckets):
                if c:
                    cum += c
                    out.append(((i + 1) * self._hist.bucket_width, cum))
            out.append((math.inf, self._hist.count))
            return out


class _NoopChild:
    """Shared do-nothing child handed out by a disabled registry."""

    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        pass

    def set_function(self, fn: Callable[[], float]) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def get(self) -> float:
        return 0.0

    @property
    def count(self) -> int:
        return 0

    def labels(self, **labels: str) -> "_NoopChild":
        return self


NOOP_CHILD = _NoopChild()


class MetricFamily:
    """A named metric plus all its labeled children."""

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        bucket_width: float = 0.005,
        num_buckets: int = 256,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.bucket_width = bucket_width
        self.num_buckets = num_buckets
        self._lock = threading.Lock()
        self._children: dict[_LabelKey, object] = {}

    def _make_child(self):
        if self.kind == "counter":
            return CounterChild()
        if self.kind == "gauge":
            return GaugeChild()
        return HistogramChild(self.bucket_width, self.num_buckets)

    def labels(self, **labels: str):
        """The child for one label combination (created on first use)."""
        key = _label_key(labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                self._children[key] = child
            return child

    # -- unlabeled convenience (delegates to the empty-label child) -------
    def inc(self, amount: float = 1) -> None:
        self.labels().inc(amount)

    def set_function(self, fn: Callable[[], float]) -> None:
        self.labels().set_function(fn)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    def samples(self) -> Iterator[tuple[dict[str, str], object]]:
        with self._lock:
            items = list(self._children.items())
        for key, child in items:
            yield dict(key), child


class MetricsRegistry:
    """Process-wide sink for every component's counters/gauges/histograms.

    ``enabled=False`` puts the registry in no-op mode: every instrument
    resolves to a shared inert child and ``snapshot()`` is empty.  This is
    the "disabled mode" the benchmark overhead guard compares against.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._families: dict[str, MetricFamily] = {}

    # -- instrument factories --------------------------------------------
    def _family(self, name: str, kind: str, help: str, **kwargs) -> MetricFamily:
        with self._lock:
            fam = self._families.get(name)
            if fam is None:
                fam = MetricFamily(name, kind, help=help, **kwargs)
                self._families[name] = fam
            elif fam.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {fam.kind}, "
                    f"requested {kind}"
                )
            return fam

    def counter(self, name: str, help: str = ""):
        if not self.enabled:
            return NOOP_CHILD
        return self._family(name, "counter", help)

    def gauge(self, name: str, help: str = ""):
        if not self.enabled:
            return NOOP_CHILD
        return self._family(name, "gauge", help)

    def histogram(
        self,
        name: str,
        help: str = "",
        bucket_width: float = 0.005,
        num_buckets: int = 256,
    ):
        if not self.enabled:
            return NOOP_CHILD
        return self._family(
            name,
            "histogram",
            help,
            bucket_width=bucket_width,
            num_buckets=num_buckets,
        )

    # -- exposition -------------------------------------------------------
    def families(self) -> list[MetricFamily]:
        with self._lock:
            return sorted(self._families.values(), key=lambda f: f.name)

    def snapshot(self) -> dict[str, dict]:
        """JSON-able view: {name: {kind, help, samples: [...]}}."""
        out: dict[str, dict] = {}
        for fam in self.families():
            samples = []
            for labels, child in fam.samples():
                if fam.kind == "histogram":
                    samples.append({"labels": labels, **child.summary()})
                else:
                    samples.append({"labels": labels, "value": child.get()})
            out[fam.name] = {"kind": fam.kind, "help": fam.help, "samples": samples}
        return out

    def render_prometheus(self) -> str:
        """Prometheus text exposition (v0.0.4) a real scraper can ingest.

        Histograms render as proper cumulative ``_bucket{le="..."}``
        series (non-empty buckets plus the mandatory ``+Inf``), followed
        by ``_sum`` and ``_count``; every family gets ``# HELP`` and
        ``# TYPE`` lines.
        """
        lines: list[str] = []
        for fam in self.families():
            name = _prom_name(fam.name)
            help_text = fam.help if fam.help else name
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {fam.kind}")
            for labels, child in fam.samples():
                if fam.kind == "histogram":
                    for edge, cum in child.cumulative_buckets():
                        b_labels = dict(labels)
                        b_labels["le"] = _prom_value(edge)
                        lines.append(
                            f"{name}_bucket{_prom_labels(b_labels)} {cum}"
                        )
                    lines.append(
                        f"{name}_sum{_prom_labels(labels)} "
                        f"{_prom_value(child.sum)}"
                    )
                    lines.append(
                        f"{name}_count{_prom_labels(labels)} {child.count}"
                    )
                else:
                    lines.append(
                        f"{name}{_prom_labels(labels)} {_prom_value(child.get())}"
                    )
        return "\n".join(lines) + "\n"


def _prom_name(name: str) -> str:
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)


def _prom_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{_prom_name(k)}="{_escape_label(str(v))}"'
        for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _prom_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


# -- process-wide default registry ---------------------------------------
_default_lock = threading.Lock()
_default_registry = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide registry components record into by default."""
    with _default_lock:
        return _default_registry


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide default; returns the previous one."""
    global _default_registry
    with _default_lock:
        previous = _default_registry
        _default_registry = registry
        return previous
