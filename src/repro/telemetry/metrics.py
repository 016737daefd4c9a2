"""Metrics primitives: counters, gauges, histograms, and their registry.

The evaluation in §4 is built from exactly the quantities the runtime counts
per superstep and then discards — messages, bytes, edges scanned, frontier
sizes, response times.  This module keeps them, Prometheus-style:

* a :class:`Counter` accumulates monotonically (``messages_total``);
* a :class:`Gauge` holds a last-written value (``virtual_clock_seconds``);
* a :class:`Histogram` buckets observations over *fixed log-scale bounds*
  so latency distributions survive aggregation across runs.

Every metric carries an ordered tuple of *label names* (``machine``,
``partition``, ``phase``, ``query_batch``, …) and keeps one time series per
label-value combination, exactly the Prometheus data model.  The
:class:`MetricsRegistry` is the per-:class:`~repro.telemetry.Instrumentation`
namespace: getting a metric twice with the same name returns the same
object; re-registering a name under a different type or label set is an
error (silent aliasing is how metric bugs hide).

No client library: plain dicts and floats, plus numpy for observing a
whole array at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LATENCY_BUCKETS",
]

# Fixed log-scale latency bounds (seconds): half-decade steps from 1 µs to
# ~316 s.  Fixed bounds keep histograms mergeable across runs and machines.
LATENCY_BUCKETS: tuple[float, ...] = tuple(
    10.0 ** (exp / 2.0) for exp in range(-12, 6)
)


def _label_key(labelnames: tuple[str, ...], labels: dict) -> tuple:
    """Validate and order one observation's labels into a hashable key."""
    if set(labels) != set(labelnames):
        raise ValueError(
            f"expected labels {labelnames}, got {tuple(sorted(labels))}"
        )
    return tuple(str(labels[name]) for name in labelnames)


@dataclass
class Counter:
    """A monotonically increasing sum, one series per label combination."""

    name: str
    help: str = ""
    labelnames: tuple[str, ...] = ()
    kind: str = field(default="counter", init=False)
    series: dict[tuple, float] = field(default_factory=dict)

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(self.labelnames, labels)
        self.series[key] = self.series.get(key, 0.0) + float(amount)

    def value(self, **labels) -> float:
        return self.series.get(_label_key(self.labelnames, labels), 0.0)

    @property
    def total(self) -> float:
        """Sum over every label combination."""
        return sum(self.series.values())


@dataclass
class Gauge:
    """A last-written value, one series per label combination."""

    name: str
    help: str = ""
    labelnames: tuple[str, ...] = ()
    kind: str = field(default="gauge", init=False)
    series: dict[tuple, float] = field(default_factory=dict)

    def set(self, value: float, **labels) -> None:
        self.series[_label_key(self.labelnames, labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = _label_key(self.labelnames, labels)
        self.series[key] = self.series.get(key, 0.0) + float(amount)

    def value(self, **labels) -> float:
        return self.series.get(_label_key(self.labelnames, labels), 0.0)


@dataclass
class _HistogramSeries:
    """Bucket counts plus sum/count for one label combination."""

    bucket_counts: list[int]
    total: float = 0.0
    count: int = 0


@dataclass
class Histogram:
    """Observations bucketed over fixed upper bounds (+Inf implied)."""

    name: str
    help: str = ""
    labelnames: tuple[str, ...] = ()
    buckets: tuple[float, ...] = LATENCY_BUCKETS
    kind: str = field(default="histogram", init=False)
    series: dict[tuple, _HistogramSeries] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.buckets = tuple(float(b) for b in self.buckets)
        if list(self.buckets) != sorted(self.buckets) or len(
            set(self.buckets)
        ) != len(self.buckets):
            raise ValueError("histogram buckets must be strictly increasing")

    def observe(self, value: float, **labels) -> None:
        key = _label_key(self.labelnames, labels)
        s = self.series.get(key)
        if s is None:
            s = _HistogramSeries(bucket_counts=[0] * len(self.buckets))
            self.series[key] = s
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                s.bucket_counts[i] += 1
        s.total += float(value)
        s.count += 1

    def observe_many(self, values, **labels) -> None:
        """:meth:`observe` each of ``values`` in order, in one pass: the
        same bucket counts, and the same sum, accumulated left to right."""
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size == 0:
            return
        key = _label_key(self.labelnames, labels)
        s = self.series.get(key)
        if s is None:
            s = _HistogramSeries(bucket_counts=[0] * len(self.buckets))
            self.series[key] = s
        within = values[:, None] <= np.array(self.buckets)
        for i, c in enumerate(np.count_nonzero(within, axis=0).tolist()):
            s.bucket_counts[i] += c
        running = np.add.accumulate(np.concatenate(([s.total], values)))
        s.total = float(running[-1])
        s.count += int(values.size)

    def count(self, **labels) -> int:
        s = self.series.get(_label_key(self.labelnames, labels))
        return 0 if s is None else s.count

    def sum(self, **labels) -> float:
        s = self.series.get(_label_key(self.labelnames, labels))
        return 0.0 if s is None else s.total

    @property
    def total_count(self) -> int:
        return sum(s.count for s in self.series.values())


class MetricsRegistry:
    """A namespace of metrics; names resolve to one object for its lifetime."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get_or_create(self, cls, name, help, labelnames, **kwargs):
        labelnames = tuple(labelnames)
        existing = self._metrics.get(name)
        if existing is not None:
            if existing.kind != cls.kind or existing.labelnames != labelnames:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}{existing.labelnames}"
                )
            return existing
        metric = cls(name=name, help=help, labelnames=labelnames, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "", labelnames=()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames=()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self, name: str, help: str = "", labelnames=(), buckets=LATENCY_BUCKETS
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labelnames, buckets=tuple(buckets)
        )

    def get(self, name: str):
        """The registered metric, or None."""
        return self._metrics.get(name)

    def collect(self) -> list:
        """Every registered metric, in registration order."""
        return list(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)
