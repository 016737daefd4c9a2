"""Metrics primitives: counters, gauges, histograms, and the registry."""

import numpy as np
import pytest

from repro.telemetry.metrics import (
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_accumulates_per_label_set(self):
        c = Counter("messages_total", labelnames=("machine",))
        c.inc(3, machine="0")
        c.inc(2, machine="0")
        c.inc(5, machine="1")
        assert c.value(machine="0") == 5
        assert c.value(machine="1") == 5
        assert c.total == 10

    def test_untouched_series_reads_zero(self):
        c = Counter("x_total", labelnames=("machine",))
        assert c.value(machine="9") == 0.0
        assert c.total == 0.0

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError, match="only go up"):
            Counter("x_total").inc(-1)

    def test_label_names_enforced(self):
        c = Counter("x_total", labelnames=("machine",))
        with pytest.raises(ValueError, match="expected labels"):
            c.inc(1, phase="compute")
        with pytest.raises(ValueError, match="expected labels"):
            c.inc(1)  # missing the label entirely

    def test_label_values_stringified(self):
        c = Counter("x_total", labelnames=("machine",))
        c.inc(1, machine=0)
        assert c.value(machine="0") == 1


class TestGauge:
    def test_set_overwrites(self):
        g = Gauge("clock_seconds")
        g.set(1.5)
        g.set(2.5)
        assert g.value() == 2.5

    def test_inc_accumulates(self):
        g = Gauge("depth")
        g.inc(2)
        g.inc(-1)  # gauges may go down
        assert g.value() == 1


class TestHistogram:
    def test_cumulative_bucket_semantics(self):
        h = Histogram("resp", buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 50.0, 500.0):
            h.observe(v)
        s = h.series[()]
        # le-buckets are cumulative: every bucket counts all values <= bound
        assert s.bucket_counts == [1, 2, 3]
        assert s.count == 4
        assert s.total == pytest.approx(555.5)
        assert h.count() == 4
        assert h.sum() == pytest.approx(555.5)

    def test_value_on_bucket_boundary_counts_inward(self):
        h = Histogram("resp", buckets=(1.0, 10.0))
        h.observe(1.0)
        assert h.series[()].bucket_counts == [1, 1]

    def test_default_latency_buckets_are_log_scale(self):
        assert LATENCY_BUCKETS[0] == pytest.approx(1e-6)
        ratios = [
            LATENCY_BUCKETS[i + 1] / LATENCY_BUCKETS[i]
            for i in range(len(LATENCY_BUCKETS) - 1)
        ]
        assert all(r == pytest.approx(10**0.5) for r in ratios)

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("resp", buckets=(10.0, 1.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("resp", buckets=(1.0, 1.0))

    def test_observe_many_equals_observing_one_by_one(self):
        rng = np.random.default_rng(4)
        values = np.concatenate([rng.lognormal(-9, 3, 500), [1e-6, 0.0]])
        one = Histogram("resp", labelnames=("lane",))
        many = Histogram("resp", labelnames=("lane",))
        for chunk in (values[:7], values[7:], values[:0]):
            for v in chunk:
                one.observe(float(v), lane="bulk")
            many.observe_many(chunk, lane="bulk")
        assert many.series == one.series  # the sum to the last bit
        many.observe_many([], lane="interactive")
        assert list(many.series) == [("bulk",)]

    def test_labelled_series_are_independent(self):
        h = Histogram("resp", labelnames=("discipline",), buckets=(1.0,))
        h.observe(0.5, discipline="batch")
        h.observe(0.5, discipline="pool")
        h.observe(2.0, discipline="pool")
        assert h.count(discipline="batch") == 1
        assert h.count(discipline="pool") == 2
        assert h.total_count == 3


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        r = MetricsRegistry()
        a = r.counter("x_total", labelnames=("machine",))
        b = r.counter("x_total", labelnames=("machine",))
        assert a is b
        assert len(r) == 1

    def test_kind_conflict_rejected(self):
        r = MetricsRegistry()
        r.counter("x_total")
        with pytest.raises(ValueError, match="already registered"):
            r.gauge("x_total")

    def test_label_conflict_rejected(self):
        r = MetricsRegistry()
        r.counter("x_total", labelnames=("machine",))
        with pytest.raises(ValueError, match="already registered"):
            r.counter("x_total", labelnames=("phase",))

    def test_collect_preserves_registration_order(self):
        r = MetricsRegistry()
        names = ["c_total", "g", "h_seconds"]
        r.counter(names[0])
        r.gauge(names[1])
        r.histogram(names[2])
        assert [m.name for m in r.collect()] == names

    def test_get_unknown_is_none(self):
        assert MetricsRegistry().get("nope") is None
