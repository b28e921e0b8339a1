"""Metrics registry semantics: counters, gauges, histogram bucketing."""

from __future__ import annotations

import pytest

from repro.obs import DEFAULT_BUCKETS, Counter, Histogram, MetricsRegistry


class TestCounter:
    def test_inc_accumulates(self):
        c = Counter("requests_total")
        c.inc()
        c.inc(3)
        assert c.value == 4

    def test_negative_increment_rejected(self):
        c = Counter("requests_total")
        with pytest.raises(ValueError, match="only go up"):
            c.inc(-1)

    def test_labeled_series_are_independent(self):
        c = Counter("served_total", labelnames=("rung",))
        c.labels(rung="tuned").inc()
        c.labels(rung="tuned").inc()
        c.labels(rung="direct").inc()
        assert c.labels(rung="tuned").value == 2
        assert c.labels(rung="direct").value == 1

    def test_label_name_mismatch_raises(self):
        c = Counter("served_total", labelnames=("rung",))
        with pytest.raises(ValueError, match="takes labels"):
            c.labels(device="tahiti")


class TestGauge:
    def test_set_inc_dec(self):
        registry = MetricsRegistry()
        g = registry.gauge("backlog_seconds")
        g.set(0.25)
        g.inc(0.5)
        g.dec(0.25)
        assert g.value == pytest.approx(0.5)


class TestHistogram:
    def test_observations_land_in_the_right_buckets(self):
        h = Histogram("latency", buckets=(0.001, 0.01, 0.1))
        for v in (0.0005, 0.001, 0.005, 0.05, 5.0):
            h.observe(v)
        # counts per bucket: <=0.001 gets 0.0005 and 0.001 (boundary is
        # inclusive), <=0.01 gets 0.005, <=0.1 gets 0.05, +Inf gets 5.0.
        assert h.counts == [2, 1, 1, 1]
        assert h.count == 5
        assert h.sum == pytest.approx(0.0005 + 0.001 + 0.005 + 0.05 + 5.0)

    def test_cumulative_view_ends_with_inf(self):
        h = Histogram("latency", buckets=(0.001, 0.01))
        h.observe(0.0001)
        h.observe(1.0)
        assert h.cumulative() == [(0.001, 1), (0.01, 1), (float("inf"), 2)]

    def test_buckets_are_fixed_and_validated(self):
        with pytest.raises(ValueError, match="ascending"):
            Histogram("latency", buckets=(0.01, 0.001))
        with pytest.raises(ValueError, match="ascending"):
            Histogram("latency", buckets=(0.01, 0.01))
        with pytest.raises(ValueError, match="at least one"):
            Histogram("latency", buckets=())

    def test_default_buckets_cover_the_serving_time_scales(self):
        h = Histogram("latency")
        assert h.buckets == DEFAULT_BUCKETS
        assert h.buckets[0] == 0.0001 and h.buckets[-1] == 2.5

    def test_labeled_series_share_the_bucket_boundaries(self):
        h = Histogram("latency", labelnames=("rung",), buckets=(0.5, 1.0))
        child = h.labels(rung="tuned")
        assert child.buckets == (0.5, 1.0)
        child.observe(0.75)
        assert child.counts == [0, 1, 0]
        # The parent's own aggregate is untouched.
        assert h.labels(rung="direct").counts == [0, 0, 0]


class TestRegistry:
    def test_get_or_create_returns_the_same_metric(self):
        registry = MetricsRegistry()
        a = registry.counter("requests_total", "help")
        b = registry.counter("requests_total")
        assert a is b
        assert len(registry) == 1

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x_total")

    def test_labelname_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total", labelnames=("rung",))
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("x_total", labelnames=("device",))

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.counter("bad-name")
        with pytest.raises(ValueError, match="invalid label name"):
            registry.counter("ok_name", labelnames=("bad-label",))

    def test_snapshot_is_deterministic_and_sorted(self):
        def build():
            registry = MetricsRegistry()
            c = registry.counter("z_total", labelnames=("rung",))
            c.labels(rung="tuned").inc(2)
            c.labels(rung="direct").inc()
            registry.gauge("a_gauge").set(1.5)
            registry.histogram("m_hist", buckets=(0.1, 1.0)).observe(0.5)
            return registry.snapshot()

        s1, s2 = build(), build()
        assert s1 == s2
        names = [m["name"] for m in s1["metrics"]]
        assert names == sorted(names)
        z = next(m for m in s1["metrics"] if m["name"] == "z_total")
        # Series sort by label values: direct < tuned.
        assert [s["labels"]["rung"] for s in z["series"]] == ["direct", "tuned"]
