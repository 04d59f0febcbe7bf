"""Tests for counters, gauges, histograms, and the registry."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    merge_snapshots,
    quantile_from_snapshot,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        reg = MetricsRegistry()
        c = reg.counter("x")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_same_name_same_counter(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        reg.counter("x").inc()
        assert reg.counter_value("x") == 2.0

    def test_missing_counter_reads_zero(self):
        assert MetricsRegistry().counter_value("nope") == 0.0


class TestGauge:
    def test_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(5.0)
        g.inc(2.0)
        g.dec(3.0)
        assert g.value == 4.0

    def test_max_keeps_high_water(self):
        g = MetricsRegistry().gauge("hw")
        g.max(3.0)
        g.max(1.0)
        assert g.value == 3.0


class TestHistogram:
    def test_observe_counts_into_buckets(self):
        h = Histogram("h", (1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 50.0, 500.0):
            h.observe(v)
        assert h.total == 4
        assert h.counts == [1, 1, 1, 1]  # last slot is overflow
        assert h.sum == 555.5

    def test_mean_and_extremes(self):
        h = Histogram("h", (10.0,))
        h.observe(2.0)
        h.observe(4.0)
        assert h.mean == 3.0
        assert h.min == 2.0
        assert h.max == 4.0

    def test_percentile_on_bucket_boundaries(self):
        h = Histogram("h", (1.0, 2.0, 4.0))
        for _ in range(99):
            h.observe(0.5)
        h.observe(3.0)
        assert h.percentile(0.5) == 1.0
        # The tail lands in the (2, 4] bucket, but the estimate is
        # clamped to the observed max — keeping percentile() monotone
        # in q up to percentile(1.0) == max.
        assert h.percentile(0.999) == 3.0
        assert h.percentile(0.0) == 0.5
        assert h.percentile(1.0) == 3.0

    def test_empty_percentile_is_nan(self):
        assert math.isnan(Histogram("h", (1.0,)).percentile(0.5))

    def test_single_bucket_histogram(self):
        h = Histogram("h", (10.0,))
        h.observe(3.0)
        assert h.percentile(0.0) == 3.0
        assert h.percentile(0.5) == 3.0
        assert h.percentile(1.0) == 3.0

    def test_all_overflow_observations(self):
        h = Histogram("h", (1.0,))
        h.observe(50.0)
        h.observe(70.0)
        assert h.percentile(0.5) == 70.0  # clamped to max
        assert h.percentile(0.0) == 50.0

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=1e4,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=50,
        ),
        qs=st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=6
        ),
    )
    def test_percentile_monotone_in_q(self, values, qs):
        """For any data, q1 <= q2 implies percentile(q1) <= percentile(q2),
        and every estimate stays inside [min, max]."""
        h = Histogram("h", (1.0, 10.0, 100.0, 1000.0))
        for v in values:
            h.observe(v)
        estimates = [h.percentile(q) for q in sorted(qs)]
        for lo, hi in zip(estimates, estimates[1:]):
            assert lo <= hi
        for e in estimates:
            assert h.min <= e <= h.max
        assert h.percentile(0.0) == h.min
        assert h.percentile(1.0) == h.max
        # The snapshot-side helper agrees with the live histogram.
        snap = h.snapshot()
        for q in qs:
            assert quantile_from_snapshot(snap, q) == h.percentile(q)

    def test_snapshot_shape(self):
        h = Histogram("h", (1.0, 2.0))
        h.observe(1.5)
        snap = h.snapshot()
        assert snap["buckets"] == [1.0, 2.0]
        assert snap["count"] == 1
        assert len(snap["counts"]) == 3


class TestRegistry:
    def test_snapshot_is_sorted_and_json_stable(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.counter("a").inc(2)
        reg.gauge("g").set(1.0)
        reg.histogram("h").observe(3.0)
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["a", "b"]
        again = json.loads(reg.to_json())
        assert again == json.loads(reg.to_json())

    def test_histogram_default_buckets(self):
        h = MetricsRegistry().histogram("h")
        assert tuple(h.bounds) == tuple(DEFAULT_BUCKETS)


class TestMergeSnapshots:
    def test_single_snapshot_is_returned_unchanged_under_both_policies(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(0.1)
        for value in (0.5, 1.5, 7.0):
            reg.histogram("h", (1.0, 2.0)).observe(value)
        reg.histogram("empty")  # never observed: None min/max
        snap = reg.snapshot()
        for gauges in ("sum", "mean"):
            for warnings in (None, []):
                merged = merge_snapshots([snap], gauges=gauges,
                                         warnings=warnings)
                #: JSON equality also pins the types (3.0 vs 3).
                assert json.dumps(merged) == json.dumps(snap)
                h = merged["histograms"]["h"]
                assert all(type(c) is int for c in h["counts"])
                assert type(h["count"]) is int and type(h["sum"]) is float

    def test_unknown_gauge_policy_is_refused(self):
        with pytest.raises(ValueError):
            merge_snapshots([], gauges="max", warnings=None)


class TestNullRegistry:
    def test_all_operations_are_noops(self):
        NULL_REGISTRY.counter("x").inc(5)
        NULL_REGISTRY.gauge("g").set(2.0)
        NULL_REGISTRY.histogram("h").observe(1.0)
        assert NULL_REGISTRY.counter_value("x") == 0.0
        assert NULL_REGISTRY.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }

    def test_handles_are_shared_singletons(self):
        assert NULL_REGISTRY.counter("a") is NULL_REGISTRY.counter("b")
        assert NULL_REGISTRY.gauge("a") is NULL_REGISTRY.gauge("b")
        assert NULL_REGISTRY.histogram("a") is NULL_REGISTRY.histogram("b")
