"""Tests for zone records and epoch bookkeeping."""

import math
import struct
import sys
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clients.protocol import MeasurementType
from repro.core.records import EpochEstimate, ZoneRecord, ZoneRecordStore
from repro.radio.technology import NetworkId

KEY = ((0, 0), NetworkId.NET_B, MeasurementType.UDP_TRAIN)


def _record(epoch_s=600.0, budget=10):
    return ZoneRecord(key=KEY, epoch_s=epoch_s, sample_budget=budget)


class TestAccumulation:
    def test_samples_needed_decreases(self):
        rec = _record(budget=10)
        assert rec.samples_needed() == 10
        rec.add_samples([1.0, 2.0, 3.0], at_s=5.0)
        assert rec.samples_needed() == 7

    def test_nan_samples_dropped(self):
        rec = _record()
        rec.add_samples([1.0, float("nan"), 2.0], at_s=0.0)
        assert len(rec.open_samples) == 2

    def test_sample_pool_capped(self):
        rec = _record()
        rec.sample_pool_cap = 50
        rec.add_samples([1.0] * 200, at_s=0.0)
        assert len(rec.sample_pool) == 50

    def test_series_rolls(self):
        rec = _record()
        rec.series_cap = 100
        for i in range(150):
            rec.note_measurement(float(i), float(i))
        assert len(rec.series_values) <= 100
        assert rec.series_values[-1] == 149.0


class TestEpochClose:
    def test_not_before_boundary(self):
        rec = _record(epoch_s=600.0)
        rec.add_samples([1.0], at_s=10.0)
        assert rec.maybe_close_epoch(599.0) is None

    def test_close_publishes_estimate(self):
        rec = _record(epoch_s=600.0)
        rec.add_samples([1.0, 2.0, 3.0], at_s=10.0)
        est = rec.maybe_close_epoch(600.0)
        assert est is not None
        assert est.mean == pytest.approx(2.0)
        assert est.n_samples == 3
        assert est.start_s == 0.0
        assert est.end_s == 600.0
        assert len(rec.open_samples) == 0

    def test_empty_epoch_closes_silently(self):
        rec = _record(epoch_s=600.0)
        assert rec.maybe_close_epoch(600.0) is None
        assert rec.epoch_start_s == 600.0

    def test_multiple_idle_epochs_skipped(self):
        rec = _record(epoch_s=600.0)
        rec.maybe_close_epoch(3000.0)
        assert rec.epoch_start_s == 3000.0
        assert rec.epoch_index == 5

    def test_estimate_series(self):
        rec = _record(epoch_s=100.0)
        rec.add_samples([2.0], at_s=50.0)
        rec.maybe_close_epoch(100.0)
        rec.add_samples([4.0], at_s=150.0)
        rec.maybe_close_epoch(200.0)
        series = rec.estimate_series()
        assert [v for _, v in series] == [2.0, 4.0]
        assert [t for t, _ in series] == [50.0, 150.0]

    def test_relative_std(self):
        rec = _record(epoch_s=100.0)
        rec.add_samples([1.0, 3.0], at_s=0.0)
        est = rec.maybe_close_epoch(100.0)
        assert est.relative_std == pytest.approx(0.5)

    def test_closes_retain_pool_plus_open_epoch_only(self):
        """The pool and the open epoch never hold a sample twice over."""
        rec = _record(epoch_s=100.0)
        rec.sample_pool_cap = 4000
        stream = []

        def check():
            arrays = [v for k, v in vars(rec).items()
                      if isinstance(v, array) and not k.startswith("series")]
            limit = rec.sample_pool_cap + len(rec.open_samples)
            assert sum(len(a) for a in arrays) <= limit
            # Over-allocation included, the arrays stay within a quarter.
            assert sum(sys.getsizeof(a) for a in arrays) <= 10 * limit + 1024
            assert list(rec.sample_pool) == stream[:rec.sample_pool_cap]

        for epoch in range(20):
            values = [epoch * 1000.0 + j for j in range(1000)]
            rec.add_samples(values, at_s=epoch * 100.0 + 1.0)
            stream.extend(values)
            check()
            est = rec.maybe_close_epoch((epoch + 1) * 100.0)
            assert est.n_samples == 1000
            assert est.mean == pytest.approx(epoch * 1000.0 + 499.5)
            assert len(rec.open_samples) == 0
            check()


class TestMutation:
    def test_set_epoch_duration(self):
        rec = _record()
        rec.set_epoch_duration(1200.0)
        assert rec.epoch_s == 1200.0
        with pytest.raises(ValueError):
            rec.set_epoch_duration(0.0)

    def test_set_sample_budget(self):
        rec = _record()
        rec.set_sample_budget(55)
        assert rec.sample_budget == 55
        with pytest.raises(ValueError):
            rec.set_sample_budget(0)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ZoneRecord(key=KEY, epoch_s=0.0, sample_budget=10)
        with pytest.raises(ValueError):
            ZoneRecord(key=KEY, epoch_s=10.0, sample_budget=0)

    @pytest.mark.parametrize("epoch_s", [math.inf, -math.inf, math.nan])
    def test_non_finite_epoch_rejected(self, epoch_s):
        with pytest.raises(ValueError, match="positive finite"):
            ZoneRecord(key=KEY, epoch_s=epoch_s, sample_budget=10)
        rec = _record()
        with pytest.raises(ValueError, match="positive finite"):
            rec.set_epoch_duration(epoch_s)
        assert rec.epoch_s == 600.0
        with pytest.raises(ValueError, match="positive finite"):
            ZoneRecordStore(default_epoch_s=epoch_s, default_budget=10)


class TestStore:
    def test_get_creates_aligned(self):
        store = ZoneRecordStore(default_epoch_s=600.0, default_budget=100)
        rec = store.get(KEY, now_s=1500.0)
        assert rec.epoch_start_s == 1200.0  # aligned to boundary

    def test_get_idempotent(self):
        store = ZoneRecordStore(default_epoch_s=600.0, default_budget=100)
        assert store.get(KEY, 0.0) is store.get(KEY, 999.0)

    def test_peek_does_not_create(self):
        store = ZoneRecordStore(default_epoch_s=600.0, default_budget=100)
        assert store.peek(KEY) is None
        assert KEY not in store
        store.get(KEY)
        assert KEY in store
        assert len(store) == 1


class ListRecord:
    """Reference fold: the list-of-floats record storage, kept verbatim.

    ``ZoneRecord`` packs its samples into ``array("d")``; this is the
    arithmetic it must reproduce bit for bit.
    """

    def __init__(self, epoch_s, pool_cap, series_cap):
        self.epoch_s = epoch_s
        self.epoch_start_s = 0.0
        self.epoch_index = 0
        self.open_samples = []
        self.history = []
        self.sample_pool = []
        self.sample_pool_cap = pool_cap
        self.series_times = []
        self.series_values = []
        self.series_cap = series_cap

    def add_samples(self, values, at_s):
        finite = [v for v in values if not math.isnan(v)]
        self.open_samples.extend(finite)
        room = self.sample_pool_cap - len(self.sample_pool)
        if room > 0:
            self.sample_pool.extend(finite[:room])

    def note_measurement(self, value, at_s):
        if math.isnan(value):
            return
        self.series_times.append(at_s)
        self.series_values.append(value)
        if len(self.series_times) > self.series_cap:
            cut = self.series_cap // 4
            self.series_times = self.series_times[cut:]
            self.series_values = self.series_values[cut:]

    def maybe_close_epoch(self, now_s):
        if now_s < self.epoch_start_s + self.epoch_s:
            return None
        estimate = None
        if self.open_samples:
            n = len(self.open_samples)
            mean = sum(self.open_samples) / n
            var = sum((v - mean) ** 2 for v in self.open_samples) / n
            ordered = sorted(self.open_samples)
            estimate = EpochEstimate(
                epoch_index=self.epoch_index,
                start_s=self.epoch_start_s,
                end_s=self.epoch_start_s + self.epoch_s,
                mean=mean,
                std=math.sqrt(var),
                n_samples=n,
                p5=ordered[max(0, int(0.05 * (n - 1)))],
                p95=ordered[min(n - 1, int(math.ceil(0.95 * (n - 1))))],
            )
            self.history.append(estimate)
        skipped = int((now_s - self.epoch_start_s) // self.epoch_s)
        self.epoch_start_s += skipped * self.epoch_s
        self.epoch_index += skipped
        self.open_samples = []
        return estimate

    #: Set beside the caps by the test; read by ``samples_needed`` only.
    sample_budget = 1

    def samples_needed(self):
        return max(0, self.sample_budget - len(self.open_samples))


def _bits(values):
    """The exact IEEE-754 encodings: -0.0 != 0.0 and NaN == NaN here."""
    return [struct.pack("<d", v) for v in values]


def _close_bits(record, now_s):
    """What closing at ``now_s`` yields, as exact bits (or the error).

    Finite samples near the double maximum overflow ``(v - mean) ** 2``;
    both storages must then raise alike and keep the epoch open.
    """
    try:
        est = record.maybe_close_epoch(now_s)
    except OverflowError:
        return "OverflowError"
    return _estimate_bits(est)


def _sample_bits(record):
    """Open epoch, pool and budget shortfall of a record, as exact bits."""
    return (_bits(record.open_samples), _bits(record.sample_pool),
            record.samples_needed())


def _estimate_bits(est):
    if est is None:
        return None
    return (
        est.epoch_index, est.n_samples,
        _bits([est.start_s, est.end_s, est.mean, est.std, est.p5, est.p95]),
    )


#: Any double, weighted towards the awkward ones.
awkward_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([
        0.0, -0.0, math.inf, -math.inf, math.nan,
        5e-324, -5e-324, 2.225073858507201e-308, 1.7976931348623157e308,
    ]),
)

reports = st.lists(
    st.tuples(
        st.lists(awkward_floats, max_size=12),   # samples
        awkward_floats,                          # report value
        st.floats(min_value=0.0, max_value=400.0),  # seconds since last
    ),
    max_size=40,
)


class TestPackedStorageMatchesLists:
    @given(
        reports,
        st.integers(min_value=1, max_value=30),   # sample pool cap
        st.integers(min_value=4, max_value=24),   # series cap
        st.integers(min_value=1, max_value=60),   # sample budget
    )
    @settings(max_examples=200, deadline=None)
    def test_fold_is_bit_identical(self, steps, pool_cap, series_cap, budget):
        rec = _record(epoch_s=300.0, budget=budget)
        rec.sample_pool_cap = pool_cap
        rec.series_cap = series_cap
        ref = ListRecord(300.0, pool_cap, series_cap)
        ref.sample_budget = budget
        now = 0.0
        for samples, value, gap in steps:
            now += gap
            assert _close_bits(rec, now) == _close_bits(ref, now)
            assert _sample_bits(rec) == _sample_bits(ref)
            for r in (rec, ref):
                r.add_samples(samples, at_s=now)
                r.note_measurement(value, now)
            assert _sample_bits(rec) == _sample_bits(ref)
        assert _close_bits(rec, now + 1e6) == _close_bits(ref, now + 1e6)
        assert _sample_bits(rec) == _sample_bits(ref)
        assert [_estimate_bits(e) for e in rec.history] == \
            [_estimate_bits(e) for e in ref.history]
        assert (rec.epoch_index, rec.epoch_start_s) == \
            (ref.epoch_index, ref.epoch_start_s)
        # The caps bound the retained pool and series exactly as before.
        assert len(rec.sample_pool) <= pool_cap
        assert len(rec.series_times) <= series_cap
        assert _bits(rec.series_times) == _bits(ref.series_times)
        assert _bits(rec.series_values) == _bits(ref.series_values)
