"""Tests for report validation."""

import math

import pytest

from repro.clients.protocol import MeasurementReport, MeasurementType
from repro.core.validation import ReportValidator, ValidationLimits
from repro.geo.coords import GeoPoint
from repro.radio.technology import NetworkId

P = GeoPoint(43.0, -89.4)


def _report(value=1e6, kind=MeasurementType.UDP_TRAIN, start=100.0, end=101.0,
            speed=3.0, samples=()):
    return MeasurementReport(
        task_id=1, client_id="c", network=NetworkId.NET_B, kind=kind,
        start_s=start, end_s=end, point=P, speed_ms=speed,
        value=value, samples=list(samples),
    )


class TestAccepts:
    def test_valid_udp(self):
        validator = ReportValidator()
        assert validator.validate(_report(), now_s=110.0).ok
        assert validator.accepted == 1

    def test_valid_ping(self):
        validator = ReportValidator()
        report = _report(value=0.12, kind=MeasurementType.PING, samples=[0.1, 0.13])
        assert validator.validate(report, now_s=110.0).ok

    def test_nan_ping_is_valid_failure_report(self):
        """A ping series that lost everything legitimately reports NaN."""
        validator = ReportValidator()
        report = _report(value=float("nan"), kind=MeasurementType.PING)
        assert validator.validate(report, now_s=110.0).ok


class TestRejects:
    @pytest.mark.parametrize(
        "report_kwargs,now,reason",
        [
            ({"start": 1e6}, 100.0, "future-timestamp"),
            ({"start": 0.0}, 2e5, "stale"),
            ({"start": 100.0, "end": 50.0}, 110.0, "negative-duration"),
            ({"speed": 500.0}, 110.0, "implausible-speed"),
            ({"value": 1e12}, 110.0, "implausible-throughput"),
            ({"value": float("nan")}, 110.0, "nan-throughput"),
            ({"value": -5.0}, 110.0, "implausible-throughput"),
            ({"samples": [1e12]}, 110.0, "implausible-sample"),
            (
                {"value": 99.0, "kind": MeasurementType.PING},
                110.0,
                "implausible-rtt",
            ),
            (
                {"value": 0.1, "kind": MeasurementType.PING, "samples": [99.0]},
                110.0,
                "implausible-rtt-sample",
            ),
        ],
    )
    def test_rejection_reasons(self, report_kwargs, now, reason):
        validator = ReportValidator()
        result = validator.validate(_report(**report_kwargs), now_s=now)
        assert not result.ok
        assert result.reason == reason
        assert validator.rejections[reason] == 1
        assert validator.rejected == 1

    def test_oversized_samples(self):
        validator = ReportValidator(ValidationLimits(max_samples=10))
        report = _report(samples=[1.0] * 11)
        assert validator.validate(report, 110.0).reason == "oversized-samples"


class TestCoordinatorIntegration:
    def test_bad_report_never_reaches_records(self, landscape):
        from repro.core.controller import MeasurementCoordinator
        from repro.geo.zones import ZoneGrid

        grid = ZoneGrid(landscape.study_area.anchor, radius_m=250.0)
        coordinator = MeasurementCoordinator(grid, seed=1)
        bogus = _report(value=1e12)
        assert not coordinator.ingest(bogus)
        assert coordinator.stats.reports_rejected == 1
        assert len(coordinator.store) == 0

    def test_good_report_accepted(self, landscape):
        from repro.core.controller import MeasurementCoordinator
        from repro.geo.zones import ZoneGrid

        grid = ZoneGrid(landscape.study_area.anchor, radius_m=250.0)
        coordinator = MeasurementCoordinator(grid, seed=1)
        assert coordinator.ingest(_report())
        assert coordinator.stats.reports_ingested == 1


LIMITS = ValidationLimits()


class TestSampleChecks:
    """Every sample must satisfy ``0 < s <= limit``; NaN never does."""

    @pytest.mark.parametrize("position", [0, 1, 5, 9])
    @pytest.mark.parametrize("nan", [math.nan, -math.nan])
    def test_nan_at_any_position_rejected(self, position, nan):
        samples = [0.05] * 10
        samples[position] = nan
        result = ReportValidator().validate(
            _report(value=0.05, kind=MeasurementType.PING, samples=samples),
            now_s=110.0)
        assert result.reason == "implausible-rtt-sample"

    @pytest.mark.parametrize("sample,ok", [
        (0.0, False), (-0.0, False), (5e-324, True),
        (LIMITS.max_rtt_s, True),
        (math.nextafter(LIMITS.max_rtt_s, math.inf), False),
        (math.inf, False), (-math.inf, False),
    ])
    def test_exact_limits(self, sample, ok):
        result = ReportValidator().validate(
            _report(value=0.05, kind=MeasurementType.PING,
                    samples=[0.05, sample]),
            now_s=110.0)
        assert result.ok is ok

    def test_earlier_reasons_win(self):
        # An implausible speed is reported before any sample is looked at.
        result = ReportValidator().validate(
            _report(speed=500.0, samples=[math.nan]), now_s=110.0)
        assert result.reason == "implausible-speed"
