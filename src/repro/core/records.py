"""Zone records: what the coordinator knows about each (zone, carrier).

A :class:`ZoneRecord` tracks one (zone, network, metric) stream: the
open epoch's accumulating samples, the closed-epoch estimate history,
the zone's current epoch duration and sample budget, and the alerts the
paper's >2-sigma change rule raises (section 3.4).

Per-sample state is packed doubles (``array("d")``, 8 B a sample; a
float object in a list costs 32 B), and each record keeps one sample
buffer: the stream's first ``sample_pool_cap`` samples (the NKLD pool)
followed by the open epoch's.  Until the pool is full the two share
their doubles, so a served coordinator, which never closes epochs and
keeps every sample it accepts for the life of the process (DESIGN.md
section 10), stores each sample once.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.clients.protocol import MeasurementType
from repro.radio.technology import NetworkId

ZoneId = Tuple[int, int]
#: A record stream is keyed by zone, carrier, and measurement kind.
MetricKey = Tuple[ZoneId, NetworkId, MeasurementType]


@dataclass(frozen=True)
class EpochEstimate:
    """The closed-epoch summary WiScape publishes for a zone.

    ``p5``/``p95`` are the 5th/95th percentile of the epoch's samples —
    exactly the quantities the persistent-dominance rule (section 4.2.1)
    compares across carriers.
    """

    epoch_index: int
    start_s: float
    end_s: float
    mean: float
    std: float
    n_samples: int
    p5: float = 0.0
    p95: float = 0.0

    @property
    def relative_std(self) -> float:
        if self.mean == 0:
            return 0.0
        return self.std / abs(self.mean)


@dataclass(frozen=True)
class ChangeAlert:
    """Raised when a zone's estimate moves > change_sigma previous stds."""

    key: MetricKey
    at_s: float
    previous: EpochEstimate
    current: EpochEstimate

    @property
    def magnitude_sigma(self) -> float:
        """How many previous-epoch sigmas the estimate moved."""
        if self.previous.std == 0:
            return float("inf")
        return abs(self.current.mean - self.previous.mean) / self.previous.std


def _check_epoch_s(epoch_s: float) -> None:
    """Reject an epoch duration no epoch grid can be built on."""
    if not (math.isfinite(epoch_s) and epoch_s > 0):
        raise ValueError("epoch_s must be a positive finite number")


class ZoneRecord:
    """State of one (zone, network, metric) stream."""

    def __init__(
        self,
        key: MetricKey,
        epoch_s: float,
        sample_budget: int,
        first_epoch_start_s: float = 0.0,
    ):
        _check_epoch_s(epoch_s)
        if sample_budget < 1:
            raise ValueError("sample_budget must be >= 1")
        self.key = key
        self.epoch_s = float(epoch_s)
        self.sample_budget = int(sample_budget)
        self.epoch_start_s = float(first_epoch_start_s)
        self.epoch_index = 0
        #: The stream's first ``min(sample_pool_cap, total)`` samples, then
        #: the open epoch's from ``_open_at`` on; the two overlap until the
        #: pool is full.
        self._buf = array("d")
        self._open_at = 0
        self.history: List[EpochEstimate] = []
        #: How many of the stream's first samples ``sample_pool`` keeps
        #: for NKLD budget calibration.
        self.sample_pool_cap = 4000
        #: Rolling per-report series for Allan-deviation epoch selection.
        self.series_times = array("d")
        self.series_values = array("d")
        self.series_cap = 8000
        #: Estimate the coordinator currently publishes for this stream
        #: (only replaced on significant change, see section 3.4).
        self.published: Optional[EpochEstimate] = None
        self.epochs_since_calibration = 0

    # -- accumulation -----------------------------------------------------

    @property
    def open_samples(self) -> array:
        """A copy of the open epoch's samples, in arrival order."""
        return self._buf[self._open_at:]

    @property
    def sample_pool(self) -> array:
        """A copy of the stream's first ``sample_pool_cap`` samples.

        This is the long-term pool the NKLD budget planner replays
        (section 3.3); it spans epochs and is never reset.
        """
        return self._buf[:self.sample_pool_cap]

    def samples_needed(self) -> int:
        """Samples still missing from the open epoch's budget."""
        return max(0, self.sample_budget - (len(self._buf) - self._open_at))

    def add_samples(self, values: Iterable[float], at_s: float) -> None:
        """Add measurement samples to the open epoch.

        NaN samples are dropped.  ``at_s`` is the report's time; samples
        carry no timestamp of their own (the epoch is their time).
        """
        # NaN is the only value unequal to itself; ``v == v`` is a
        # cheaper test than math.isnan on this per-report path.  The
        # pool needs no bookkeeping: it is the buffer's head.
        self._buf.extend(array("d", [v for v in values if v == v]))

    def note_measurement(self, value: float, at_s: float) -> None:
        """Record one report-level value for epoch (Allan) calibration."""
        if math.isnan(value):
            return
        self.series_times.append(at_s)
        self.series_values.append(value)
        if len(self.series_times) > self.series_cap:
            # Drop the oldest quarter in one go (amortized O(1)).
            cut = self.series_cap // 4
            del self.series_times[:cut]
            del self.series_values[:cut]

    def maybe_close_epoch(self, now_s: float) -> Optional[EpochEstimate]:
        """Close the epoch if its window has elapsed.

        An epoch with no samples closes silently (nothing to publish);
        one with samples publishes an :class:`EpochEstimate`.  Either
        way the next epoch opens at the boundary just passed (catching
        up over any fully idle gaps).
        """
        if now_s < self.epoch_start_s + self.epoch_s:
            return None
        estimate: Optional[EpochEstimate] = None
        samples = self.open_samples
        if samples:
            n = len(samples)
            mean = sum(samples) / n
            var = sum((v - mean) ** 2 for v in samples) / n
            ordered = sorted(samples)
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
        # Advance across any number of empty epoch windows at once.
        elapsed = now_s - self.epoch_start_s
        skipped = int(elapsed // self.epoch_s)
        self.epoch_start_s += skipped * self.epoch_s
        self.epoch_index += skipped
        # Keep the pool, drop the closed epoch's samples beyond it.
        del self._buf[self.sample_pool_cap:]
        self._open_at = len(self._buf)
        return estimate

    # -- queries -----------------------------------------------------------

    @property
    def current_estimate(self) -> Optional[EpochEstimate]:
        """The latest closed-epoch estimate, if any."""
        return self.history[-1] if self.history else None

    def estimate_series(self) -> List[Tuple[float, float]]:
        """(epoch midpoint time, mean) pairs across closed epochs."""
        return [
            ((e.start_s + e.end_s) / 2.0, e.mean) for e in self.history
        ]

    def set_epoch_duration(self, epoch_s: float) -> None:
        """Adopt a new epoch duration starting from the next boundary."""
        _check_epoch_s(epoch_s)
        self.epoch_s = float(epoch_s)

    def set_sample_budget(self, budget: int) -> None:
        if budget < 1:
            raise ValueError("sample budget must be >= 1")
        self.sample_budget = int(budget)


class ZoneRecordStore:
    """All the coordinator's zone records, keyed by MetricKey."""

    def __init__(self, default_epoch_s: float, default_budget: int):
        _check_epoch_s(default_epoch_s)
        self.default_epoch_s = default_epoch_s
        self.default_budget = default_budget
        self._records: Dict[MetricKey, ZoneRecord] = {}

    def get(self, key: MetricKey, now_s: float = 0.0) -> ZoneRecord:
        """Fetch (creating if absent) the record for ``key``.

        A new record's first epoch is aligned to the current default
        epoch boundary so that zones created at different times still
        share comparable epoch grids.
        """
        rec = self._records.get(key)
        if rec is None:
            aligned = (now_s // self.default_epoch_s) * self.default_epoch_s
            rec = ZoneRecord(
                key=key,
                epoch_s=self.default_epoch_s,
                sample_budget=self.default_budget,
                first_epoch_start_s=aligned,
            )
            self._records[key] = rec
        return rec

    def peek(self, key: MetricKey) -> Optional[ZoneRecord]:
        """Fetch without creating."""
        return self._records.get(key)

    def keys(self) -> List[MetricKey]:
        return list(self._records.keys())

    def records(self) -> List[ZoneRecord]:
        return list(self._records.values())

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: MetricKey) -> bool:
        return key in self._records
