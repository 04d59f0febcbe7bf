"""Metrics primitives: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` is the single mutable sink every instrumented
layer writes to.  Three deliberate constraints keep it fit for the hot
paths it instruments:

* **Dependency-free and allocation-light** — metric objects are plain
  Python objects created once and cached by name; the steady-state cost
  of ``registry.counter("x").inc()`` is a dict lookup plus an int add
  (both atomic under the GIL, hence lock-free in the common case).
* **No wall-clock anywhere** — snapshots are pure functions of what was
  recorded, so two identical seeded runs produce byte-identical
  ``metrics.json`` files.
* **A true no-op twin** — :class:`NullMetricsRegistry` hands out shared
  do-nothing metric objects, so instrumentation left in a hot loop costs
  one method call when telemetry is disabled and golden outputs stay
  bit-identical (no RNG draw, no state, no I/O).

Histograms use fixed bucket boundaries chosen at creation time (the
first caller wins; later callers with different boundaries get the
existing histogram).  Fixed buckets make merged/streamed aggregation
trivial and keep ``observe`` O(log n_buckets) via bisection.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro._canon import pretty_json

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_REGISTRY",
    "DEFAULT_BUCKETS",
    "merge_snapshots",
    "quantile_from_snapshot",
]

#: Default histogram boundaries: log-ish spread covering probabilities,
#: latencies in seconds, and small counts alike.  Callers with a known
#: scale should pass explicit ``buckets``.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
)


class Counter:
    """A monotonically increasing count (float increments allowed)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative by convention)."""
        self.value += amount


class Gauge:
    """A point-in-time value that can move either way."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the current value."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Move the value up by ``amount``."""
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Move the value down by ``amount``."""
        self.value -= amount

    def max(self, value: float) -> None:
        """Keep the running maximum (high-water-mark gauges)."""
        if value > self.value:
            self.value = float(value)


class Histogram:
    """Fixed-boundary bucketed distribution with sum/min/max.

    ``counts[i]`` counts observations ``<= bounds[i]``; the final slot
    is the overflow bucket (``> bounds[-1]``).
    """

    __slots__ = ("name", "bounds", "counts", "total", "sum", "min", "max")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS):
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.name = name
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one sample into its bucket (O(log n_buckets))."""
        v = float(value)
        self.counts[bisect_left(self.bounds, v)] += 1
        self.total += 1
        self.sum += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v

    @property
    def mean(self) -> float:
        """Exact mean of all observations (0.0 when empty)."""
        return self.sum / self.total if self.total else 0.0

    def percentile(self, q: float) -> float:
        """Approximate q-quantile (q in [0, 1]) from bucket boundaries.

        Returns the upper bound of the bucket containing the quantile
        (the observed max for the overflow bucket) — the usual
        fixed-bucket estimate: exact ordering is gone, the bound is a
        guaranteed over-estimate by at most one bucket width.  The
        extremes are exact: ``q=0`` is the observed min and ``q=1`` the
        observed max, which also clamps every estimate into
        ``[min, max]`` so percentiles are monotone in ``q``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.total == 0:
            return float("nan")
        if q == 0.0:
            return self.min
        if q == 1.0:
            return self.max
        rank = q * self.total
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank and c:
                if i < len(self.bounds):
                    # Clamp to the observed range: a one-bucket histogram
                    # (or one whose samples all land below a wide bound)
                    # would otherwise report a bound no sample reached.
                    return min(max(self.bounds[i], self.min), self.max)
                return self.max
        return self.max

    def snapshot(self) -> dict:
        """JSON-ready state: buckets, counts, count/sum/min/max."""
        return {
            "buckets": list(self.bounds),
            "counts": list(self.counts),
            "count": self.total,
            "sum": self.sum,
            "min": self.min if self.total else None,
            "max": self.max if self.total else None,
        }


def quantile_from_snapshot(snapshot: dict, q: float) -> float:
    """Fixed-bucket q-quantile from a serialized histogram snapshot.

    The file-side twin of :meth:`Histogram.percentile`, with the same
    edge-case contract (NaN when empty, exact min/max at q=0/q=1,
    estimates clamped into the observed range), so reports rendered
    from ``metrics.json``/``snapshots.jsonl`` agree with live queries.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    total = snapshot.get("count", 0)
    if not total:
        return float("nan")
    lo = snapshot.get("min")
    hi = snapshot.get("max")
    lo = float("-inf") if lo is None else lo
    hi = float("inf") if hi is None else hi
    if q == 0.0 and lo > float("-inf"):
        return lo
    if q == 1.0 and hi < float("inf"):
        return hi
    rank = q * total
    seen = 0
    bounds = snapshot.get("buckets", [])
    for i, c in enumerate(snapshot.get("counts", [])):
        seen += c
        if seen >= rank and c:
            if i < len(bounds):
                return min(max(bounds[i], lo), hi)
            return hi if hi < float("inf") else float("nan")
    return hi if hi < float("inf") else float("nan")


def merge_snapshots(snapshots: Iterable[dict], *, gauges: str,
                    warnings: Optional[List[str]]) -> dict:
    """Fold registry snapshots, in the order given, into one snapshot.

    Counters sum; histograms merge bucket-wise (min/max ignore
    ``None``).  Float results depend on the order, so callers pass a
    canonical one: shard-id order for shards, cell-id order for cells.

    * ``gauges="sum"``: the snapshots *partition* the state (shards own
      disjoint zones).  ``gauges="mean"``: they *replicate* a run
      (sweep cells); a gauge averages over the snapshots holding it.
    * ``warnings=None``: bucket bounds are trusted (compiled in), so a
      histogram whose bounds differ from the first snapshot's raises
      ValueError.  A list: the mismatch is appended to it, and only
      count/sum/min/max fold into the first layout.
    """
    if gauges not in ("sum", "mean"):
        raise ValueError(f"gauges must be 'sum' or 'mean', not {gauges!r}")
    counters: Dict[str, float] = {}
    gauge_sums: Dict[str, float] = {}
    gauge_counts: Dict[str, int] = {}
    histograms: Dict[str, dict] = {}
    for snap in snapshots:
        for name, value in (snap.get("counters") or {}).items():
            counters[name] = counters.get(name, 0.0) + float(value)
        for name, value in (snap.get("gauges") or {}).items():
            gauge_sums[name] = gauge_sums.get(name, 0.0) + float(value)
            gauge_counts[name] = gauge_counts.get(name, 0) + 1
        for name, hist in (snap.get("histograms") or {}).items():
            merged = histograms.get(name)
            if merged is None:
                histograms[name] = {
                    "buckets": list(hist.get("buckets", [])),
                    "counts": list(hist.get("counts", [])),
                    "count": int(hist.get("count", 0)),
                    "sum": float(hist.get("sum", 0.0)),
                    "min": hist.get("min"),
                    "max": hist.get("max"),
                }
                continue
            if list(hist.get("buckets", [])) == merged["buckets"]:
                counts = hist.get("counts", [])
                merged["counts"] = [
                    a + b for a, b in zip(merged["counts"], counts)
                ] if merged["counts"] else list(counts)
            elif warnings is None:
                raise ValueError(
                    f"histogram {name!r}: bucket bounds differ across "
                    "snapshots"
                )
            else:
                warnings.append(
                    f"histogram {name}: bucket layouts differ across "
                    "cells; bucket detail kept from the first cell only"
                )
            merged["count"] += int(hist.get("count", 0))
            merged["sum"] += float(hist.get("sum", 0.0))
            for key, pick in (("min", min), ("max", max)):
                value = hist.get(key)
                if value is not None:
                    merged[key] = value if merged[key] is None else pick(
                        merged[key], value
                    )
    if gauges == "mean":
        gauge_sums = {name: gauge_sums[name] / gauge_counts[name]
                      for name in gauge_sums}
    return {
        "counters": {k: counters[k] for k in sorted(counters)},
        "gauges": {k: gauge_sums[k] for k in sorted(gauge_sums)},
        "histograms": {k: histograms[k] for k in sorted(histograms)},
    }


class MetricsRegistry:
    """Named metric store; the write side of the telemetry layer."""

    enabled = True

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- access (create on first use) ----------------------------------

    def counter(self, name: str) -> Counter:
        """The named counter, created on first use."""
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        """The named gauge, created on first use."""
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        """The named histogram; ``buckets`` only applies on creation."""
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(
                name, buckets if buckets is not None else DEFAULT_BUCKETS
            )
        return h

    # -- read side -------------------------------------------------------

    def counter_value(self, name: str) -> float:
        """Current value of a counter (0.0 if never incremented)."""
        c = self._counters.get(name)
        return c.value if c is not None else 0.0

    def gauge_value(self, name: str) -> float:
        """Current value of a gauge (0.0 if never set)."""
        g = self._gauges.get(name)
        return g.value if g is not None else 0.0

    def snapshot(self) -> dict:
        """Deterministic (sorted-key) dict of every metric's state."""
        return {
            "counters": {
                k: self._counters[k].value for k in sorted(self._counters)
            },
            "gauges": {
                k: self._gauges[k].value for k in sorted(self._gauges)
            },
            "histograms": {
                k: self._histograms[k].snapshot()
                for k in sorted(self._histograms)
            },
        }

    def to_json(self) -> str:
        """Canonical JSON rendering (byte-stable across identical runs)."""
        return pretty_json(self.snapshot())


class _NullCounter:
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    value = 0.0


class _NullGauge:
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def max(self, value: float) -> None:
        pass

    value = 0.0


class _NullHistogram:
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass

    total = 0
    sum = 0.0
    mean = 0.0

    def percentile(self, q: float) -> float:
        return float("nan")

    def snapshot(self) -> dict:
        return {}


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class NullMetricsRegistry:
    """Do-nothing registry: every handle is a shared no-op singleton.

    This is what disabled telemetry hands to instrumentation sites, so
    the per-call cost is one attribute lookup and one no-op call — the
    overhead the ``benchmarks/test_telemetry_overhead.py`` gate bounds.
    """

    enabled = False

    def counter(self, name: str) -> _NullCounter:
        """The shared no-op counter."""
        return _NULL_COUNTER

    def gauge(self, name: str) -> _NullGauge:
        """The shared no-op gauge."""
        return _NULL_GAUGE

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> _NullHistogram:
        """The shared no-op histogram."""
        return _NULL_HISTOGRAM

    def counter_value(self, name: str) -> float:
        """Always 0.0 — nothing is recorded when disabled."""
        return 0.0

    def gauge_value(self, name: str) -> float:
        """Always 0.0 — nothing is recorded when disabled."""
        return 0.0

    def snapshot(self) -> dict:
        """The empty snapshot shape (same keys as the real registry)."""
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def to_json(self) -> str:
        """Canonical JSON of the (empty) snapshot."""
        return pretty_json(self.snapshot())


#: Shared no-op registry instance (stateless, safe to share globally).
NULL_REGISTRY = NullMetricsRegistry()
