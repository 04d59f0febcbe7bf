"""Percentiles, spreads and the rule that decides a comparison."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A reported percentile needs at least this many samples beyond it.
MIN_BEYOND = 10

#: A gain needs the change to win at least this share of all pairs.
WIN_SHARE = 0.9


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile, refusing one the sample cannot support.

    Raises ValueError unless at least :data:`MIN_BEYOND` samples lie
    strictly beyond the reported one.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = max(0, math.ceil(q * n) - 1)
    beyond = n - 1 - rank
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q * 100:g} of {n} samples has {beyond} beyond it; "
            f"need {MIN_BEYOND}"
        )
    return ordered[rank]


def quartiles(values: Sequence[float]):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    return tuple(statistics.quantiles(values, n=4))


def relative_iqr(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else math.inf


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> str:
    """Classify paired runs of one metric: gain, regression, unresolved,
    or no regression.

    ``parent[i]`` and ``change[i]`` form pair ``i``.  A gain needs the
    change to win at least :data:`WIN_SHARE` of all pairs (ties count for
    neither side), and the medians to differ by more than the parent's
    quartile distance and by more than ``bound`` of the parent's median
    (so a metric that repeats almost exactly cannot gain by a hair).
    Otherwise, when either side's relative spread
    exceeds ``bound``, the result is unresolved unless every change run
    reads better than every parent run.  A regression is a median worse
    than the parent's by more than ``bound`` of it.
    """
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need the same number (>= 2) of parent and "
                         "change runs")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    q1, med_p, q3 = quartiles(parent)
    gap = sign * (statistics.median(change) - med_p)
    if (wins >= WIN_SHARE * len(parent) and gap > q3 - q1
            and gap > bound * abs(med_p)):
        return "gain"
    if max(relative_iqr(parent), relative_iqr(change)) > bound:
        dominated = (min(sign * c for c in change)
                     > max(sign * p for p in parent))
        return "no regression" if dominated else "unresolved"
    if -gap > bound * abs(med_p):
        return "regression"
    return "no regression"
