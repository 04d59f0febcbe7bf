"""The percentile rule and the compare rule on fabricated samples."""

import pytest

from bench.stats import percentile, relative_iqr, verdict


def test_percentile_needs_ten_samples_beyond():
    values = list(range(1000))
    assert percentile(values, 0.99) == 989  # 990..999 lie beyond
    with pytest.raises(ValueError):
        percentile(values[:999], 0.99)
    assert percentile(range(300), 0.95) == 284
    assert percentile([5.0] * 21, 0.5) == 5.0


def test_percentile_is_order_free():
    assert percentile([3, 1, 2] * 10, 0.5) == 2


BASE = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]


def test_identical_runs_are_no_regression():
    assert verdict(BASE, BASE, "higher", 0.1) == "no regression"


def test_nine_of_ten_wins_with_a_clear_gap_is_a_gain():
    change = [p + 15.0 for p in BASE]
    change[3] = BASE[3] - 1.0
    assert verdict(BASE, change, "higher", 0.1) == "gain"


def test_eight_of_ten_wins_is_no_gain():
    change = [p + 10.0 for p in BASE]
    change[3] = BASE[3] - 1.0
    change[7] = BASE[7] - 1.0
    assert verdict(BASE, change, "higher", 0.1) == "no regression"


def test_ties_count_for_neither_side():
    change = [p + 15.0 for p in BASE]
    change[3] = BASE[3]
    assert verdict(BASE, change, "higher", 0.1) == "gain"  # 9 wins, 1 tie
    change[7] = BASE[7]
    assert verdict(BASE, change, "higher", 0.1) == "no regression"  # 8 wins


def test_gain_needs_more_than_the_parent_spread():
    change = [p + 0.5 for p in BASE]  # wins every pair, gap < IQR
    assert verdict(BASE, change, "higher", 0.1) == "no regression"


def test_gain_needs_more_than_the_bound():
    steady = [100.0 + i * 0.001 for i in range(10)]
    change = [p + 1.0 for p in steady]  # wins every pair, gap >> IQR, 1%
    assert verdict(steady, change, "higher", 0.1) == "no regression"
    assert verdict(steady, change, "higher", 0.0) == "gain"


def test_regression_beyond_the_bound():
    change = [p * 0.85 for p in BASE]
    assert verdict(BASE, change, "higher", 0.1) == "regression"
    assert verdict(BASE, change, "higher", 0.2) == "no regression"
    slower = [p * 1.15 for p in BASE]
    assert verdict(BASE, slower, "lower", 0.1) == "regression"
    assert verdict(BASE, slower, "higher", 0.1) == "gain"


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0,
             100.0]
    assert relative_iqr(noisy) > 0.1
    assert verdict(noisy, list(reversed(noisy)), "higher", 0.1) \
        == "unresolved"
    assert verdict(noisy, [v * 0.5 for v in noisy], "higher", 0.1) \
        == "unresolved"


def test_wide_spread_but_every_change_run_better_is_not_unresolved():
    parent = [100.0, 200.0] * 5
    change = [201.0 + i for i in range(10)]
    assert verdict(parent, change, "higher", 0.1) == "no regression"


def test_verdict_needs_paired_runs():
    with pytest.raises(ValueError):
        verdict(BASE, BASE[:-1], "higher", 0.1)
