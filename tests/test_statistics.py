"""Tests for the statistics toolbox."""

import pytest
from hypothesis import example, given, strategies as st

from repro.metrics.statistics import (
    bounded_slowdown,
    confidence_interval,
    mean,
    mean_bounded_slowdown,
    percentile,
    std,
    summary,
)


class TestPercentile:
    def test_single_value(self):
        assert percentile([7.0], 50) == 7.0
        assert percentile([7.0], 0) == 7.0

    def test_median_of_odd_sample(self):
        assert percentile([3, 1, 2], 50) == 2

    def test_median_interpolates_even_sample(self):
        assert percentile([1, 2, 3, 4], 50) == pytest.approx(2.5)

    def test_extremes(self):
        data = [5, 1, 9, 3]
        assert percentile(data, 0) == 1
        assert percentile(data, 100) == 9

    def test_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 101)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
           st.floats(0, 100))
    def test_percentile_within_range(self, values, q):
        p = percentile(values, q)
        assert min(values) <= p <= max(values)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=30))
    @example([0.0, 5e-324, 5e-324])  # a*(1-f) + b*f underflowed to 0.0 at q=75
    def test_percentile_monotone_in_q(self, values):
        ps = [percentile(values, q) for q in (0, 25, 50, 75, 100)]
        assert ps == sorted(ps)


class TestMoments:
    def test_mean(self):
        assert mean([1, 2, 3]) == pytest.approx(2.0)

    def test_mean_empty_raises(self):
        with pytest.raises(ValueError):
            mean([])

    def test_std_of_constant_sample(self):
        assert std([4, 4, 4]) == 0.0

    def test_std_known_value(self):
        assert std([2, 4, 4, 4, 5, 5, 7, 9]) == pytest.approx(2.138, rel=0.01)

    def test_std_single_value(self):
        assert std([3]) == 0.0


class TestSummary:
    def test_fields(self):
        s = summary([1, 2, 3, 4, 100])
        assert s.count == 5
        assert s.minimum == 1 and s.maximum == 100
        assert s.median == 3
        assert s.mean == pytest.approx(22.0)

    def test_as_row(self):
        row = summary([1.0, 2.0]).as_row("metric")
        assert row[0] == "metric"
        assert row[1] == 2

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summary([])


class TestConfidenceInterval:
    def test_single_sample_collapses(self):
        assert confidence_interval([5.0]) == (5.0, 5.0)

    def test_contains_mean(self):
        lo, hi = confidence_interval([1, 2, 3, 4, 5])
        assert lo < 3 < hi

    def test_narrows_with_sample_size(self):
        small = confidence_interval([1, 5] * 3)
        large = confidence_interval([1, 5] * 100)
        assert (large[1] - large[0]) < (small[1] - small[0])


class TestBoundedSlowdown:
    def test_no_wait_is_one(self):
        assert bounded_slowdown(0.0, 100.0) == 1.0

    def test_wait_inflates(self):
        assert bounded_slowdown(100.0, 100.0) == pytest.approx(2.0)

    def test_tau_bounds_tiny_jobs(self):
        # A 1-second job waiting 100 s: slowdown bounded by tau=10.
        assert bounded_slowdown(100.0, 1.0, tau=10.0) == pytest.approx(101.0 / 10.0)

    def test_never_below_one(self):
        assert bounded_slowdown(0.0, 0.5, tau=10.0) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            bounded_slowdown(-1.0, 1.0)
        with pytest.raises(ValueError):
            bounded_slowdown(1.0, 1.0, tau=0.0)

    def test_mean_over_records(self):
        class R:
            def __init__(self, wait, execution):
                self.wait_time = wait
                self.execution_time = execution
        records = [R(0.0, 100.0), R(100.0, 100.0)]
        assert mean_bounded_slowdown(records) == pytest.approx(1.5)

    def test_mean_empty_raises(self):
        with pytest.raises(ValueError):
            mean_bounded_slowdown([])
