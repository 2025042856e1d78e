"""Unit and property tests for the speedup-curve models."""

import pytest
from hypothesis import given, strategies as st

from repro.apps.speedup import (
    AmdahlSpeedup,
    DegradingSpeedup,
    TabulatedSpeedup,
    _pchip_slopes,
)


class TestAmdahl:
    def test_sequential_is_one(self):
        assert AmdahlSpeedup(0.1).speedup(1) == pytest.approx(1.0)

    def test_zero_serial_fraction_is_linear(self):
        curve = AmdahlSpeedup(0.0)
        for p in (1, 2, 7, 32):
            assert curve.speedup(p) == pytest.approx(p)

    def test_asymptote_is_inverse_serial_fraction(self):
        curve = AmdahlSpeedup(0.25)
        assert curve.speedup(10_000) == pytest.approx(4.0, rel=0.01)

    def test_efficiency_decreases(self):
        curve = AmdahlSpeedup(0.05)
        effs = [curve.efficiency(p) for p in (1, 2, 4, 8, 16)]
        assert effs == sorted(effs, reverse=True)

    def test_fractional_procs_below_one_scale_linearly(self):
        curve = AmdahlSpeedup(0.05)
        assert curve.speedup(0.5) == pytest.approx(0.5)

    def test_zero_procs(self):
        assert AmdahlSpeedup(0.05).speedup(0) == 0.0

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            AmdahlSpeedup(-0.1)
        with pytest.raises(ValueError):
            AmdahlSpeedup(1.1)

    @given(st.floats(0.001, 0.999), st.floats(1.0, 128.0))
    def test_speedup_bounded_by_procs_and_positive(self, f, p):
        s = AmdahlSpeedup(f).speedup(p)
        assert 0 < s <= p + 1e-9

    def test_iteration_time(self):
        curve = AmdahlSpeedup(0.0)
        assert curve.iteration_time(10.0, 5) == pytest.approx(2.0)

    def test_iteration_time_rejects_negative_work(self):
        with pytest.raises(ValueError):
            AmdahlSpeedup(0.0).iteration_time(-1.0, 4)


class TestTabulated:
    POINTS = [(1, 1.0), (4, 3.5), (8, 6.0), (16, 9.0), (32, 11.0)]

    def test_exact_at_control_points(self):
        curve = TabulatedSpeedup(self.POINTS)
        for p, s in self.POINTS:
            assert curve.speedup(p) == pytest.approx(s)

    def test_flat_extrapolation_beyond_last_point(self):
        curve = TabulatedSpeedup(self.POINTS)
        assert curve.speedup(64) == pytest.approx(11.0)
        assert curve.speedup(1000) == pytest.approx(11.0)

    def test_sub_sequential_procs_scale_linearly(self):
        curve = TabulatedSpeedup(self.POINTS)
        assert curve.speedup(0.5) == pytest.approx(0.5)

    def test_interpolation_is_monotone_for_monotone_data(self):
        curve = TabulatedSpeedup(self.POINTS)
        values = [curve.speedup(1 + i * 0.25) for i in range(0, 125)]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_interpolation_stays_within_bracket(self):
        curve = TabulatedSpeedup(self.POINTS)
        for p in (2.0, 5.5, 12.0, 20.0):
            lo = max(s for q, s in self.POINTS if q <= p)
            hi = min(s for q, s in self.POINTS if q >= p)
            assert lo - 1e-9 <= curve.speedup(p) <= hi + 1e-9

    def test_superlinear_detection(self):
        curve = TabulatedSpeedup([(1, 1.0), (8, 10.0), (16, 18.0)])
        assert curve.is_superlinear_at(8)
        assert not curve.is_superlinear_at(16.0 + 4)

    def test_non_monotone_data_allowed(self):
        # apsi-style: rises then falls.
        curve = TabulatedSpeedup([(1, 1.0), (4, 1.5), (16, 1.2)])
        assert curve.speedup(4) == pytest.approx(1.5)
        assert curve.speedup(16) == pytest.approx(1.2)
        assert curve.speedup(10) <= 1.5 + 1e-9

    def test_requires_first_point_one_one(self):
        with pytest.raises(ValueError):
            TabulatedSpeedup([(2, 2.0), (4, 3.0)])
        with pytest.raises(ValueError):
            TabulatedSpeedup([(1, 1.5), (4, 3.0)])

    def test_rejects_decreasing_procs(self):
        with pytest.raises(ValueError):
            TabulatedSpeedup([(1, 1.0), (4, 3.0), (4, 4.0)])

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            TabulatedSpeedup([(1, 1.0)])

    def test_rejects_nonpositive_speedup(self):
        with pytest.raises(ValueError):
            TabulatedSpeedup([(1, 1.0), (4, -2.0)])

    def test_control_points_accessor(self):
        curve = TabulatedSpeedup(self.POINTS)
        assert curve.control_points == [(float(p), float(s)) for p, s in self.POINTS]

    @given(
        st.lists(
            st.tuples(st.floats(1.1, 200.0), st.floats(0.1, 100.0)),
            min_size=2,
            max_size=8,
        )
    )
    def test_monotone_inputs_give_monotone_curve(self, raw):
        # Build strictly increasing (procs, speedup) data from raw draws.
        raw.sort()
        points = [(1.0, 1.0)]
        procs, speed = 1.0, 1.0
        for dp, ds in raw:
            procs += dp
            speed += ds
            points.append((procs, speed))
        curve = TabulatedSpeedup(points)
        xs = [1.0 + i * (procs - 1.0) / 200 for i in range(201)]
        values = [curve.speedup(x) for x in xs]
        assert all(b >= a - 1e-6 for a, b in zip(values, values[1:]))


class TestDegrading:
    def test_matches_base_up_to_peak(self):
        base = AmdahlSpeedup(0.1)
        curve = DegradingSpeedup(base, peak_procs=8, decay_per_proc=0.02)
        for p in (1, 4, 8):
            assert curve.speedup(p) == pytest.approx(base.speedup(p))

    def test_decays_past_peak(self):
        base = AmdahlSpeedup(0.1)
        curve = DegradingSpeedup(base, peak_procs=8, decay_per_proc=0.05)
        assert curve.speedup(9) < base.speedup(8)
        assert curve.speedup(20) < curve.speedup(9)

    def test_never_reaches_zero(self):
        curve = DegradingSpeedup(AmdahlSpeedup(0.5), 2, 0.5)
        assert curve.speedup(1000) > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            DegradingSpeedup(AmdahlSpeedup(0.1), peak_procs=0, decay_per_proc=0.1)
        with pytest.raises(ValueError):
            DegradingSpeedup(AmdahlSpeedup(0.1), peak_procs=4, decay_per_proc=1.0)


class TestPchipSlopes:
    def test_flat_data_gives_zero_slopes(self):
        slopes = _pchip_slopes([0, 1, 2], [5.0, 5.0, 5.0])
        assert slopes == [0.0, 0.0, 0.0]

    def test_local_extremum_gets_zero_slope(self):
        slopes = _pchip_slopes([0, 1, 2], [0.0, 1.0, 0.0])
        assert slopes[1] == 0.0


class TestMemoization:
    def test_compute_called_once_per_procs(self, monkeypatch):
        calls = []
        curve = AmdahlSpeedup(0.05)
        original = AmdahlSpeedup._compute

        def counting(self, procs):
            calls.append(procs)
            return original(self, procs)

        monkeypatch.setattr(AmdahlSpeedup, "_compute", counting)
        for _ in range(5):
            curve.speedup(8)
        assert calls == [8]
        curve.speedup(16)
        assert calls == [8, 16]

    def test_memoized_value_matches_compute(self):
        curve = AmdahlSpeedup(0.1)
        fresh = AmdahlSpeedup(0.1)
        for p in (1, 2, 4, 8, 16, 8, 4):
            assert curve.speedup(p) == fresh._compute(p)

    def test_cache_is_per_instance(self):
        a = AmdahlSpeedup(0.0)
        b = AmdahlSpeedup(0.5)
        assert a.speedup(4) == pytest.approx(4.0)
        assert b.speedup(4) == pytest.approx(1.6)

    def test_cache_bound_clears_and_stays_correct(self):
        from repro.apps import speedup as speedup_mod

        curve = AmdahlSpeedup(0.05)
        limit = speedup_mod._SPEEDUP_CACHE_LIMIT
        for p in range(1, limit + 10):
            curve.speedup(p)
        assert len(curve._speedup_cache) <= limit
        # Values after the clear are still correct.
        assert curve.speedup(2) == pytest.approx(AmdahlSpeedup(0.05)._compute(2))

    def test_degrading_curve_memoizes_decay(self):
        curve = DegradingSpeedup(AmdahlSpeedup(0.0), peak_procs=4, decay_per_proc=0.5)
        first = curve.speedup(8)
        assert curve.speedup(8) == first
        assert first < curve.speedup(4)
