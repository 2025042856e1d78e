"""Unit tests for the NANOS SelfAnalyzer."""

import pytest
from hypothesis import given, strategies as st

from repro.fuzz.profiles import tier_settings
from repro.runtime.selfanalyzer import SelfAnalyzer, SelfAnalyzerConfig


def analyzer(**kwargs):
    return SelfAnalyzer(1, SelfAnalyzerConfig(**kwargs))


class TestConfigValidation:
    @pytest.mark.parametrize("bad", [
        dict(baseline_procs=0),
        dict(baseline_iterations=0),
        dict(assumed_base_speedup=0.5),
        dict(baseline_procs=1, assumed_base_speedup=1.5),
        dict(amdahl_factor=0.0),
        dict(report_interval=0),
        dict(skip_after_realloc=-1),
    ])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            SelfAnalyzerConfig(**bad)

    def test_defaults_are_valid(self):
        SelfAnalyzerConfig()


class TestBaseline:
    def test_in_baseline_until_samples_collected(self):
        a = analyzer(baseline_iterations=2)
        assert a.in_baseline
        a.on_iteration(0.0, 0, 1, 10.0)
        assert a.in_baseline
        a.on_iteration(10.0, 1, 1, 12.0)
        assert not a.in_baseline
        assert a.t_base == pytest.approx(11.0)

    def test_baseline_iterations_produce_no_reports(self):
        a = analyzer(baseline_iterations=3)
        for i in range(3):
            assert a.on_iteration(float(i), i, 1, 10.0) is None

    def test_baseline_allocation_clamped_to_current(self):
        a = analyzer(baseline_procs=4, assumed_base_speedup=3.5)
        assert a.baseline_allocation(16) == 4
        assert a.baseline_allocation(2) == 2
        assert a.baseline_allocation(1) == 1


class TestSpeedupEstimation:
    def test_sequential_baseline_gives_exact_speedup(self):
        a = analyzer()  # baseline on 1 processor
        a.on_iteration(0.0, 0, 1, 10.0)
        # Iteration at 5x speedup -> duration 2.0.
        report = a.on_iteration(10.0, 1, 8, 2.0)
        # First post-baseline iteration is skipped (allocation change).
        assert report is None
        report = a.on_iteration(12.0, 2, 8, 2.0)
        assert report is not None
        assert report.speedup == pytest.approx(5.0)
        assert report.efficiency == pytest.approx(5.0 / 8)

    def test_estimate_before_baseline_raises(self):
        a = analyzer()
        with pytest.raises(RuntimeError):
            a.estimate_speedup(4, 1.0)

    def test_amdahl_factor_scales_estimate(self):
        a = analyzer(amdahl_factor=0.8)
        a.on_iteration(0.0, 0, 1, 10.0)
        a.on_iteration(1.0, 1, 4, 5.0)   # skipped (transition)
        report = a.on_iteration(2.0, 2, 4, 5.0)
        assert report is not None
        assert report.speedup == pytest.approx(0.8 * 2.0)

    def test_assumed_speedup_interpolates_for_small_baselines(self):
        # Baseline configured for 4 procs (assumed 3.4) but the job only
        # had 2: the assumption scales to 1 + (3.4-1)*(1/3) = 1.8.
        a = analyzer(baseline_procs=4, assumed_base_speedup=3.4)
        a.on_iteration(0.0, 0, 2, 9.0)
        a.on_iteration(1.0, 1, 8, 3.0)   # transition, skipped
        report = a.on_iteration(2.0, 2, 8, 3.0)
        assert report is not None
        assert report.speedup == pytest.approx(1.8 * 9.0 / 3.0)

    def test_speedup_never_nonpositive(self):
        a = analyzer()
        a.on_iteration(0.0, 0, 1, 1e-9)
        a.on_iteration(1.0, 1, 2, 100.0)
        report = a.on_iteration(2.0, 2, 2, 100.0)
        assert report is not None
        assert report.speedup > 0


class TestSkipAfterRealloc:
    def test_transition_iterations_are_discarded(self):
        a = analyzer(skip_after_realloc=2)
        a.on_iteration(0.0, 0, 1, 10.0)
        assert a.on_iteration(1.0, 1, 4, 9.0) is None   # change 1->4, skip 1
        assert a.on_iteration(2.0, 2, 4, 2.5) is None   # skip 2
        report = a.on_iteration(3.0, 3, 4, 2.5)
        assert report is not None

    def test_no_skip_when_allocation_stable(self):
        a = analyzer(skip_after_realloc=1)
        a.on_iteration(0.0, 0, 1, 10.0)
        a.on_iteration(1.0, 1, 1, 10.0)  # same procs as baseline: no skip
        report = a.on_iteration(2.0, 2, 1, 10.0)
        assert report is not None
        assert report.speedup == pytest.approx(1.0)

    def test_skip_zero_reports_immediately(self):
        a = analyzer(skip_after_realloc=0)
        a.on_iteration(0.0, 0, 1, 10.0)
        report = a.on_iteration(1.0, 1, 5, 2.0)
        assert report is not None
        assert report.speedup == pytest.approx(5.0)


class TestReportCadence:
    def test_report_interval(self):
        a = analyzer(report_interval=3, skip_after_realloc=0)
        a.on_iteration(0.0, 0, 1, 10.0)
        reports = [
            a.on_iteration(float(i), i, 1, 10.0) is not None for i in range(1, 10)
        ]
        assert reports == [False, False, True, False, False, True, False, False, True]

    def test_reports_accumulate_and_last_report(self):
        a = analyzer(skip_after_realloc=0)
        assert a.on_iteration(0.0, 0, 1, 10.0) is None  # baseline
        reports = [a.on_iteration(1.0, 1, 2, 5.0), a.on_iteration(2.0, 2, 2, 5.0)]
        assert [(r.time, r.iteration, r.procs) for r in reports] == [
            (1.0, 1, 2), (2.0, 2, 2),
        ]
        assert all(r.speedup == pytest.approx(2.0) for r in reports)

    @tier_settings("standard")
    @given(
        steps=st.lists(
            st.tuples(st.integers(1, 4), st.sampled_from([0.5, 1.0, 2.5])), max_size=30
        ),
        report_interval=st.integers(1, 3),
        skip_after_realloc=st.integers(0, 2),
        baseline_iterations=st.integers(1, 3),
    )
    def test_commit_is_on_iteration_without_the_report(self, steps, **config):
        committed, reported = analyzer(**config), analyzer(**config)
        for i, (procs, duration) in enumerate(steps):
            due = committed.would_report(procs)
            assert committed.commit(procs, duration) is due
            report = reported.on_iteration(float(i), i, procs, duration)
            assert (report is not None) is due
            if due:
                assert report.speedup == committed.estimate_speedup(procs, duration)
        counters = ("t_base", "_base_speedup", "_measured", "_skip", "_last_procs")
        assert [getattr(committed, name) for name in counters] == \
            [getattr(reported, name) for name in counters]

    def test_input_validation(self):
        a = analyzer()
        with pytest.raises(ValueError):
            a.on_iteration(0.0, 0, 1, 0.0)
        with pytest.raises(ValueError):
            a.on_iteration(0.0, 0, 0, 1.0)
