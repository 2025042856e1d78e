"""Unit tests for the NANOS SelfAnalyzer."""

import pytest

from repro.runtime.selfanalyzer import SelfAnalyzer


def analyzer():
    return SelfAnalyzer(1)


class TestBaseline:
    def test_in_baseline_until_samples_collected(self):
        a = analyzer()
        assert a.t_base is None
        a.on_iteration(0.0, 0, 1, 10.0)
        # one iteration is the whole baseline, and t_base is its duration
        assert a.t_base == 10.0

    def test_baseline_iterations_produce_no_reports(self):
        a = analyzer()
        assert a.on_iteration(0.0, 0, 1, 10.0) is None


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
        assert report.speedup == 5.0
        assert report.efficiency == pytest.approx(5.0 / 8)

    def test_no_estimate_before_baseline(self):
        # the first iteration is the baseline whatever it ran on
        a = analyzer()
        assert a.on_iteration(0.0, 0, 4, 10.0) is None
        assert a.t_base == 10.0
        report = a.on_iteration(1.0, 1, 4, 5.0)
        assert report is not None and report.speedup == 2.0

    def test_speedup_never_nonpositive(self):
        a = analyzer()
        a.on_iteration(0.0, 0, 1, 1e-9)
        a.on_iteration(1.0, 1, 2, 100.0)
        report = a.on_iteration(2.0, 2, 2, 100.0)
        assert report is not None
        assert report.speedup == 1e-6


class TestSkipAfterRealloc:
    def test_transition_iterations_are_discarded(self):
        a = analyzer()
        a.on_iteration(0.0, 0, 1, 10.0)
        assert a.on_iteration(1.0, 1, 4, 9.0) is None   # change 1->4: skipped
        assert a.on_iteration(2.0, 2, 4, 2.5) is not None
        assert a.on_iteration(3.0, 3, 6, 2.0) is None   # change 4->6: skipped
        assert a.on_iteration(4.0, 4, 4, 2.5) is None   # change 6->4: skipped
        report = a.on_iteration(5.0, 5, 4, 2.5)
        assert report is not None and report.speedup == 4.0

    def test_no_skip_when_allocation_stable(self):
        a = analyzer()
        a.on_iteration(0.0, 0, 1, 10.0)
        report = a.on_iteration(1.0, 1, 1, 10.0)  # same procs as baseline: no skip
        assert report is not None
        assert report.speedup == 1.0


class TestReportCadence:
    def test_report_interval(self):
        # a report at every iteration on the count before it, none
        # at one after a change
        a = analyzer()
        a.on_iteration(0.0, 0, 1, 10.0)
        procs = [1, 1, 2, 2, 2, 3, 3, 1, 1]
        reports = [
            a.on_iteration(float(i), i, p, 10.0 / p) is not None
            for i, p in enumerate(procs, start=1)
        ]
        assert reports == [True, True, False, True, True, False, True, False, True]

    def test_reports_accumulate_and_last_report(self):
        a = analyzer()
        assert a.on_iteration(0.0, 0, 1, 10.0) is None  # baseline
        assert a.on_iteration(1.0, 1, 2, 5.0) is None  # 1 -> 2 CPUs
        reports = [a.on_iteration(2.0, 2, 2, 5.0), a.on_iteration(3.0, 3, 2, 5.0)]
        assert [(r.time, r.iteration, r.procs, r.iter_time) for r in reports] == [
            (2.0, 2, 2, 5.0), (3.0, 3, 2, 5.0),
        ]
        assert all(r.speedup == 2.0 for r in reports)

    def test_input_validation(self):
        a = analyzer()
        with pytest.raises(ValueError):
            a.on_iteration(0.0, 0, 1, 0.0)
        with pytest.raises(ValueError):
            a.on_iteration(0.0, 0, 0, 1.0)
