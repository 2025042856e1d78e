"""Unit tests for the Paraver-style trace analyses."""

import pytest

from repro.metrics.paraver import (
    allocation_timeline,
    burst_statistics,
    execution_view,
    max_mpl,
    mean_allocation,
    mpl_timeline,
)
from repro.metrics.trace import (
    Burst, FoldingTraceRecorder, ReallocationRecord, TraceRecorder,
)


def trace_with_bursts():
    trace = TraceRecorder(4)
    trace.record_burst(Burst(0, 1, "swim", 0.0, 10.0))
    trace.record_burst(Burst(1, 1, "swim", 0.0, 10.0))
    trace.record_burst(Burst(0, 2, "bt.A", 10.0, 14.0))
    return trace


class TestTraceRecorder:
    def test_zero_length_bursts_dropped(self):
        trace = TraceRecorder(2)
        trace.record_burst(Burst(0, 1, "a", 5.0, 5.0))
        assert trace.bursts == []

    def test_negative_burst_rejected(self):
        trace = TraceRecorder(2)
        with pytest.raises(ValueError):
            trace.record_burst(Burst(0, 1, "a", 5.0, 4.0))

    @pytest.mark.parametrize("recorder", [TraceRecorder, FoldingTraceRecorder])
    def test_batch_with_a_negative_burst_records_none(self, recorder):
        trace = recorder(2)
        with pytest.raises(ValueError):
            trace.record_bursts([Burst(0, 1, "a", 0.0, 5.0), Burst(1, 1, "a", 5.0, 4.0)])
        assert trace.busy_time() == 0.0
        assert trace.horizon == 0.0

    def test_horizon_tracks_records(self):
        trace = trace_with_bursts()
        assert trace.horizon == 14.0
        trace.record_mpl(20.0, 1, 0)
        assert trace.horizon == 20.0

    def test_busy_time_and_utilization(self):
        trace = trace_with_bursts()
        assert trace.busy_time() == pytest.approx(24.0)
        # 24 cpu-seconds of 4 cpus * 14s horizon.
        assert trace.cpu_utilization() == pytest.approx(24.0 / 56.0)

    def test_bursts_for_cpu_and_job(self):
        trace = trace_with_bursts()
        assert len(trace.bursts_for_cpu(0)) == 2
        assert len(trace.bursts_for_job(1)) == 2

    def test_migration_counter_validation(self):
        trace = TraceRecorder(2)
        trace.record_migrations(5)
        assert trace.migrations == 5
        with pytest.raises(ValueError):
            trace.record_migrations(-1)

    def test_timeshare_segment_validation(self):
        trace = TraceRecorder(2)
        with pytest.raises(ValueError):
            trace.record_timeshare_segment(0, 5.0, 4.0, 2, 0.25)


class TestBurstStatistics:
    def test_exclusive_bursts_only(self):
        stats = burst_statistics(trace_with_bursts())
        assert stats.migrations == 0
        assert stats.avg_burst_time == pytest.approx(24.0 / 3)
        assert stats.avg_bursts_per_cpu == pytest.approx(3 / 2)

    def test_combines_synthetic_accounting(self):
        trace = trace_with_bursts()
        # cpu 2 time-shared by 3 apps for 10s with 0.5s quantum: 20 bursts.
        trace.record_timeshare_segment(2, 0.0, 10.0, 3, 0.5)
        stats = burst_statistics(trace)
        assert stats.avg_bursts_per_cpu == pytest.approx((3 + 20) / 3)

    def test_empty_trace(self):
        stats = burst_statistics(TraceRecorder(4))
        assert stats.avg_burst_time == 0.0
        assert stats.avg_bursts_per_cpu == 0.0


class TestMplAnalyses:
    def test_timeline_and_max(self):
        trace = TraceRecorder(4)
        trace.record_mpl(0.0, 1, 0)
        trace.record_mpl(5.0, 3, 2)
        trace.record_mpl(9.0, 2, 0)
        assert mpl_timeline(trace) == [(0.0, 1), (5.0, 3), (9.0, 2)]
        assert max_mpl(trace) == 3

    def test_empty(self):
        assert max_mpl(TraceRecorder(4)) == 0


class TestAllocationAnalyses:
    def test_allocation_timeline_sorted_and_filtered(self):
        trace = TraceRecorder(4)
        trace.record_reallocation(ReallocationRecord(5.0, 1, "swim", 4, 8))
        trace.record_reallocation(ReallocationRecord(1.0, 1, "swim", 0, 4))
        trace.record_reallocation(ReallocationRecord(2.0, 2, "bt.A", 0, 2))
        assert allocation_timeline(trace, 1) == [(1.0, 4), (5.0, 8)]

    def test_mean_allocation_time_weighted(self):
        trace = TraceRecorder(4)
        # Job 1 holds 2 cpus for 10s: mean allocation 2.
        trace.record_burst(Burst(0, 1, "swim", 0.0, 10.0))
        trace.record_burst(Burst(1, 1, "swim", 0.0, 10.0))
        assert mean_allocation(trace, 1) == pytest.approx(2.0)

    def test_mean_allocation_unknown_job(self):
        assert mean_allocation(TraceRecorder(4), 42) == 0.0


class TestExecutionView:
    def test_renders_each_cpu_line(self):
        view = execution_view(trace_with_bursts(), width=20)
        lines = view.splitlines()
        cpu_lines = [l for l in lines if l.startswith("cpu")]
        assert len(cpu_lines) == 4

    def test_symbols_reflect_dominant_app(self):
        view = execution_view(trace_with_bursts(), width=14, cpus=[0])
        cpu0 = next(l for l in view.splitlines() if l.startswith("cpu  0"))
        row = cpu0.split("|")[1]
        # swim for ~10/14 of the horizon, bt.A for the rest.
        assert row.count("S") > row.count("B") > 0

    def test_idle_cpus_are_dots(self):
        view = execution_view(trace_with_bursts(), width=10, cpus=[3])
        row = next(l for l in view.splitlines() if l.startswith("cpu  3"))
        assert set(row.split("|")[1]) == {"."}

    def test_time_shared_cpus_marked(self):
        trace = TraceRecorder(2)
        trace.record_timeshare_segment(0, 0.0, 10.0, 4, 0.25)
        view = execution_view(trace, width=10)
        row = next(l for l in view.splitlines() if l.startswith("cpu  0"))
        assert "#" in row

    def test_empty_trace(self):
        assert execution_view(TraceRecorder(2)) == "(empty trace)"

    def test_width_validation(self):
        with pytest.raises(ValueError):
            execution_view(trace_with_bursts(), width=5)
