"""Unit tests for response/execution-time aggregation and tables."""

import pytest

from repro.metrics.faults import fault_statistics
from repro.metrics.paraver import burst_statistics, mean_allocation
from repro.metrics.stats import (
    ClassSummary,
    JobRecord,
    WorkloadResult,
    fold_sum,
    format_table,
    summarize_by_app,
)
from repro.metrics.trace import Burst, FaultRecord, FoldingTraceRecorder, TraceRecorder
from repro.qs.job import Job


def record(job_id=1, app="swim", submit=0.0, start=5.0, end=20.0, klass="superlinear"):
    return JobRecord(
        job_id=job_id, app_name=app, app_class=klass, request=30,
        submit_time=submit, start_time=start, end_time=end,
    )


class TestJobRecord:
    def test_derived_metrics(self):
        r = record(submit=2.0, start=5.0, end=20.0)
        assert r.wait_time == pytest.approx(3.0)
        assert r.execution_time == pytest.approx(15.0)
        assert r.response_time == pytest.approx(18.0)

    def test_from_job(self, linear_app):
        job = Job(1, linear_app, submit_time=1.0)
        job.mark_started(2.0)
        job.mark_finished(10.0)
        r = JobRecord.from_job(job)
        assert r.app_name == "linear"
        assert r.execution_time == pytest.approx(8.0)

    def test_from_incomplete_job_raises(self, linear_app):
        job = Job(1, linear_app, submit_time=1.0)
        with pytest.raises(ValueError):
            JobRecord.from_job(job)


class TestSummaries:
    def test_class_summary_means(self):
        records = [record(1, end=20.0), record(2, end=30.0)]
        summary = ClassSummary.from_records("swim", records)
        assert summary.count == 2
        assert summary.mean_response_time == pytest.approx((20.0 + 30.0) / 2)
        assert summary.max_response_time == pytest.approx(30.0)

    def test_empty_summary_raises(self):
        with pytest.raises(ValueError):
            ClassSummary.from_records("swim", [])

    def test_summarize_by_app_groups(self):
        records = [record(1, app="swim"), record(2, app="bt.A"), record(3, app="swim")]
        groups = summarize_by_app(records)
        assert set(groups) == {"swim", "bt.A"}
        assert groups["swim"].count == 2


class TestWorkloadResult:
    def make_result(self):
        return WorkloadResult(
            policy="PDPA", load=0.8,
            records=[record(1, submit=10.0, end=50.0),
                     record(2, app="bt.A", submit=0.0, end=100.0)],
            makespan=100.0,
        )

    def test_by_app_and_summary(self):
        result = self.make_result()
        assert result.summary("swim").count == 1
        with pytest.raises(KeyError):
            result.summary("apsi")

    def test_total_execution_time_from_first_submission(self):
        result = self.make_result()
        assert result.total_execution_time == pytest.approx(100.0 - 0.0)

    def test_mean_response_time(self):
        result = self.make_result()
        assert result.mean_response_time == pytest.approx((40.0 + 100.0) / 2)

    def test_empty_result(self):
        result = WorkloadResult(policy="x", load=0.0)
        assert result.total_execution_time == 0.0
        assert result.mean_response_time == 0.0


class TestFormatTable:
    def test_alignment_and_float_formatting(self):
        text = format_table(["name", "value"], [["a", 1.25], ["long", 10]])
        lines = text.splitlines()
        assert lines[0].endswith("value")
        assert "1.2" in text or "1.3" in text
        # All rows share the same width.
        assert len(set(len(line) for line in lines)) == 1

    def test_title(self):
        text = format_table(["h"], [["x"]], title="My table")
        assert text.splitlines()[0] == "My table"

    def test_mismatched_row_raises(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])


class TestLeftFoldSums:
    """Float aggregates over a trace are strict left folds on every
    interpreter.  ``1e16 + 1.0 + 1.0`` folds to ``1e16`` (each 1.0 is
    half an ulp and rounds away), while the builtin ``sum`` on CPython
    3.12+ compensates to ``1.0000000000000002e16``."""

    DURATIONS = (1e16, 1.0, 1.0)

    def test_fold_sum_is_the_left_fold(self):
        assert fold_sum(self.DURATIONS) == 1e16

    def test_busy_time_folds_bursts_and_synthetic_loads(self):
        bursts, synthetic = TraceRecorder(3), FoldingTraceRecorder(3)
        for cpu, duration in enumerate(self.DURATIONS):
            bursts.record_burst(Burst(cpu, 1, "a", 0.0, duration))
            synthetic.record_timeshare_segment(cpu, 0.0, duration, 1, 0.25)
        assert bursts.busy_time() == 1e16
        assert synthetic.busy_time() == 1e16
        stats = burst_statistics(bursts)
        assert stats.avg_burst_time == 1e16 / 3
        # the job's CPU-seconds over its span [0, 1e16]
        assert mean_allocation(bursts, 1) == 1.0

    def test_fault_statistics_fold_downtime_repairs_and_lost_work(self):
        trace = TraceRecorder(3)
        for cpu, duration in enumerate(self.DURATIONS):
            trace.record_fault(FaultRecord(0.0, "cpu_fail", cpu))
            trace.record_fault(FaultRecord(duration, "cpu_repair", cpu))
            trace.record_fault(FaultRecord(duration, "job_kill", cpu, value=duration))
        stats = fault_statistics(trace)
        assert stats.availability == 1.0 - 1e16 / (3 * 1e16)
        assert stats.mttr == 1e16 / 3
        assert stats.lost_work == 1e16
