"""Unit tests for the NthLib runtime (job execution engine)."""

import pytest

from repro.qs.job import Job
from repro.runtime.nthlib import (
    IterationPlan,
    JobPhase,
    NthLibRuntime,
    RuntimeConfig,
    RuntimeHost,
)
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams


class FakeHost(RuntimeHost):
    """Scripted host: fixed allocation, collects reports/completions."""

    def __init__(self, allocation=4):
        self.allocation = allocation
        self.reports = []
        self.completed = []
        self.speed_factor = 1.0

    def iteration_plan(self, job, baseline):
        allocation = self.allocation
        procs = 1 if baseline else allocation
        speedup = job.spec.speedup_model.speedup(procs * self.speed_factor)
        return IterationPlan(allocation, procs, speedup, None, None, 1.0, None, {})

    def deliver_report(self, job, report):
        self.reports.append(report)

    def job_completed(self, job):
        self.completed.append(job)


def make_runtime(spec, allocation=4, noise=0.0, analyzer=True, host=None):
    sim = Simulator()
    job = Job(job_id=1, spec=spec, submit_time=0.0)
    job.mark_started(0.0)
    host = host or FakeHost(allocation)
    config = RuntimeConfig(noise_sigma=noise, use_selfanalyzer=analyzer)
    runtime = NthLibRuntime(sim, job, host, RandomStreams(0), config)
    host.runtime = runtime
    return sim, job, host, runtime


class TestExecution:
    def test_runs_to_completion(self, linear_app):
        sim, job, host, runtime = make_runtime(linear_app)
        runtime.start()
        sim.run()
        assert runtime.phase is JobPhase.DONE
        assert host.completed == [job]
        assert runtime.app.completed_iterations == linear_app.iterations

    def test_total_time_matches_closed_form_without_baseline(self, linear_app):
        # Disable the analyzer: every iteration runs on the full
        # allocation, so the wall time is the spec's ideal time.
        sim, job, host, runtime = make_runtime(linear_app, allocation=4, analyzer=False)
        runtime.start()
        end = sim.run()
        assert end == pytest.approx(linear_app.execution_time(4))

    def test_baseline_adds_sequential_iteration(self, linear_app):
        # With the analyzer the first iteration runs on one
        # processor: one iteration at 8s instead of 2s.
        sim, job, host, runtime = make_runtime(linear_app, allocation=4)
        runtime.start()
        end = sim.run()
        ideal = linear_app.execution_time(4)
        assert end == pytest.approx(ideal + (8.0 - 2.0))

    def test_cannot_start_twice(self, linear_app):
        sim, job, host, runtime = make_runtime(linear_app)
        runtime.start()
        with pytest.raises(RuntimeError):
            runtime.start()

    def test_progress(self, linear_app):
        sim, job, host, runtime = make_runtime(linear_app)
        runtime.start()
        sim.run()
        assert runtime.progress == 1.0

    def test_zero_allocation_raises(self, linear_app):
        sim, job, host, runtime = make_runtime(linear_app, allocation=0)
        runtime.start()
        with pytest.raises(RuntimeError):
            sim.run()


class TestReports:
    def test_reports_flow_to_host(self, linear_app):
        sim, job, host, runtime = make_runtime(linear_app, allocation=4)
        runtime.start()
        sim.run()
        # iterations = 10: 1 baseline + 1 transition skip leaves 8.
        assert len(host.reports) == 8
        assert all(r.job_id == 1 for r in host.reports)

    def test_report_speedup_matches_true_curve(self, linear_app):
        sim, job, host, runtime = make_runtime(linear_app, allocation=4)
        runtime.start()
        sim.run()
        for report in host.reports:
            assert report.speedup == pytest.approx(4.0)
            assert report.procs == 4

    def test_no_analyzer_means_no_reports(self, linear_app):
        sim, job, host, runtime = make_runtime(linear_app, analyzer=False)
        runtime.start()
        sim.run()
        assert host.reports == []
        assert runtime.analyzer is None

    def test_allocation_change_applies_next_iteration(self, linear_app):
        class GrowingHost(FakeHost):
            def deliver_report(self, job, report):
                super().deliver_report(job, report)
                self.allocation = 8  # RM grants more CPUs mid-run
                self.runtime.plan = None  # ... and drops the job's plan

        sim, job, host, runtime = make_runtime(linear_app, allocation=4,
                                               host=GrowingHost(4))
        runtime.start()
        sim.run()
        assert host.reports[0].procs == 4
        assert host.reports[-1].procs == 8

    def test_time_shared_speed_differs_from_nominal(self, linear_app):
        host = FakeHost(4)
        host.speed_factor = 0.5  # overcommitted machine: half speed
        sim, job, _, runtime = make_runtime(linear_app, analyzer=False, host=host)
        runtime.start()
        end = sim.run()
        assert end == pytest.approx(linear_app.execution_time(2))


class TestNoise:
    def test_noise_zero_is_deterministic(self, amdahl_app):
        ends = []
        for _ in range(2):
            sim, job, host, runtime = make_runtime(amdahl_app, noise=0.0)
            runtime.start()
            ends.append(sim.run())
        assert ends[0] == ends[1]

    def test_noise_perturbs_durations(self, amdahl_app):
        sim1, _, _, r1 = make_runtime(amdahl_app, noise=0.0)
        r1.start()
        end_clean = sim1.run()
        sim2, _, _, r2 = make_runtime(amdahl_app, noise=0.1)
        r2.start()
        end_noisy = sim2.run()
        assert end_noisy != end_clean

    def test_config_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            RuntimeConfig(noise_sigma=-0.1)
