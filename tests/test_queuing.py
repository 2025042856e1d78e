"""Unit tests for the NANOS queuing system."""

import pytest

from repro.machine.machine import Machine
from repro.metrics.trace import TraceRecorder
from repro.qs.job import Job, JobState
from repro.qs.queuing import NanosQS
from repro.rm.equipartition import Equipartition
from repro.rm.manager import SpaceSharedResourceManager
from repro.runtime.nthlib import RuntimeConfig
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams


def build(jobs, mpl=2, n_cpus=16):
    sim = Simulator()
    trace = TraceRecorder(n_cpus)
    machine = Machine(n_cpus, trace=trace)
    rm = SpaceSharedResourceManager(
        sim, machine, Equipartition(mpl=mpl), RandomStreams(0), trace,
        RuntimeConfig(noise_sigma=0.0),
    )
    qs = NanosQS(sim, rm, jobs, trace)
    qs.schedule_submissions()
    return sim, trace, rm, qs


class TestFcfs:
    def test_jobs_start_in_submission_order(self, linear_app):
        jobs = [Job(i, linear_app, submit_time=float(i), request=4)
                for i in range(1, 6)]
        sim, trace, rm, qs = build(jobs, mpl=2)
        sim.run()
        assert qs.all_done
        starts = sorted((j.start_time, j.job_id) for j in jobs)
        assert [jid for _, jid in starts] == [1, 2, 3, 4, 5]

    def test_all_jobs_complete(self, linear_app, flat_app):
        jobs = [
            Job(1, linear_app, submit_time=0.0, request=8),
            Job(2, flat_app, submit_time=1.0),
            Job(3, linear_app, submit_time=2.0, request=8),
        ]
        sim, trace, rm, qs = build(jobs, mpl=2)
        sim.run()
        assert qs.all_done
        assert qs.unfinished_jobs() == []
        assert all(j.state is JobState.DONE for j in jobs)


class TestMplEnforcement:
    def test_fixed_mpl_respected(self, linear_app, monkeypatch):
        jobs = [Job(i, linear_app, submit_time=0.0, request=4)
                for i in range(1, 7)]
        sim, trace, rm, qs = build(jobs, mpl=2)
        max_running = 0
        original = SpaceSharedResourceManager.start_job
        def counting_start(self, job):
            nonlocal max_running
            original(self, job)
            max_running = max(max_running, self.running_count)
        monkeypatch.setattr(SpaceSharedResourceManager, "start_job", counting_start)
        sim.run()
        assert qs.all_done
        assert max_running <= 2

    def test_waiting_jobs_start_on_completion(self, linear_app):
        jobs = [
            Job(1, linear_app, submit_time=0.0, request=8),
            Job(2, linear_app, submit_time=0.0, request=8),
            Job(3, linear_app, submit_time=0.0, request=8),
        ]
        sim, trace, rm, qs = build(jobs, mpl=2)
        sim.run()
        third = jobs[2]
        first_end = min(jobs[0].end_time, jobs[1].end_time)
        assert third.start_time == pytest.approx(first_end)


class TestObservability:
    def test_mpl_samples_recorded(self, linear_app):
        jobs = [Job(i, linear_app, submit_time=float(i), request=4)
                for i in range(1, 4)]
        sim, trace, rm, qs = build(jobs)
        sim.run()
        assert trace.mpl_samples
        assert max(s.running_jobs for s in trace.mpl_samples) <= 2
        # Samples are taken at arrivals, starts and completions.
        assert len(trace.mpl_samples) >= 2 * len(jobs)

    def test_queued_count_during_run(self, linear_app):
        jobs = [Job(i, linear_app, submit_time=0.0, request=8)
                for i in range(1, 5)]
        sim, trace, rm, qs = build(jobs, mpl=1)
        # Run just past the submissions: 3 jobs must be queued.
        sim.run(until=0.1)
        assert qs.queued_count == 3
        sim.run()
        assert qs.queued_count == 0


class TestRepeatability:
    def test_same_seed_same_outcome(self, amdahl_app):
        def one_run():
            jobs = [Job(i, amdahl_app, submit_time=float(i), request=8)
                    for i in range(1, 5)]
            sim, trace, rm, qs = build(jobs)
            sim.run()
            return [(j.start_time, j.end_time) for j in jobs]
        assert one_run() == one_run()
