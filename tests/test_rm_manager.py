"""Integration tests for the space-sharing resource manager."""

import pytest

from repro.machine.machine import Machine
from repro.metrics.trace import TraceRecorder
from repro.qs.job import Job, JobState
from repro.rm.base import SchedulingPolicy
from repro.rm.equipartition import Equipartition
from repro.rm.manager import SpaceSharedResourceManager
from repro.runtime.nthlib import RuntimeConfig
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams


class ScriptedPolicy(SchedulingPolicy):
    """Gives every arriving job a fixed allocation; ignores reports."""

    name = "scripted"

    def __init__(self, initial=4):
        self.initial = initial
        self.events = []

    def on_job_arrival(self, job, system):
        self.events.append(("arrival", job.job_id))
        return {job.job_id: self.initial}

    def on_job_completion(self, job, system):
        self.events.append(("completion", job.job_id))
        return {}

    def on_report(self, job, report, system):
        self.events.append(("report", job.job_id, report.procs))
        return {}


def make_rm(policy, n_cpus=16, noise=0.0):
    sim = Simulator()
    trace = TraceRecorder(n_cpus)
    machine = Machine(n_cpus, trace=trace)
    rm = SpaceSharedResourceManager(
        sim, machine, policy, RandomStreams(0), trace,
        RuntimeConfig(noise_sigma=noise),
    )
    return sim, machine, trace, rm


class TestJobLifecycle:
    def test_start_run_complete(self, linear_app):
        policy = ScriptedPolicy(initial=4)
        sim, machine, trace, rm = make_rm(policy)
        finished = []
        rm.on_job_finished = finished.append
        job = Job(1, linear_app, submit_time=0.0)
        rm.start_job(job)
        assert job.state is JobState.RUNNING
        assert machine.allocation_of(1) == 4
        sim.run()
        assert job.state is JobState.DONE
        assert finished == [job]
        assert machine.running_jobs() == []
        assert rm.running_count == 0

    def test_policy_hooks_fire_in_order(self, linear_app):
        policy = ScriptedPolicy(initial=4)
        sim, machine, trace, rm = make_rm(policy)
        job = Job(1, linear_app, submit_time=0.0)
        rm.start_job(job)
        sim.run()
        kinds = [event[0] for event in policy.events]
        assert kinds[0] == "arrival"
        assert kinds[-1] == "completion"
        assert "report" in kinds

    def test_reports_carry_measured_procs(self, linear_app):
        policy = ScriptedPolicy(initial=4)
        sim, machine, trace, rm = make_rm(policy)
        rm.start_job(Job(1, linear_app, submit_time=0.0))
        sim.run()
        report_events = [e for e in policy.events if e[0] == "report"]
        assert all(e[2] == 4 for e in report_events)

    def test_state_change_callback_fires(self, linear_app):
        policy = ScriptedPolicy()
        sim, machine, trace, rm = make_rm(policy)
        changes = []
        rm.on_state_change = lambda: changes.append(sim.now)
        rm.start_job(Job(1, linear_app, submit_time=0.0))
        sim.run()
        assert len(changes) >= 2  # at least start + completion


class TestDecisionEnforcement:
    def test_equipartition_rebalance_applied_to_machine(self, linear_app):
        policy = Equipartition(mpl=4)
        sim, machine, trace, rm = make_rm(policy)
        rm.start_job(Job(1, linear_app, submit_time=0.0, request=16))
        assert machine.allocation_of(1) == 16
        rm.start_job(Job(2, linear_app, submit_time=0.0, request=16))
        # Arrival shrinks job 1 to make room: 8 + 8.
        assert machine.allocation_of(1) == 8
        assert machine.allocation_of(2) == 8
        assert machine.free_cpus == 0

    def test_reallocation_records_written(self, linear_app):
        policy = Equipartition(mpl=4)
        sim, machine, trace, rm = make_rm(policy)
        rm.start_job(Job(1, linear_app, submit_time=0.0, request=16))
        rm.start_job(Job(2, linear_app, submit_time=0.0, request=16))
        # Initial placements are recorded as 0 -> N.
        initial = [r for r in trace.reallocations if r.old_procs == 0]
        assert len(initial) == 2
        shrink = [r for r in trace.reallocations if r.old_procs > r.new_procs]
        assert len(shrink) == 1 and shrink[0].job_id == 1
        assert rm.reallocation_count == 3

    def test_completion_redistributes(self, linear_app):
        policy = Equipartition(mpl=4)
        sim, machine, trace, rm = make_rm(policy)
        job1 = Job(1, linear_app, submit_time=0.0, request=16)
        rm.start_job(job1)
        rm.start_job(Job(2, linear_app, submit_time=0.0, request=16))
        sim.run()
        # After both complete the machine is empty; mid-run the second
        # job regained the full machine when the first finished.
        grow = [r for r in trace.reallocations
                if r.job_id == 2 and r.new_procs == 16 and r.old_procs == 8]
        assert grow

    def test_invalid_decision_rejected(self, linear_app):
        class Overcommitter(ScriptedPolicy):
            def on_job_arrival(self, job, system):
                return {job.job_id: 99}
        policy = Overcommitter()
        sim, machine, trace, rm = make_rm(policy)
        with pytest.raises(ValueError):
            rm.start_job(Job(1, linear_app, submit_time=0.0))

    def test_decision_for_unknown_job_rejected(self, linear_app):
        class Confused(ScriptedPolicy):
            def on_job_arrival(self, job, system):
                return {job.job_id: 2, 777: 3}
        policy = Confused()
        sim, machine, trace, rm = make_rm(policy)
        with pytest.raises(KeyError):
            rm.start_job(Job(1, linear_app, submit_time=0.0))


class TestSystemView:
    def test_view_reflects_machine(self, linear_app):
        policy = ScriptedPolicy(initial=6)
        sim, machine, trace, rm = make_rm(policy)
        rm.start_job(Job(1, linear_app, submit_time=0.0))
        view = rm.system_view()
        assert view.running_jobs == 1
        assert view.view_of(1).allocation == 6
        assert view.free_cpus == 10

    def test_view_without_excludes_job(self, linear_app):
        policy = ScriptedPolicy(initial=4)
        sim, machine, trace, rm = make_rm(policy)
        rm.start_job(Job(1, linear_app, submit_time=0.0))
        rm.start_job(Job(2, linear_app, submit_time=0.0))
        view = rm.system_view_without(1)
        assert set(view.jobs) == {2}

    def test_admission_delegates_to_policy(self, linear_app):
        policy = Equipartition(mpl=1)
        sim, machine, trace, rm = make_rm(policy)
        assert rm.can_admit(queued_jobs=1)
        rm.start_job(Job(1, linear_app, submit_time=0.0))
        assert not rm.can_admit(queued_jobs=1)


class TestAbsorbReport:
    """The RM's span hook declines every report while a report filter
    is installed or admission is clocked (EASY backfilling), though
    Equipartition's own hook takes every report."""

    def _running(self, linear_app):
        sim, machine, trace, rm = make_rm(Equipartition())
        job = Job(1, linear_app, submit_time=0.0, request=8)
        rm.start_job(job)
        sim.run(until=1.0)
        return rm, job

    def test_takes_a_noop_report(self, linear_app):
        rm, job = self._running(linear_app)
        assert rm.absorb_report(job, 8, 8.0)
        assert rm.last_report_time[1] == 1.0

    @pytest.mark.parametrize("mode", ["report_filter", "clocked_admission"])
    def test_declines_every_report(self, mode, linear_app):
        rm, job = self._running(linear_app)
        if mode == "report_filter":
            rm.report_filter = lambda job, report: report
        else:
            rm.clocked_admission = True
        before = dict(rm.last_report_time)
        assert not rm.absorb_report(job, 8, 8.0)
        assert rm.last_report_time == before
