"""Tests for the SchedulingPolicy base contract and folding under
performance-oblivious policies."""

import pytest

from repro.machine.machine import Machine
from repro.qs.job import Job, JobState
from repro.rm.base import JobView, SchedulingPolicy, SystemView
from repro.rm.equipartition import Equipartition
from repro.rm.manager import SpaceSharedResourceManager
from repro.runtime.nthlib import RuntimeConfig
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams


class MinimalPolicy(SchedulingPolicy):
    name = "minimal"

    def on_job_arrival(self, job, system):
        return {job.job_id: min(job.request, system.free_cpus)}

    def on_job_completion(self, job, system):
        return {}


def system_of(app, allocations, total=16):
    jobs = {
        jid: JobView(job=Job(jid, app, submit_time=0.0, request=8), allocation=a)
        for jid, a in allocations.items()
    }
    return SystemView(total, jobs)


class TestDefaultAdmission:
    def test_fixed_mpl_default(self, linear_app):
        policy = MinimalPolicy()  # fixed_mpl defaults to 4
        assert policy.wants_admission(system_of(linear_app, {1: 4}), 1)
        full = system_of(linear_app, {i: 2 for i in range(1, 5)})
        assert not policy.wants_admission(full, 1)

    def test_none_mpl_admits_until_cpu_per_job_exhausted(self, linear_app):
        policy = MinimalPolicy()
        policy.fixed_mpl = None
        many = system_of(linear_app, {i: 1 for i in range(1, 16)})
        assert policy.wants_admission(many, 1)
        crowded = system_of(linear_app, {i: 1 for i in range(1, 17)})
        assert not policy.wants_admission(crowded, 1)

    def test_default_on_report_is_noop(self, linear_app):
        policy = MinimalPolicy()
        system = system_of(linear_app, {1: 4})
        assert policy.on_report(system.jobs[1].job, None, system) == {}

    def test_default_absorb_report_declines(self, linear_app):
        policy = MinimalPolicy()
        system = system_of(linear_app, {1: 4})
        assert policy.absorb_report(system.jobs[1].job, 4, 4.0, system) is False

    def test_default_on_job_removed_is_noop(self, linear_app):
        MinimalPolicy().on_job_removed(Job(1, linear_app, submit_time=0.0))


class TestSystemViewAccounting:
    def test_allocated_and_free(self, linear_app):
        system = system_of(linear_app, {1: 4, 2: 6}, total=16)
        assert system.allocated_cpus == 10
        assert system.free_cpus == 6
        assert system.running_jobs == 2

    def test_view_of_unknown_raises(self, linear_app):
        with pytest.raises(KeyError):
            system_of(linear_app, {}).view_of(42)


class TestFoldingUnderObliviousPolicies:
    """Folding applies regardless of the policy in charge."""

    def test_equipartition_folds_rigid_jobs(self, linear_app):
        rigid = linear_app.as_rigid()  # request 16 processes
        sim = Simulator()
        machine = Machine(16)
        rm = SpaceSharedResourceManager(
            sim, machine, Equipartition(), RandomStreams(0),
            runtime_config=RuntimeConfig(noise_sigma=0.0),
        )
        j1 = Job(1, rigid, submit_time=0.0, request=16)
        j2 = Job(2, rigid, submit_time=0.0, request=16)
        rm.start_job(j1)
        rm.start_job(j2)   # equipartition folds both onto 8 CPUs
        assert machine.allocation_of(1) == 8
        sim.run()
        assert j1.state is JobState.DONE
        # Job 2 ran folded from the start (8 of 16 processes' CPUs),
        # then unfolded when job 1 finished; both must beat the fully
        # folded bound and lose to the dedicated bound.
        dedicated = rigid.execution_time(16)
        fully_folded = (rigid.iterations * rigid.t_iter_seq
                        / rigid.folded_speedup(16, 8))
        assert dedicated < j2.execution_time < fully_folded * 1.05
