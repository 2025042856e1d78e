"""Tests for rigid (MPI-style) applications and processor folding.

The paper's §6 sketches two approaches for MPI codes; the one
implemented here is "to limit the number of processors used by such
applications by folding their processes on a number of processors".
"""

import pytest

from repro.apps.application import AppClass, ApplicationSpec
from repro.apps.speedup import AmdahlSpeedup
from repro.core.pdpa import PDPA
from repro.core.states import AppState
from repro.experiments.common import ExperimentConfig, run_jobs
from repro.machine.machine import Machine
from repro.qs.job import Job, JobState
from repro.rm.manager import SpaceSharedResourceManager
from repro.runtime.nthlib import RuntimeConfig
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams


@pytest.fixture
def rigid_app(linear_app):
    return linear_app.as_rigid()


class TestSpecFolding:
    def test_as_rigid_flips_malleable_only(self, linear_app):
        rigid = linear_app.as_rigid()
        assert not rigid.malleable
        assert linear_app.malleable
        assert rigid.iterations == linear_app.iterations

    def test_full_allocation_runs_at_curve_speed(self, linear_app):
        assert linear_app.folded_speedup(16, 16) == pytest.approx(
            linear_app.speedup_model.speedup(16)
        )

    def test_folding_scales_linearly_with_allocation(self, linear_app):
        full = linear_app.folded_speedup(16, 16)
        assert linear_app.folded_speedup(16, 8) == pytest.approx(full / 2)
        assert linear_app.folded_speedup(16, 4) == pytest.approx(full / 4)

    def test_extra_processors_do_not_help(self, linear_app):
        # A rigid app cannot use more CPUs than processes.
        assert linear_app.folded_speedup(16, 32) == pytest.approx(
            linear_app.folded_speedup(16, 16)
        )

    def test_validation(self, linear_app):
        with pytest.raises(ValueError):
            linear_app.folded_speedup(0, 4)
        with pytest.raises(ValueError):
            linear_app.folded_speedup(16, 0)

    def test_folding_beats_nothing_but_loses_to_malleability(self):
        # For an Amdahl app, running 16 processes folded on 8 CPUs is
        # slower than reshaping to 8 processes on 8 CPUs.
        spec = ApplicationSpec(
            name="m", app_class=AppClass.MEDIUM,
            speedup_model=AmdahlSpeedup(0.05), iterations=10, t_iter_seq=1.0,
        )
        folded = spec.folded_speedup(16, 8)
        reshaped = spec.speedup_model.speedup(8)
        assert folded < reshaped


class TestRigidExecution:
    def _run_one(self, spec, granted, n_cpus=16):
        sim = Simulator()
        machine = Machine(n_cpus)
        policy = PDPA()
        rm = SpaceSharedResourceManager(
            sim, machine, policy, RandomStreams(0),
            runtime_config=RuntimeConfig(noise_sigma=0.0),
        )
        # Pre-occupy CPUs so the rigid job gets exactly `granted`.
        if granted < spec.default_request:
            blocker = Job(99, spec, submit_time=0.0, request=n_cpus - granted)
            rm.start_job(blocker)
        job = Job(1, spec, submit_time=0.0)
        rm.start_job(job)
        assert machine.allocation_of(1) == granted
        sim.run()
        return job, rm, policy

    def test_rigid_job_with_full_request_runs_at_curve_speed(self, rigid_app):
        job, rm, policy = self._run_one(rigid_app, granted=16)
        assert job.state is JobState.DONE
        assert job.execution_time == pytest.approx(rigid_app.execution_time(16))

    def test_folded_rigid_job_runs_proportionally_slower(self, rigid_app):
        # Note: granted=8 while 16 processes -> half speed.
        sim = Simulator()
        machine = Machine(8)
        rm = SpaceSharedResourceManager(
            sim, machine, PDPA(), RandomStreams(0),
            runtime_config=RuntimeConfig(noise_sigma=0.0),
        )
        job = Job(1, rigid_app, submit_time=0.0)  # request 16 on 8 CPUs
        rm.start_job(job)
        assert machine.allocation_of(1) == 8
        sim.run()
        iterating = rigid_app.iterations * rigid_app.t_iter_seq
        expected = iterating / rigid_app.folded_speedup(16, 8)
        assert job.execution_time == pytest.approx(expected, rel=0.01)

    def test_rigid_job_is_uninstrumented(self, rigid_app, monkeypatch):
        reports = []
        monkeypatch.setattr(
            SpaceSharedResourceManager, "deliver_report",
            lambda rm, job, report: reports.append(report),
        )
        monkeypatch.setattr(
            SpaceSharedResourceManager, "absorb_report",
            lambda rm, job, procs, speedup: reports.append(speedup) or True,
        )
        job, rm, policy = self._run_one(rigid_app, granted=16)
        # No SelfAnalyzer: the paper's MPI support is future work.
        assert job.state is JobState.DONE
        assert reports == []

    def test_pdpa_marks_rigid_jobs_stable_immediately(self, rigid_app):
        sim = Simulator()
        machine = Machine(16)
        policy = PDPA()
        rm = SpaceSharedResourceManager(
            sim, machine, policy, RandomStreams(0),
            runtime_config=RuntimeConfig(noise_sigma=0.0),
        )
        rm.start_job(Job(1, rigid_app, submit_time=0.0))
        assert policy.state_of(1).state is AppState.STABLE
        # ...so rigid jobs never block admission beyond the base MPL.
        assert policy.wants_admission(rm.system_view(), queued_jobs=1) or \
            rm.system_view().free_cpus == 0


class TestMixedWorkload:
    def test_rigid_and_malleable_mix_completes_under_every_policy(
        self, linear_app, flat_app
    ):
        rigid = linear_app.as_rigid()
        config = ExperimentConfig(n_cpus=16, seed=3)
        jobs = [
            Job(1, rigid, submit_time=0.0, request=16),
            Job(2, flat_app, submit_time=1.0),
            Job(3, linear_app, submit_time=2.0, request=8),
            Job(4, rigid, submit_time=3.0, request=8),
        ]
        for policy in ("PDPA", "Equip", "Equal_eff", "IRIX"):
            fresh = [Job(j.job_id, j.spec, j.submit_time, j.request) for j in jobs]
            out = run_jobs(policy, fresh, config)
            assert all(r.end_time > 0 for r in out.result.records), policy
