"""Tests for the batch FCFS baseline (rigid exact-request partitions)."""

import pytest

from repro.experiments.common import ExperimentConfig, run_jobs
from repro.qs.job import Job
from repro.qs.workload import TABLE1_MIXES, generate_workload
from repro.rm.base import JobView, SystemView
from repro.rm.batch import BatchFCFS
from repro.sim.rng import RandomStreams


def view_of(app, allocations, requests=None, total=60):
    jobs = {}
    for job_id, alloc in allocations.items():
        request = (requests or {}).get(job_id, 30)
        job = Job(job_id, app, submit_time=0.0, request=request)
        jobs[job_id] = JobView(job=job, allocation=alloc)
    return SystemView(total, jobs)


class TestBatchFCFS:
    def test_admission_requires_exact_fit(self, linear_app):
        policy = BatchFCFS()
        system = view_of(linear_app, {1: 50}, total=60)
        policy.note_head_request(10)
        assert policy.wants_admission(system, queued_jobs=1)
        policy.note_head_request(11)
        assert not policy.wants_admission(system, queued_jobs=1)

    def test_allocates_exactly_the_request(self, linear_app):
        policy = BatchFCFS()
        system = view_of(linear_app, {}, total=60)
        job = Job(1, linear_app, submit_time=0.0, request=14)
        assert policy.on_job_arrival(job, system) == {1: 14}

    def test_arrival_without_room_raises(self, linear_app):
        policy = BatchFCFS()
        system = view_of(linear_app, {1: 55}, total=60)
        job = Job(2, linear_app, submit_time=0.0, request=10)
        with pytest.raises(ValueError):
            policy.on_job_arrival(job, system)

    def test_fragmentation_end_to_end(self, linear_app):
        """The §4.3 fragmentation problem, demonstrated.

        Three 10-CPU jobs on a 16-CPU machine: batch runs them one and
        a half at a time (10 + 6 idle), so the third job waits two full
        service times.
        """
        config = ExperimentConfig(n_cpus=16, seed=0, noise_sigma=0.0)
        jobs = [Job(i, linear_app, submit_time=0.0, request=10)
                for i in (1, 2, 3)]
        out = run_jobs(BatchFCFS(), jobs, config)
        records = sorted(out.result.records, key=lambda r: r.start_time)
        # Strictly serial execution despite 6 CPUs sitting idle.
        assert records[1].start_time >= records[0].end_time - 1e-6
        assert records[2].start_time >= records[1].end_time - 1e-6
        assert out.result.max_mpl == 1

    def test_full_workload_completes(self):
        config = ExperimentConfig(seed=8)
        jobs = generate_workload(
            TABLE1_MIXES["w3"], 0.6, n_cpus=config.n_cpus,
            duration=config.duration,
            streams=RandomStreams(config.seed).spawn("workload"),
        )
        out = run_jobs(BatchFCFS(), jobs, config, 0.6)
        assert all(r.end_time > 0 for r in out.result.records)
