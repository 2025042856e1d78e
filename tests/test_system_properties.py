"""System-level property tests: random workloads, audited runs.

These are the strongest correctness checks in the suite: hypothesis
generates arbitrary small workloads (mixed application shapes, rigid
and malleable, tuned and untuned requests, bursty submissions) and
every policy must run them to completion while satisfying all of
:mod:`repro.validate`'s structural invariants.
"""

import pytest
from hypothesis import given, strategies as st

from repro.fuzz.profiles import tier_settings

from repro.apps.application import AppClass, ApplicationSpec
from repro.apps.speedup import AmdahlSpeedup, TabulatedSpeedup
from repro.experiments.common import ExperimentConfig, run_jobs
from repro.qs.job import Job
from repro.validate import validate_run

N_CPUS = 16


@st.composite
def app_specs(draw):
    """A random small application."""
    kind = draw(st.sampled_from(["amdahl", "flat", "super"]))
    if kind == "amdahl":
        curve = AmdahlSpeedup(draw(st.floats(0.0, 0.3)), name="amdahl")
        klass = AppClass.HIGH
    elif kind == "flat":
        curve = TabulatedSpeedup(
            [(1, 1.0), (2, 1.4), (8, 1.6), (16, 1.3)], name="flat"
        )
        klass = AppClass.NONE
    else:
        curve = TabulatedSpeedup(
            [(1, 1.0), (4, 5.0), (8, 10.5), (12, 12.5), (16, 13.0)], name="super"
        )
        klass = AppClass.SUPERLINEAR
    return ApplicationSpec(
        name=f"rand-{kind}",
        app_class=klass,
        speedup_model=curve,
        iterations=draw(st.integers(3, 12)),
        t_iter_seq=draw(st.floats(0.5, 4.0)),
        t_startup=draw(st.floats(0.0, 0.5)),
        t_teardown=draw(st.floats(0.0, 0.5)),
        default_request=draw(st.integers(1, N_CPUS)),
        malleable=draw(st.booleans()),
    )


@st.composite
def workloads(draw):
    """A random job list for a 16-CPU machine."""
    n_jobs = draw(st.integers(1, 6))
    jobs = []
    for job_id in range(1, n_jobs + 1):
        spec = draw(app_specs())
        jobs.append(Job(
            job_id=job_id,
            spec=spec,
            submit_time=draw(st.floats(0.0, 20.0)),
            request=draw(st.integers(1, N_CPUS)),
        ))
    jobs.sort(key=lambda j: j.submit_time)
    return jobs


@tier_settings("slow")
@given(jobs=workloads(), seed=st.integers(0, 5))
@pytest.mark.parametrize("policy", ["PDPA", "Equip", "Equal_eff", "IRIX"])
def test_any_workload_completes_and_validates(policy, jobs, seed):
    fresh = [Job(j.job_id, j.spec, j.submit_time, j.request) for j in jobs]
    config = ExperimentConfig(n_cpus=N_CPUS, seed=seed, duration=30.0)
    out = run_jobs(policy, fresh, config)
    # Everything completed...
    assert len(out.result.records) == len(jobs)
    # ...and the execution is structurally sound.
    problems = validate_run(out)
    assert problems == [], f"{policy}: {problems}"


def _make_extension_policy(name):
    if name == "Batch":
        from repro.rm.batch import BatchFCFS
        return BatchFCFS()
    raise ValueError(name)


@tier_settings("quick")
@given(jobs=workloads(), seed=st.integers(0, 3))
@pytest.mark.parametrize("policy_name", ["Batch"])
def test_extension_policies_complete_and_validate(policy_name, jobs, seed):
    from repro.experiments.common import run_jobs_with_policy

    fresh = [Job(j.job_id, j.spec, j.submit_time, j.request) for j in jobs]
    config = ExperimentConfig(n_cpus=N_CPUS, seed=seed, duration=30.0)
    out = run_jobs_with_policy(_make_extension_policy(policy_name), fresh, config)
    assert len(out.result.records) == len(jobs)
    problems = validate_run(out)
    assert problems == [], f"{policy_name}: {problems}"


@tier_settings("quick")
@given(jobs=workloads())
def test_pdpa_deterministic_across_replays(jobs):
    def replay():
        fresh = [Job(j.job_id, j.spec, j.submit_time, j.request) for j in jobs]
        out = run_jobs("PDPA", fresh, ExperimentConfig(n_cpus=N_CPUS, seed=1))
        return [(r.job_id, r.start_time, r.end_time) for r in out.result.records]

    assert replay() == replay()


@tier_settings("quick")
@given(jobs=workloads(), seed=st.integers(0, 3))
def test_pdpa_allocations_never_exceed_requests(jobs, seed):
    fresh = [Job(j.job_id, j.spec, j.submit_time, j.request) for j in jobs]
    out = run_jobs("PDPA", fresh, ExperimentConfig(n_cpus=N_CPUS, seed=seed))
    requests = {j.job_id: j.request for j in fresh}
    for record in out.trace.reallocations:
        assert record.new_procs <= requests[record.job_id], (
            f"job {record.job_id} got {record.new_procs} > "
            f"request {requests[record.job_id]}"
        )
