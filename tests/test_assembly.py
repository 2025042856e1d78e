"""One run assembly: every stack is wired by ``repro.experiments.common``.

A policy name and a policy instance build the same stack, a session's
job list is its queue's, and the batch baseline runs through the same
``build_session`` as the evaluation's policies.
"""

import pytest

from repro.canonical import canonical_dumps
from repro.checkpoint.session import SimulationSession
from repro.experiments.common import (
    ExperimentConfig,
    build_session,
    make_space_policy,
    run_jobs,
    workload_jobs,
)
from repro.fuzz.targets import FuzzTarget
from repro.parallel.cells import trace_digest
from repro.qs.backfill import BackfillQS
from repro.qs.workload import TABLE1_MIXES
from repro.rm.batch import BatchFCFS
from repro.serve.session import build_serve_session
from repro.serve.source import SyntheticSource
from repro.validate import validate_run

#: 32 CPUs: every Table 1 request fits, so the rigid batch baseline
#: can run each job
CONFIG = ExperimentConfig(n_cpus=32, duration=60.0, seed=2)


def test_policy_instance_runs_like_its_name():
    by_name = run_jobs("PDPA", workload_jobs("w3", 0.8, CONFIG), CONFIG, 0.8)
    by_instance = run_jobs(
        make_space_policy("PDPA", CONFIG), workload_jobs("w3", 0.8, CONFIG),
        CONFIG, 0.8,
    )
    assert canonical_dumps(by_instance.result.to_dict()) == canonical_dumps(
        by_name.result.to_dict()
    )
    assert trace_digest(by_instance) == trace_digest(by_name)


def test_unknown_policy_name_is_refused_by_both_stacks():
    source = SyntheticSource(TABLE1_MIXES["w2"], 1.0, n_cpus=32, seed=0, max_jobs=1)
    with pytest.raises(ValueError, match="unknown policy 'Gang'"):
        build_session("Gang", [], CONFIG)
    with pytest.raises(ValueError, match="unknown policy 'Gang'"):
        build_serve_session("Gang", source, config=CONFIG)


def test_session_jobs_is_the_queue_list_fresh_and_restored(tmp_path):
    session = build_session(
        "Equip", workload_jobs("w1", 1.0, CONFIG), CONFIG, load=1.0, workload="w1"
    )
    assert session.jobs is session.qs.jobs
    session.run(until=20.0)
    snapshot = tmp_path / "cut.ckpt"
    session.save(snapshot)
    restored = SimulationSession.restore(snapshot, expected_config=CONFIG)
    assert restored.jobs is restored.qs.jobs
    assert [job.job_id for job in restored.jobs] == [job.job_id for job in session.jobs]


def test_fuzz_submission_is_accounted_once():
    with FuzzTarget("PDPA", seed=0) as target:
        first = target.submit("fz-linear", 4)
        assert target.checkpoint_roundtrip() == []
        second = target.submit("fz-amdahl", 3)
        jobs = target.session.jobs
        assert [job.job_id for job in jobs].count(first.job_id) == 1
        assert [job for job in jobs if job is second] == [second]


def test_backfill_batch_session_runs_and_harvests():
    jobs = workload_jobs("w3", 0.6, CONFIG)
    session = build_session(BatchFCFS(), jobs, CONFIG, 0.6, qs_class=BackfillQS)
    assert isinstance(session.qs, BackfillQS)
    assert session.policy_name == "Batch"
    session.run()
    out = session.finish()
    assert len(out.result.records) == len(jobs)
    assert out.result.policy == "Batch"
    assert validate_run(out) == []
