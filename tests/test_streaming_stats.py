"""Bounded-memory aggregation (:mod:`repro.metrics.streaming`).

The load-bearing contract is **bit-exact conformance**: folding the
records of a closed :class:`WorkloadResult` through
:meth:`StreamingStats.observe` in list order reproduces the result's
summary values with the same bits, not merely close — that is what
lets the streaming service prune job objects without changing any
number the closed pipeline would have reported.  The property test
drives it with adversarial floats; an integration test pins it against
a real simulation run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.canonical import canonical_dumps
from repro.experiments.common import ExperimentConfig, run_workload
from repro.faults.scenarios import build_scenario
from repro.fuzz.profiles import tier_settings
from repro.metrics.stats import JobRecord, WorkloadResult
from repro.metrics.streaming import Reservoir, StreamingStats
from repro.qs.streaming import IngressConfig
from repro.qs.workload import TABLE1_MIXES
from repro.serve.session import ServeConfig, build_serve_session
from repro.serve.source import SyntheticSource

APP_NAMES = ("fz-linear", "fz-amdahl", "fz-rigid")

#: adversarial but finite floats: huge magnitude spread, subnormals,
#: negative zero — everything the left-fold contract must survive
_times = st.floats(
    min_value=0.0, max_value=1e12, allow_nan=False, allow_infinity=False
)
_deltas = st.floats(
    min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False
)


@st.composite
def job_records(draw, job_id: int = 0) -> JobRecord:
    submit = draw(_times)
    wait = draw(_deltas)
    execution = draw(_deltas)
    return JobRecord(
        job_id=job_id,
        app_name=draw(st.sampled_from(APP_NAMES)),
        app_class="HIGH",
        request=draw(st.integers(min_value=1, max_value=64)),
        submit_time=submit,
        start_time=submit + wait,
        end_time=submit + wait + execution,
        attempts=draw(st.integers(min_value=0, max_value=3)),
    )


def record_lists() -> st.SearchStrategy:
    return st.lists(job_records(), min_size=1, max_size=40).map(
        lambda records: [
            # re-number so ids are unique (irrelevant to the fold, but
            # honest about what a real run produces)
            JobRecord(**{**r.to_dict(), "job_id": i, "app_class": r.app_class})
            for i, r in enumerate(records)
        ]
    )


class TestConformance:
    @tier_settings("standard")
    @given(record_lists())
    def test_fold_reproduces_closed_summaries_bit_exact(self, records):
        result = WorkloadResult(
            policy="PDPA",
            load=1.0,
            records=records,
            makespan=max(r.end_time for r in records),
        )
        stats = StreamingStats().fold_records(records)
        assert stats.conforms_to(result)
        # spell the interesting equalities out: == on floats, no approx
        assert stats.summaries() == result.by_app()
        assert stats.mean_response_time == result.mean_response_time
        assert stats.mean_bounded_slowdown == result.mean_bounded_slowdown
        assert stats.total_execution_time == result.total_execution_time

    @tier_settings("quick")
    @given(record_lists())
    def test_fold_order_is_the_list_order_contract(self, records):
        """Folding in a different order may differ — list order is THE order."""
        stats = StreamingStats().fold_records(records)
        again = StreamingStats().fold_records(records)
        assert stats.digest() == again.digest()

    def test_conformance_on_a_real_run(self):
        config = ExperimentConfig(n_cpus=16, duration=60.0, seed=5)
        result = run_workload("PDPA", "w2", 1.0, config).result
        assert result.records, "run produced no jobs"
        stats = StreamingStats().fold_records(result.records)
        assert stats.conforms_to(result)
        assert stats.jobs == len(result.records)

    def test_nonconformance_is_detected(self):
        records = [
            JobRecord(0, "fz-linear", "HIGH", 4, 0.0, 1.0, 5.0),
            JobRecord(1, "fz-linear", "HIGH", 4, 1.0, 2.0, 9.0),
        ]
        result = WorkloadResult("PDPA", 1.0, records=records, makespan=9.0)
        stats = StreamingStats().fold_records(records[:1])
        assert not stats.conforms_to(result)


class TestDigest:
    def test_digest_is_deterministic_and_sensitive(self):
        a = StreamingStats()
        b = StreamingStats()
        assert a.digest() == b.digest()
        a.observe(JobRecord(0, "fz-linear", "HIGH", 4, 0.0, 1.0, 5.0))
        assert a.digest() != b.digest()
        b.observe(JobRecord(0, "fz-linear", "HIGH", 4, 0.0, 1.0, 5.0))
        assert a.digest() == b.digest()

    def test_pickle_roundtrip_preserves_digest(self):
        stats = StreamingStats()
        for i in range(50):
            stats.observe(
                JobRecord(i, APP_NAMES[i % 3], "HIGH", 4, float(i),
                          float(i) + 1.0, float(i) + 2.5)
            )
            stats.sample_backlog(i % 7)
            stats.sample_mpl(i % 5)
        clone = pickle.loads(pickle.dumps(stats))
        assert clone.digest() == stats.digest()
        # the restored reservoir continues the same replacement stream
        stats.sample_backlog(99)
        clone.sample_backlog(99)
        assert clone.digest() == stats.digest()

    def test_admission_counters_enter_the_digest(self):
        a, b = StreamingStats(), StreamingStats()
        a.observe_submit()
        assert a.digest() != b.digest()

    def test_digest_hashes_the_canonical_payload(self):
        # an overloaded stream that sheds, and fails every job a CPU
        # death kills, fills each counter and reservoir to_dict holds
        faults = dataclasses.replace(build_scenario("cpukill8", 16), max_retries=0)
        source = SyntheticSource(
            TABLE1_MIXES["w2"], 3.0, n_cpus=16, seed=3, max_jobs=80
        )
        session = build_serve_session(
            "PDPA", source,
            config=ExperimentConfig(n_cpus=16, seed=3).with_faults(faults),
            serve_config=ServeConfig(
                ingress=IngressConfig(max_queue=4, policy="reject")
            ),
        )
        session.pump.prime()
        session.sim.run()
        stats = session.stats
        assert stats.shed and stats.overload_events and stats.failed
        payload = canonical_dumps(stats.to_dict())
        assert stats.digest() == hashlib.sha256(payload.encode()).hexdigest()


class TestCounters:
    def test_shed_kinds(self):
        stats = StreamingStats()
        stats.observe_shed("reject")
        stats.observe_shed("drop-oldest")
        assert (stats.shed_rejected, stats.shed_dropped, stats.shed) == (1, 1, 2)
        with pytest.raises(ValueError):
            stats.observe_shed("throttle")

    def test_failed_jobs_fold_attempts_not_response(self):
        stats = StreamingStats()
        stats.observe_failed(submit_time=3.0, attempts=4)
        assert stats.failed == 1
        assert stats.attempts == 4
        assert stats.jobs == 0
        assert stats.mean_response_time == 0.0


class TestReservoir:
    def test_fills_then_subsamples(self):
        res = Reservoir(capacity=8, seed=1)
        for i in range(100):
            res.add(float(i))
        assert len(res.items) == 8
        assert res.seen == 100
        assert set(res.items) <= {float(i) for i in range(100)}

    def test_deterministic_across_instances(self):
        a, b = Reservoir(capacity=8, seed=1), Reservoir(capacity=8, seed=1)
        for i in range(1000):
            a.add(float(i))
            b.add(float(i))
        assert a.items == b.items

    def test_pickle_continues_the_stream(self):
        res = Reservoir(capacity=4, seed=3)
        for i in range(64):
            res.add(float(i))
        clone = pickle.loads(pickle.dumps(res))
        for i in range(64, 256):
            res.add(float(i))
            clone.add(float(i))
        assert clone.items == res.items

    def test_rejects_empty_capacity(self):
        with pytest.raises(ValueError):
            Reservoir(capacity=0)
