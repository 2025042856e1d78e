"""Property-based round-trip tests for the result serialization.

``WorkloadResult``/``JobRecord`` travel as plain dicts through the
sweep cache, the worker transport, the journal and (indirectly) the
checkpoint meta.  The property under test: ``from_dict(to_dict(x))``
is indistinguishable from ``x`` for *any* field values — including the
float edge cases (NaN, ±inf, -0.0, subnormals) a simulation should
never produce but a corrupted or adversarial payload might.

Equality is compared through :func:`canonical_dumps` rather than
``==`` because ``NaN != NaN`` would make the direct comparison
vacuously fail on exactly the inputs this suite exists to cover.
"""

from __future__ import annotations

import math

from hypothesis import given
from hypothesis import strategies as st

from repro.canonical import canonical_dumps
from repro.fuzz.profiles import tier_settings
from repro.metrics.stats import JobRecord, WorkloadResult

# Full float space: NaN, both infinities, signed zero, subnormals.
any_float = st.floats(allow_nan=True, allow_infinity=True,
                      allow_subnormal=True)
names = st.text(min_size=0, max_size=20)

job_records = st.builds(
    JobRecord,
    job_id=st.integers(min_value=0, max_value=2**31),
    app_name=names,
    app_class=names,
    request=st.integers(min_value=0, max_value=4096),
    submit_time=any_float,
    start_time=any_float,
    end_time=any_float,
    attempts=st.integers(min_value=1, max_value=64),
)

workload_results = st.builds(
    WorkloadResult,
    policy=names,
    load=any_float,
    records=st.lists(job_records, max_size=5),
    makespan=any_float,
    migrations=st.integers(min_value=0, max_value=2**31),
    avg_burst_time=any_float,
    avg_bursts_per_cpu=any_float,
    reallocations=st.integers(min_value=0, max_value=2**31),
    max_mpl=st.integers(min_value=0, max_value=1024),
    cpu_utilization=any_float,
    failed=st.integers(min_value=0, max_value=2**31),
)


class TestJobRecordRoundTrip:
    @given(record=job_records)
    @tier_settings("determinism")
    def test_to_dict_from_dict_is_identity(self, record):
        clone = JobRecord.from_dict(record.to_dict())
        assert canonical_dumps(clone.to_dict()) == canonical_dumps(
            record.to_dict()
        )

    @given(record=job_records)
    @tier_settings("standard")
    def test_round_trip_preserves_float_identity(self, record):
        clone = JobRecord.from_dict(record.to_dict())
        for field in ("submit_time", "start_time", "end_time"):
            original = getattr(record, field)
            value = getattr(clone, field)
            if math.isnan(original):
                assert math.isnan(value)
            else:
                # repr-exact: distinguishes -0.0 from 0.0 too
                assert repr(value) == repr(original)

    def test_nan_and_inf_survive_explicitly(self):
        record = JobRecord(
            job_id=1, app_name="swim", app_class="B", request=8,
            submit_time=float("nan"), start_time=float("-inf"),
            end_time=float("inf"), attempts=2,
        )
        clone = JobRecord.from_dict(record.to_dict())
        assert math.isnan(clone.submit_time)
        assert clone.start_time == float("-inf")
        assert clone.end_time == float("inf")

    def test_negative_zero_survives(self):
        record = JobRecord(
            job_id=1, app_name="a", app_class="A", request=1,
            submit_time=-0.0, start_time=0.0, end_time=0.0, attempts=1,
        )
        clone = JobRecord.from_dict(record.to_dict())
        assert math.copysign(1.0, clone.submit_time) == -1.0


class TestWorkloadResultRoundTrip:
    @given(result=workload_results)
    @tier_settings("standard")
    def test_to_dict_from_dict_is_identity(self, result):
        clone = WorkloadResult.from_dict(result.to_dict())
        assert canonical_dumps(clone.to_dict()) == canonical_dumps(
            result.to_dict()
        )

    @given(result=workload_results)
    @tier_settings("slow")
    def test_canonical_payload_is_stable_across_round_trips(self, result):
        # The payload the cache/journal store must be a fixed point:
        # encoding, decoding and re-encoding changes nothing.
        once = canonical_dumps(result.to_dict())
        twice = canonical_dumps(
            WorkloadResult.from_dict(result.to_dict()).to_dict()
        )
        assert once == twice

    @given(result=workload_results)
    @tier_settings("slow")
    def test_records_preserved_in_order(self, result):
        clone = WorkloadResult.from_dict(result.to_dict())
        assert len(clone.records) == len(result.records)
        for ours, theirs in zip(clone.records, result.records):
            assert ours.job_id == theirs.job_id
            assert ours.app_name == theirs.app_name

    def test_missing_records_key_defaults_to_empty(self):
        data = WorkloadResult(policy="PDPA", load=1.0, records=[],
                              makespan=0.0).to_dict()
        data.pop("records")
        clone = WorkloadResult.from_dict(data)
        assert clone.records == []
