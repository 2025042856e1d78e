"""Unit and property tests for the Standard Workload Format codec."""

import pytest
from hypothesis import given, strategies as st

from repro.qs.job import Job
from repro.qs.swf import (
    SWF_FIELDS,
    SwfJob,
    SwfParseStats,
    iter_swf,
    jobs_from_swf,
    jobs_to_swf,
    parse_swf,
    write_swf,
)
from repro.serve.source import SwfSource

#: values ``float()`` accepts that are no SWF number, in one float field
#: and one int field (``int(float("inf"))`` raises OverflowError)
NON_FINITE = [
    (name, value)
    for name in ("submit_time", "requested_procs")
    for value in ("nan", "inf", "-inf")
]


def with_field(line: str, name: str, value: str) -> str:
    """*line* with one field replaced."""
    parts = line.split()
    parts[SWF_FIELDS.index(name)] = value
    return " ".join(parts)


class TestRecordCodec:
    def test_line_has_18_fields(self):
        record = SwfJob(job_number=1, submit_time=10.0)
        assert len(record.to_line().split()) == 18
        assert len(SWF_FIELDS) == 18

    def test_roundtrip_defaults(self):
        record = SwfJob(job_number=3, submit_time=12.5)
        parsed = SwfJob.from_line(record.to_line())
        assert parsed == record

    def test_roundtrip_full_record(self):
        record = SwfJob(
            job_number=7, submit_time=1.25, wait_time=3.0, run_time=99.9,
            allocated_procs=16, requested_procs=30, status=1, user_id=2,
            executable=4,
        )
        assert SwfJob.from_line(record.to_line()) == record

    def test_malformed_line_raises(self):
        with pytest.raises(ValueError, match="fields"):
            SwfJob.from_line("1 2 3")

    def test_non_numeric_field_raises(self):
        line = " ".join(["x"] * 18)
        with pytest.raises(ValueError):
            SwfJob.from_line(line)

    @pytest.mark.parametrize("name,value", NON_FINITE)
    def test_non_finite_field_raises(self, name, value):
        line = with_field("3 4.0 1 10 4 -1 -1 4 -1 -1 1 1 1 1 1 1 -1 -1", name, value)
        with pytest.raises(ValueError, match=f"{name} is not finite"):
            SwfJob.from_line(line)

    @given(
        job_number=st.integers(1, 10**6),
        submit=st.floats(0, 10**6, allow_nan=False, allow_infinity=False),
        procs=st.integers(-1, 512),
    )
    def test_roundtrip_property(self, job_number, submit, procs):
        record = SwfJob(job_number=job_number, submit_time=round(submit, 2),
                        requested_procs=procs)
        assert SwfJob.from_line(record.to_line()) == record


class TestFileCodec:
    def test_write_and_parse_with_header(self):
        records = [SwfJob(1, 0.0), SwfJob(2, 5.5)]
        text = write_swf(records, header={"MaxProcs": "60", "Note": "test"})
        assert text.startswith("; MaxProcs: 60")
        parsed = parse_swf(text)
        assert [r.job_number for r in parsed] == [1, 2]

    def test_blank_lines_and_comments_skipped(self):
        text = "; comment\n\n" + SwfJob(1, 0.0).to_line() + "\n\n"
        assert len(parse_swf(text)) == 1

    def test_parse_error_reports_line_number(self):
        text = SwfJob(1, 0.0).to_line() + "\nbogus line\n"
        with pytest.raises(ValueError, match="line 2"):
            parse_swf(text)


class TestJobConversion:
    def test_queued_jobs_use_unknown_markers(self, linear_app):
        jobs = [Job(1, linear_app, submit_time=3.0, request=8)]
        records = jobs_to_swf(jobs)
        assert records[0].wait_time == -1
        assert records[0].run_time == -1
        assert records[0].requested_procs == 8
        assert records[0].status == -1

    def test_completed_jobs_carry_measured_times(self, linear_app):
        job = Job(1, linear_app, submit_time=3.0)
        job.mark_started(5.0)
        job.mark_finished(15.0)
        record = jobs_to_swf([job])[0]
        assert record.wait_time == pytest.approx(2.0)
        assert record.run_time == pytest.approx(10.0)
        assert record.status == 1

    def test_executable_numbers_stable(self, linear_app, flat_app):
        jobs = [
            Job(1, linear_app, submit_time=0.0),
            Job(2, flat_app, submit_time=1.0),
            Job(3, linear_app, submit_time=2.0),
        ]
        records = jobs_to_swf(jobs)
        assert records[0].executable == records[2].executable
        assert records[0].executable != records[1].executable

    def test_jobs_from_swf(self, linear_app, flat_app):
        original = [
            Job(1, linear_app, submit_time=0.5),
            Job(2, flat_app, submit_time=1.5, request=4),
        ]
        numbers = {"linear": 1, "flat": 2}
        records = jobs_to_swf(original, numbers)
        rebuilt = jobs_from_swf(records, {1: linear_app, 2: flat_app})
        assert [j.app_name for j in rebuilt] == ["linear", "flat"]
        assert rebuilt[0].submit_time == pytest.approx(0.5)
        assert rebuilt[1].request == 4

    def test_unknown_executable_raises(self, linear_app):
        records = [SwfJob(1, 0.0, executable=9)]
        with pytest.raises(KeyError):
            jobs_from_swf(records, {1: linear_app})


DIRTY_LOG = """\
; SWF header banner
; Computer: test cluster
# a hash comment some archives use

1 6.0 1 10 4 -1 -1 4 -1 -1 1 1 1 1 1 1 -1 -1
garbage line that is not SWF
2 5.0 1 -7 4 -1 -1 4 -1 -1 1 1 1 1 1 1 -1 -1
3 4.0 1 10 4 -1 -1 4 -1 -1 1 1 1 1 1 1 -1 -1
4 9.0 1 -1 4 -1 -1 4 -1 -1 1 1 1 1 1 1 -1 -1
"""

#: eight ordered records, enough to interleave every NON_FINITE line
CLEAN_LOG = "".join(
    f"{i} {2.5 * i} 1 10 4 -1 -1 {2 * i} -1 -1 1 1 1 {i % 3 + 1} 1 1 -1 -1\n"
    for i in range(1, 9)
)


class TestLenientParsing:
    """The incremental lenient reader (``iter_swf``) and its stats.

    ``DIRTY_LOG`` packs every anomaly class into six data lines: a
    banner, a hash comment, a blank line, a truncated line, a bogus
    negative runtime (-7), an out-of-order submit time, and the spec's
    legal ``run_time = -1`` "unknown" sentinel.
    """

    def test_strict_raises_on_first_anomaly(self):
        with pytest.raises(ValueError, match="line 6"):
            list(iter_swf(DIRTY_LOG, strict=True))

    def test_lenient_skips_with_counts(self):
        stats = SwfParseStats()
        records = list(iter_swf(DIRTY_LOG, strict=False, stats=stats))
        assert [r.job_number for r in records] == [1, 3, 4]  # stream order
        assert stats.records == 3
        assert stats.comments == 3
        assert stats.blank == 1
        assert stats.malformed == 1
        assert stats.negative_runtime == 1
        assert stats.skipped == 2
        # iter_swf never reorders a stream
        assert stats.out_of_order == 0

    def test_minus_one_runtime_is_legal(self):
        stats = SwfParseStats()
        records = list(iter_swf(
            "4 9.0 1 -1 4 -1 -1 4 -1 -1 1 1 1 1 1 1 -1 -1",
            strict=False, stats=stats,
        ))
        assert len(records) == 1
        assert records[0].run_time == -1
        assert stats.negative_runtime == 0

    def test_anomaly_line_numbers_sampled(self):
        stats = SwfParseStats()
        list(iter_swf(DIRTY_LOG, strict=False, stats=stats))
        # the truncated line is line 6, the -7 runtime line 7
        assert stats.anomaly_lines == [6, 7]

    def test_anomaly_sample_is_bounded(self):
        stats = SwfParseStats()
        bad = "\n".join("not swf" for _ in range(50))
        list(iter_swf(bad, strict=False, stats=stats))
        assert stats.malformed == 50
        assert len(stats.anomaly_lines) == stats._ANOMALY_SAMPLE

    def test_parse_swf_lenient_resorts_out_of_order(self):
        stats = SwfParseStats()
        records = parse_swf(DIRTY_LOG, strict=False, stats=stats)
        assert stats.out_of_order == 1
        submits = [r.submit_time for r in records]
        assert submits == sorted(submits)
        # job 3 (submit 4.0) sorts ahead of job 1 (submit 6.0)
        assert [r.job_number for r in records] == [3, 1, 4]

    def test_parse_swf_strict_rejects_out_of_order(self):
        clean_but_unsorted = (
            "1 5.0 1 10 4 -1 -1 4 -1 -1 1 1 1 1 1 1 -1 -1\n"
            "2 4.0 1 10 4 -1 -1 4 -1 -1 1 1 1 1 1 1 -1 -1\n"
        )
        with pytest.raises(ValueError, match="backwards"):
            parse_swf(clean_but_unsorted, strict=True)

    def test_summary_line_reports_every_class(self):
        stats = SwfParseStats()
        parse_swf(DIRTY_LOG, strict=False, stats=stats)
        assert stats.summary_line() == (
            "3 records, 3 comments, 1 malformed, 1 negative-runtime, "
            "1 out-of-order"
        )

    def test_file_handle_source(self, tmp_path):
        path = tmp_path / "dirty.swf"
        path.write_text(DIRTY_LOG)
        with open(path) as handle:
            records = list(iter_swf(handle, strict=False))
        assert len(records) == 3

    @pytest.mark.parametrize("name,value", NON_FINITE)
    def test_strict_names_a_non_finite_line(self, name, value):
        lines = CLEAN_LOG.splitlines()
        lines[2] = with_field(lines[2], name, value)
        with pytest.raises(ValueError, match=f"line 3: SWF field {name} is not finite"):
            parse_swf("\n".join(lines))

    def test_lenient_drops_non_finite_lines_as_malformed(self, tmp_path):
        # every NON_FINITE case on its own line, between the clean ones:
        # the records are the clean log's, as if those lines were deleted
        clean = CLEAN_LOG.splitlines()
        dirty = [clean[0]]
        for (name, value), line in zip(NON_FINITE, clean[1:]):
            dirty += [with_field(line, name, value), line]
        dirty += clean[len(NON_FINITE) + 1:]
        text = "\n".join(dirty) + "\n"
        stats = SwfParseStats()
        assert parse_swf(text, strict=False, stats=stats) == parse_swf(CLEAN_LOG)
        assert (stats.malformed, stats.out_of_order) == (len(NON_FINITE), 0)
        # the streaming service's reader skips the same lines
        sources = []
        for name, body in (("clean.swf", CLEAN_LOG), ("dirty.swf", text)):
            path = tmp_path / name
            path.write_text(body)
            sources.append(SwfSource(str(path)))
        drawn = [[(j.job_id, j.app_name, j.submit_time, j.request)
                  for j in iter(source.draw, None)] for source in sources]
        for source in sources:
            source.close()
        assert drawn[1] == drawn[0]
        assert sources[1].parse_stats.malformed == len(NON_FINITE)
