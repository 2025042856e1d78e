"""Feitelson's Standard Workload Format (SWF).

The paper's workload trace files "follow the specification proposed by
Feitelson" — the Standard Workload Format used by the parallel
workloads archive.  An SWF file holds one job per line with 18
whitespace-separated fields; header lines start with ``;``.

This module reads and writes SWF, and converts between SWF records
and our :class:`~repro.qs.job.Job` objects.  Unknown values are -1,
as the specification requires.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, TextIO, Union

from repro.apps.application import ApplicationSpec
from repro.qs.job import Job

#: Field names, in SWF column order.
SWF_FIELDS = (
    "job_number",
    "submit_time",
    "wait_time",
    "run_time",
    "allocated_procs",
    "avg_cpu_time",
    "used_memory",
    "requested_procs",
    "requested_time",
    "requested_memory",
    "status",
    "user_id",
    "group_id",
    "executable",
    "queue",
    "partition",
    "preceding_job",
    "think_time",
)


@dataclass
class SwfJob:
    """One SWF record; field semantics follow the specification."""

    job_number: int
    submit_time: float
    wait_time: float = -1
    run_time: float = -1
    allocated_procs: int = -1
    avg_cpu_time: float = -1
    used_memory: int = -1
    requested_procs: int = -1
    requested_time: float = -1
    requested_memory: int = -1
    status: int = -1
    user_id: int = -1
    group_id: int = -1
    executable: int = -1
    queue: int = -1
    partition: int = -1
    preceding_job: int = -1
    think_time: float = -1

    def to_line(self) -> str:
        """Serialise as one SWF data line."""
        values = []
        for name in SWF_FIELDS:
            value = getattr(self, name)
            if isinstance(value, float):
                values.append(f"{value:.2f}".rstrip("0").rstrip("."))
            else:
                values.append(str(value))
        return " ".join(values)

    @classmethod
    def from_line(cls, line: str) -> "SwfJob":
        """Parse one SWF data line.

        Raises
        ------
        ValueError
            On a malformed line (wrong field count, or a field that is
            not a finite number: ``nan`` and ``inf`` parse as floats
            but are no SWF value).
        """
        parts = line.split()
        if len(parts) != len(SWF_FIELDS):
            raise ValueError(
                f"SWF line has {len(parts)} fields, expected {len(SWF_FIELDS)}: {line!r}"
            )
        kwargs = {}
        int_fields = {
            "job_number", "allocated_procs", "used_memory", "requested_procs",
            "requested_memory", "status", "user_id", "group_id", "executable",
            "queue", "partition", "preceding_job",
        }
        for name, raw in zip(SWF_FIELDS, parts):
            value = float(raw)
            if not math.isfinite(value):
                raise ValueError(f"SWF field {name} is not finite: {line!r}")
            kwargs[name] = int(value) if name in int_fields else value
        return cls(**kwargs)


@dataclass(slots=True)
class SwfParseStats:
    """Skip-with-count bookkeeping for dirty real-world SWF logs.

    Archive logs routinely contain comment banners, truncated lines,
    bogus negative runtimes and submit times that go backwards.  In
    lenient mode the parser skips (or repairs) those and counts each
    class here, so a caller can report honestly what it dropped; in
    strict mode the first anomaly raises instead.
    """

    lines: int = 0
    records: int = 0
    comments: int = 0
    blank: int = 0
    malformed: int = 0
    negative_runtime: int = 0
    out_of_order: int = 0
    #: line numbers of the first few anomalies, for error reporting
    anomaly_lines: List[int] = field(default_factory=list)
    _ANOMALY_SAMPLE = 8

    @property
    def skipped(self) -> int:
        """Records dropped (malformed + bogus negative runtimes)."""
        return self.malformed + self.negative_runtime

    def note_anomaly(self, lineno: int) -> None:
        if len(self.anomaly_lines) < self._ANOMALY_SAMPLE:
            self.anomaly_lines.append(lineno)

    def summary_line(self) -> str:
        return (
            f"{self.records} records, {self.comments} comments, "
            f"{self.malformed} malformed, {self.negative_runtime} negative-runtime, "
            f"{self.out_of_order} out-of-order"
        )


def iter_swf(
    source: Union[str, TextIO],
    strict: bool = True,
    stats: Optional[SwfParseStats] = None,
) -> Iterator[SwfJob]:
    """Stream SWF records one line at a time (constant memory).

    Header/comment lines (``;`` per the spec, plus ``#`` which dirty
    logs use) and blank lines are always skipped.  ``strict=True``
    raises :class:`ValueError` on the first malformed line or bogus
    negative runtime; ``strict=False`` skips them, counting each class
    in *stats*.  A runtime of exactly -1 is the spec's legal "unknown"
    and is never treated as an anomaly.  Submit-time ordering is not
    enforced here (a stream cannot be sorted); see :func:`parse_swf`.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    stats = stats if stats is not None else SwfParseStats()
    for lineno, line in enumerate(source, start=1):
        stats.lines += 1
        stripped = line.strip()
        if not stripped:
            stats.blank += 1
            continue
        if stripped.startswith(";") or stripped.startswith("#"):
            stats.comments += 1
            continue
        try:
            record = SwfJob.from_line(stripped)
        except ValueError as exc:
            if strict:
                raise ValueError(f"line {lineno}: {exc}") from exc
            stats.malformed += 1
            stats.note_anomaly(lineno)
            continue
        if record.run_time < 0 and record.run_time != -1:  # repro: allow(DET106): -1 is the SWF spec's literal "unknown" sentinel parsed from the file, not a computed timestamp
            if strict:
                raise ValueError(
                    f"line {lineno}: negative run_time {record.run_time} "
                    f"(only -1 may mark an unknown runtime)"
                )
            stats.negative_runtime += 1
            stats.note_anomaly(lineno)
            continue
        stats.records += 1
        yield record


def parse_swf(
    source: Union[str, TextIO],
    strict: bool = True,
    stats: Optional[SwfParseStats] = None,
) -> List[SwfJob]:
    """Parse SWF text (or a file-like object) into records.

    Header/comment lines and blank lines are skipped.  In strict mode
    (the default) the first malformed line, bogus negative runtime or
    backwards submit time raises :class:`ValueError`; in lenient mode
    malformed/negative-runtime records are skipped, out-of-order
    records are stably re-sorted by ``(submit_time, job_number)``, and
    every repair is counted in *stats* (pass a
    :class:`SwfParseStats` to read them back).
    """
    stats = stats if stats is not None else SwfParseStats()
    records = list(iter_swf(source, strict=strict, stats=stats))
    last_submit: Optional[float] = None
    for record in records:
        if last_submit is not None and record.submit_time < last_submit:
            if strict:
                raise ValueError(
                    f"job {record.job_number}: submit_time {record.submit_time} "
                    f"goes backwards (previous {last_submit})"
                )
            stats.out_of_order += 1
        else:
            last_submit = record.submit_time
    if stats.out_of_order:
        records.sort(key=lambda r: (r.submit_time, r.job_number))
    return records


def write_swf(
    records: Iterable[SwfJob],
    header: Optional[Dict[str, str]] = None,
) -> str:
    """Serialise records to SWF text with optional header comments."""
    lines = []
    for key, value in (header or {}).items():
        lines.append(f"; {key}: {value}")
    for record in records:
        lines.append(record.to_line())
    return "\n".join(lines) + "\n"


def jobs_to_swf(
    jobs: Iterable[Job],
    app_numbers: Optional[Dict[str, int]] = None,
) -> List[SwfJob]:
    """Convert scheduler jobs to SWF records.

    ``app_numbers`` maps application names to SWF executable numbers;
    one is built on the fly when omitted.  Completed jobs carry their
    measured wait/run times; queued jobs use -1 as the spec requires.
    """
    numbers: Dict[str, int] = dict(app_numbers or {})
    records = []
    for job in jobs:
        if job.app_name not in numbers:
            numbers[job.app_name] = len(numbers) + 1
        wait = job.wait_time
        run = job.execution_time
        records.append(
            SwfJob(
                job_number=job.job_id,
                submit_time=job.submit_time,
                wait_time=wait if wait is not None else -1,
                run_time=run if run is not None else -1,
                allocated_procs=-1,
                requested_procs=job.request if job.request is not None else -1,
                status=1 if run is not None else -1,
                executable=numbers[job.app_name],
            )
        )
    return records


def jobs_from_swf(
    records: Iterable[SwfJob],
    executables: Dict[int, ApplicationSpec],
) -> List[Job]:
    """Rebuild scheduler jobs from SWF records.

    Parameters
    ----------
    records:
        Parsed SWF records.
    executables:
        Mapping of SWF executable numbers to application specs.

    Raises
    ------
    KeyError
        If a record references an unknown executable number.
    """
    jobs = []
    for record in records:
        if record.executable not in executables:
            raise KeyError(
                f"job {record.job_number}: unknown executable {record.executable}"
            )
        spec = executables[record.executable]
        request = record.requested_procs if record.requested_procs > 0 else None
        jobs.append(
            Job(
                job_id=record.job_number,
                spec=spec,
                submit_time=record.submit_time,
                request=request,
            )
        )
    return jobs
