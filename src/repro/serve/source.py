"""Arrival sources for the streaming service.

A source yields :class:`~repro.qs.job.Job` objects one at a time with
non-decreasing submit times.  Sources are part of the checkpointed
object graph: their state (RNG streams, file offsets, counters) must
pickle such that a restored source re-draws exactly the arrivals an
uninterrupted run would have drawn — that determinism is what the
arrival journal verifies on recovery.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, TextIO

from repro.apps.application import ApplicationSpec
from repro.apps.catalog import APP_CATALOG
from repro.qs.job import Job
from repro.qs.swf import SwfJob, SwfParseStats, swf_line
from repro.qs.workload import WorkloadMix
from repro.sim.rng import RandomStreams, derive_seed
from repro.sim.slots import set_slot_state, slot_state

__all__ = ["ArrivalSource", "SyntheticSource", "SwfSource"]


class ArrivalSource:
    """Interface: a pull-based stream of jobs with monotone submit times.

    Subclasses keep ``drawn``, the jobs drawn so far (monotone; the
    journal cursors against it).
    """

    __slots__ = ("drawn",)

    def draw(self) -> Optional[Job]:
        """Return the next job, or ``None`` when the stream is exhausted."""
        raise NotImplementedError

    def describe(self) -> Dict[str, Any]:
        """Canonical description, folded into the serve config digest."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any host resources (file handles)."""


class SyntheticSource(ArrivalSource):
    """Open-system Poisson arrivals over a Table 1 application mix.

    The closed-system generator draws a *fixed number* of jobs over a
    fixed window; this source instead draws an unbounded Poisson
    process whose per-application rates are chosen so the offered load
    matches ``load × n_cpus`` CPU-seconds per second — the open-system
    reading of the paper's "estimated processor demand" knob.  With
    ``load > 1`` the generator intentionally exceeds capacity, which
    is how the overload/shedding paths are exercised.

    Determinism: interarrival gaps and application choices come from
    named substreams of a dedicated :class:`RandomStreams` derived
    from (seed, "serve-source"); job ids count up from 1.
    """

    __slots__ = (
        "mix", "load", "n_cpus", "seed", "max_jobs", "overrides", "_apps",
        "total_rate", "streams", "_clock",
    )

    def __init__(
        self,
        mix: WorkloadMix,
        load: float,
        n_cpus: int,
        seed: int = 0,
        max_jobs: Optional[int] = None,
        catalog: Optional[Mapping[str, ApplicationSpec]] = None,
        request_overrides: Optional[Mapping[str, int]] = None,
    ) -> None:
        if load <= 0:
            raise ValueError(f"load must be positive, got {load}")
        if n_cpus < 1:
            raise ValueError(f"n_cpus must be >= 1, got {n_cpus}")
        if max_jobs is not None and max_jobs < 0:
            raise ValueError(f"max_jobs must be >= 0, got {max_jobs}")
        self.mix = mix
        self.load = load
        self.n_cpus = n_cpus
        self.seed = seed
        self.max_jobs = max_jobs
        self.overrides = dict(request_overrides or {})
        catalog = catalog or APP_CATALOG
        # per-application arrival rates (jobs/sec): share of the
        # offered demand divided by one job's CPU-seconds of work
        self._apps = []
        total_rate = 0.0
        for app_name in sorted(mix.shares):
            if app_name not in catalog:
                raise KeyError(
                    f"mix {mix.name} references unknown application {app_name!r}"
                )
            spec = catalog[app_name]
            rate = mix.shares[app_name] * load * n_cpus / spec.cpu_demand()
            self._apps.append((app_name, spec, rate))
            total_rate += rate
        self.total_rate = total_rate
        self.streams = RandomStreams(derive_seed(seed, "serve-source"))
        self.drawn = 0
        self._clock = 0.0

    def draw(self) -> Optional[Job]:
        if self.max_jobs is not None and self.drawn >= self.max_jobs:
            return None
        gap = self.streams.exponential("interarrival", 1.0 / self.total_rate)
        self._clock += gap
        pick = self.streams.stream("app-choice").uniform(0.0, self.total_rate)
        acc = 0.0
        chosen = self._apps[-1]
        for entry in self._apps:
            acc += entry[2]
            if pick < acc:
                chosen = entry
                break
        app_name, spec, _ = chosen
        self.drawn += 1
        request = self.overrides.get(app_name, spec.default_request)
        return Job(
            job_id=self.drawn,
            spec=spec,
            submit_time=self._clock,
            request=request,
        )

    def describe(self) -> Dict[str, Any]:
        return {
            "kind": "synthetic",
            "mix": self.mix.name,
            "shares": dict(self.mix.shares),
            "load": self.load,
            "n_cpus": self.n_cpus,
            "seed": self.seed,
            "max_jobs": self.max_jobs,
            "request_overrides": dict(self.overrides) or None,
        }


class SwfSource(ArrivalSource):
    """Streams jobs from a Standard Workload Format file.

    The file is read incrementally (constant memory), each line through
    the lenient :func:`repro.qs.swf.swf_line`, so dirty archive logs —
    comment banners, malformed lines, bogus negative runtimes — are
    skipped with counts in :attr:`parse_stats`.  Submit times that go
    backwards are clamped to the running maximum (counted as
    ``out_of_order``): an arrival stream cannot be re-sorted.

    Pickling stores the byte offset, not the handle: a restored source
    seeks back to where it stopped and re-draws identical jobs.  A
    FIFO or other non-seekable stream works for live runs but cannot
    be restored mid-stream (the journal still covers recovery).
    """

    __slots__ = (
        "path", "max_jobs", "_catalog_names", "_catalog", "_executables",
        "parse_stats", "_offset", "_lineno", "_last_submit", "_handle",
        "_exhausted",
    )

    def __init__(
        self,
        path: str,
        executables: Optional[Mapping[int, ApplicationSpec]] = None,
        catalog: Optional[Mapping[str, ApplicationSpec]] = None,
        max_jobs: Optional[int] = None,
    ) -> None:
        self.path = path
        self.max_jobs = max_jobs
        self._catalog_names = sorted((catalog or APP_CATALOG))
        self._catalog = dict(catalog or APP_CATALOG)
        self._executables = dict(executables) if executables else None
        self.parse_stats = SwfParseStats()
        self.drawn = 0
        self._offset = 0
        self._lineno = 0
        self._last_submit = 0.0
        self._handle: Optional[TextIO] = None
        self._exhausted = False

    # -- incremental, lenient line reader --------------------------------
    def _file(self) -> TextIO:
        if self._handle is None:
            self._handle = open(self.path, "r")
            if self._offset and self._handle.seekable():
                self._handle.seek(self._offset)
        return self._handle

    def _next_record(self) -> Optional[SwfJob]:
        handle = self._file()
        while True:
            line = handle.readline()
            if not line:
                return None
            if handle.seekable():
                self._offset = handle.tell()
            self._lineno += 1
            record = swf_line(line, self._lineno, self.parse_stats, strict=False)
            if record is not None:
                return record

    def _spec_for(self, record: SwfJob) -> ApplicationSpec:
        if self._executables is not None:
            if record.executable not in self._executables:
                raise KeyError(
                    f"job {record.job_number}: unknown executable "
                    f"{record.executable}"
                )
            return self._executables[record.executable]
        # default mapping: executable number → catalog app, round-robin
        index = (record.executable - 1) % len(self._catalog_names)
        return self._catalog[self._catalog_names[index]]

    def draw(self) -> Optional[Job]:
        if self._exhausted:
            return None
        if self.max_jobs is not None and self.drawn >= self.max_jobs:
            self._exhausted = True
            return None
        record = self._next_record()
        if record is None:
            self._exhausted = True
            return None
        submit = record.submit_time
        if submit < self._last_submit:
            self.parse_stats.out_of_order += 1
            submit = self._last_submit
        else:
            self._last_submit = submit
        spec = self._spec_for(record)
        request = record.requested_procs
        if request <= 0:
            request = record.allocated_procs
        if request <= 0:
            request = spec.default_request
        self.drawn += 1
        # ids must be strictly increasing for the streaming QS; SWF job
        # numbers in dirty logs are not trusted to be
        return Job(
            job_id=self.drawn,
            spec=spec,
            submit_time=submit,
            request=min(request, 1_000_000),
        )

    def describe(self) -> Dict[str, Any]:
        return {
            "kind": "swf",
            "path": self.path,
            "max_jobs": self.max_jobs,
            "executables": (
                sorted(self._executables) if self._executables else None
            ),
        }

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- pickling: offset, not handle ------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        state = slot_state(self)
        state["_handle"] = None
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        set_slot_state(self, state)
