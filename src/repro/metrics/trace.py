"""Per-CPU activity tracing.

The paper monitors workload executions with ``scpus``, a tracing tool
whose output is visualised with Paraver: "Each line represents the
activity of a CPU and each color represents a different application."

:class:`TraceRecorder` is our equivalent trace file.  The machine model
appends a :class:`Burst` every time a CPU switches between
applications (or idles), and synthetic burst statistics for
time-shared (IRIX-mode) segments where recording every quantum-sized
burst individually would be wasteful.  Scheduling-level events
(reallocations, multiprogramming-level changes) are recorded alongside
so that the Paraver-style analyses can regenerate Table 2, Fig. 5 and
Fig. 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional

from repro.metrics.stats import fold_sum


class Burst(NamedTuple):
    """A maximal interval during which one CPU ran one application."""

    cpu: int
    job_id: int
    app_name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        """Length of the burst in seconds."""
        return self.end - self.start


class ReallocationRecord(NamedTuple):
    """One allocation change applied to a running job."""

    time: float
    job_id: int
    app_name: str
    old_procs: int
    new_procs: int


class MplSample(NamedTuple):
    """Multiprogramming level observed at a point in time."""

    time: float
    running_jobs: int
    queued_jobs: int


class FaultRecord(NamedTuple):
    """One fault or recovery event observed during the run.

    ``kind`` is a small vocabulary shared by the injector, the machine
    and the resource managers:

    * ``cpu_fail`` / ``cpu_repair`` — a CPU went OFFLINE / came back
      (``target`` is the CPU id);
    * ``node_degrade`` / ``node_restore`` — a NUMA node slowed down /
      recovered (``target`` is the node id, ``value`` the speed factor);
    * ``job_crash`` / ``job_hang`` — the injected application failure
      (``target`` is the job id);
    * ``job_kill`` — the RM tore a job down (``value`` is the lost
      work in CPU-seconds);
    * ``job_requeue`` / ``job_failed`` — the queuing system's retry
      outcome (``value`` is the backoff delay for requeues);
    * ``report_drop`` / ``report_corrupt`` — SelfAnalyzer report loss;
    * ``fallback`` — graceful degradation forced an allocation change
      outside the policy: the equal-share fallback for a job with
      stale measurements, or a replacement CPU grafted onto a
      partition after a failure (``value`` is the resulting
      allocation).
    """

    time: float
    kind: str
    #: CPU id, node id or job id, depending on ``kind``
    target: int
    detail: str = ""
    value: float = 0.0


@dataclass(slots=True)
class SyntheticCpuLoad:
    """Aggregate burst statistics for time-shared execution.

    Under the IRIX model CPUs multiplex several kernel threads with a
    short scheduling quantum; recording each quantum as a burst would
    produce hundreds of thousands of records.  Instead we accumulate
    the counts analytically, as Paraver would report them.
    """

    bursts: float = 0.0
    busy_time: float = 0.0

    def add_segment(self, duration: float, sharers: int, quantum: float) -> None:
        """Account a segment where ``sharers`` apps shared this CPU."""
        if duration < 0:
            raise ValueError(f"segment duration must be >= 0, got {duration}")
        if sharers < 1:
            return
        if sharers == 1:
            # Exclusive use still shows as a single long burst per
            # segment; accounted as one burst.
            self.bursts += 1.0
            self.busy_time += duration
            return
        if quantum <= 0:
            raise ValueError(f"quantum must be positive, got {quantum}")
        self.bursts += duration / quantum
        self.busy_time += duration


class TraceRecorder:
    """Collects all measurement records for one workload execution."""

    __slots__ = (
        "n_cpus", "bursts", "reallocations", "mpl_samples", "faults",
        "migrations", "synthetic", "_horizon",
    )

    def __init__(self, n_cpus: int) -> None:
        if n_cpus < 1:
            raise ValueError(f"n_cpus must be >= 1, got {n_cpus}")
        self.n_cpus = n_cpus
        self.bursts: List[Burst] = []
        self.reallocations: List[ReallocationRecord] = []
        self.mpl_samples: List[MplSample] = []
        self.faults: List[FaultRecord] = []
        self.migrations = 0
        self.synthetic: Dict[int, SyntheticCpuLoad] = {}
        self._horizon = 0.0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_burst(self, burst: Burst) -> None:
        """Append a finished burst (zero-length bursts are dropped)."""
        duration = burst.duration
        if duration < 0:
            raise ValueError(f"negative burst duration: {burst}")
        if duration == 0:
            return
        self.bursts.append(burst)
        self._horizon = max(self._horizon, burst.end)

    def record_reallocation(self, record: ReallocationRecord) -> None:
        """Append an allocation-change record."""
        self.reallocations.append(record)
        self._horizon = max(self._horizon, record.time)

    def record_mpl(self, time: float, running: int, queued: int) -> None:
        """Sample the multiprogramming level (Fig. 8 input)."""
        self.mpl_samples.append(MplSample(time, running, queued))
        self._horizon = max(self._horizon, time)

    def record_fault(self, record: FaultRecord) -> None:
        """Append a fault/recovery event (drives availability metrics)."""
        self.faults.append(record)
        self._horizon = max(self._horizon, record.time)

    def faults_of_kind(self, kind: str) -> List[FaultRecord]:
        """All fault records of one kind, in recording order."""
        return [f for f in self.faults if f.kind == kind]

    def record_migrations(self, count: int) -> None:
        """Add kernel-thread migrations to the global counter."""
        if count < 0:
            raise ValueError(f"migration count must be >= 0, got {count}")
        self.migrations += count

    def record_timeshare_segment(
        self, cpu: int, t0: float, t1: float, sharers: int, quantum: float
    ) -> None:
        """Account a time-shared segment on one CPU (IRIX mode)."""
        if t1 < t0:
            raise ValueError(f"segment ends before it starts: [{t0}, {t1}]")
        load = self.synthetic.setdefault(cpu, SyntheticCpuLoad())
        load.add_segment(t1 - t0, sharers, quantum)
        self._horizon = max(self._horizon, t1)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def horizon(self) -> float:
        """Latest time touched by any record."""
        return self._horizon

    def bursts_for_cpu(self, cpu: int) -> List[Burst]:
        """All recorded (exclusive-mode) bursts of one CPU, in order."""
        return [b for b in self.bursts if b.cpu == cpu]

    def bursts_for_job(self, job_id: int) -> List[Burst]:
        """All recorded bursts belonging to one job."""
        return [b for b in self.bursts if b.job_id == job_id]

    def busy_time(self) -> float:
        """Total CPU-seconds of recorded activity (real + synthetic)."""
        real = fold_sum(b.duration for b in self.bursts)
        synthetic = fold_sum(load.busy_time for load in self.synthetic.values())
        return real + synthetic

    def cpu_utilization(self, t_end: Optional[float] = None) -> float:
        """Fraction of capacity used up to ``t_end`` (default: horizon)."""
        end = self._horizon if t_end is None else t_end
        if end <= 0:
            return 0.0
        return min(self.busy_time() / (self.n_cpus * end), 1.0)


class FoldingTraceRecorder(TraceRecorder):
    """Bounded-memory twin of :class:`TraceRecorder` for streaming runs.

    The closed-system recorder appends one object per burst, MPL sample
    and reallocation — O(events) memory, fatal for a long-lived
    service.  This variant exposes the exact same recording API (the
    machine, RMs and QS cannot tell them apart) but retains no record:
    it keeps the total busy time of the bursts (so :meth:`busy_time`
    and ``cpu_utilization`` still answer exactly) and the trace
    horizon.  The per-record query surface (``bursts_for_cpu`` and
    friends) returns empty — streaming analyses read
    :class:`~repro.metrics.streaming.StreamingStats` instead.
    """

    __slots__ = ("burst_busy",)

    def __init__(self, n_cpus: int) -> None:
        super().__init__(n_cpus)
        self.burst_busy = 0.0

    # -- folds replacing the append paths --------------------------------
    def record_burst(self, burst: Burst) -> None:
        duration = burst.duration
        if duration < 0:
            raise ValueError(f"negative burst duration: {burst}")
        if duration == 0:
            return
        self.burst_busy += duration
        self._horizon = max(self._horizon, burst.end)

    def record_reallocation(self, record: ReallocationRecord) -> None:
        self._horizon = max(self._horizon, record.time)

    def record_mpl(self, time: float, running: int, queued: int) -> None:
        self._horizon = max(self._horizon, time)

    def record_fault(self, record: FaultRecord) -> None:
        self._horizon = max(self._horizon, record.time)

    # -- queries over the folds ------------------------------------------
    def busy_time(self) -> float:
        synthetic = fold_sum(load.busy_time for load in self.synthetic.values())
        return self.burst_busy + synthetic

    def faults_of_kind(self, kind: str) -> List[FaultRecord]:
        return []
