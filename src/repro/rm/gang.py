"""Gang scheduling (Ousterhout, 1982): time-slicing whole partitions.

The classic alternative to the paper's space-sharing family: every
application runs with its *full* request (all threads co-scheduled,
so fine-grain synchronisation stays cheap), and the machine
time-multiplexes between *rows* of an Ousterhout matrix — sets of
jobs whose requests fit the machine together.  Each row runs for one
long quantum, then the next row is switched in.

Strengths and weaknesses relative to PDPA emerge naturally:

* no malleability needed, full-request execution while running;
* but a job's wall-clock rate is divided by the number of rows, and
  row fragmentation wastes capacity (a row with 40 of 60 CPUs used
  still consumes a full quantum);
* no performance measurement: a poorly scaling job gangs its full
  request forever.

The implementation models the matrix analytically, like the IRIX
model: jobs advance at ``1 / n_rows`` of their dedicated speed
(adjusted for a per-switch overhead), rows are repacked first-fit at
every arrival and completion, and burst statistics are synthesised
from the quantum length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.metrics.trace import TraceRecorder
from repro.qs.job import Job
from repro.rm.manager import BaseResourceManager
from repro.runtime.nthlib import RuntimeConfig
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams


@dataclass(frozen=True, slots=True)
class GangConfig:
    """Gang-scheduler parameters.

    Attributes
    ----------
    quantum:
        Row time slice (seconds).  Long, as gang schedulers use
        (100 ms-class context-switch costs must be amortised).
    switch_overhead:
        Fraction of each quantum lost to the row switch (cache reload,
        coordinated preemption).
    max_jobs:
        Admission cap (None = unlimited rows).
    """

    quantum: float = 2.0
    switch_overhead: float = 0.02
    max_jobs: Optional[int] = None

    def __post_init__(self) -> None:
        if self.quantum <= 0:
            raise ValueError("quantum must be positive")
        if not 0 <= self.switch_overhead < 1:
            raise ValueError("switch_overhead must be in [0, 1)")
        if self.max_jobs is not None and self.max_jobs < 1:
            raise ValueError("max_jobs must be >= 1 or None")


def pack_rows(requests: Dict[int, int], capacity: int) -> List[List[int]]:
    """First-fit-decreasing packing of jobs into Ousterhout rows.

    Every job occupies ``min(request, capacity)`` slots of one row.
    Returns the rows as lists of job ids (deterministic order).
    """
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    rows: List[List[int]] = []
    loads: List[int] = []
    order = sorted(requests, key=lambda jid: (-requests[jid], jid))
    for jid in order:
        need = min(requests[jid], capacity)
        for index, load in enumerate(loads):
            if load + need <= capacity:
                rows[index].append(jid)
                loads[index] += need
                break
        else:
            rows.append([jid])
            loads.append(need)
    return rows


class GangScheduler(BaseResourceManager):
    """Time-sliced gang scheduling over Ousterhout rows."""

    name = "Gang"

    __slots__ = ("config", "_requests", "_rows", "_segment_start")

    def __init__(
        self,
        sim: Simulator,
        n_cpus: int,
        streams: RandomStreams,
        trace: Optional[TraceRecorder] = None,
        config: Optional[GangConfig] = None,
        runtime_config: Optional[RuntimeConfig] = None,
    ) -> None:
        base_runtime = runtime_config or RuntimeConfig()
        # Gangs are not malleable at runtime: no SelfAnalyzer loop.
        runtime = RuntimeConfig(
            noise_sigma=base_runtime.noise_sigma,
            use_selfanalyzer=False,
            analyzer=base_runtime.analyzer,
        )
        super().__init__(sim, n_cpus, streams, trace, runtime)
        self.config = config or GangConfig()
        self._requests: Dict[int, int] = {}
        self._rows: List[List[int]] = []
        self._segment_start = sim.now

    # ------------------------------------------------------------------
    # matrix bookkeeping
    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        """Rows in the current Ousterhout matrix."""
        return max(len(self._rows), 1)

    def row_of(self, job_id: int) -> int:
        """Row index of a running job (ValueError if unknown)."""
        for index, row in enumerate(self._rows):
            if job_id in row:
                return index
        raise ValueError(f"job {job_id} is not in the matrix")

    def _repack(self) -> None:
        self._rows = pack_rows(self._requests, self.n_cpus)

    # ------------------------------------------------------------------
    # admission and lifecycle
    # ------------------------------------------------------------------
    def can_admit(self, queued_jobs: int, head_request: Optional[int] = None) -> bool:
        if queued_jobs <= 0:
            return False
        if self.config.max_jobs is None:
            return True
        return self.running_count < self.config.max_jobs

    def _allocation(self, job_id: int) -> int:
        return self._requests[job_id]

    def start_job(self, job: Job) -> None:
        self._account_segment()
        job.mark_started(self.sim.now)
        assert job.request is not None
        self._requests[job.job_id] = min(job.request, self.n_cpus)
        self._repack()
        self._launch_runtime(job)
        self.on_state_change()

    def _release_job(self, job: Job) -> None:
        self._account_segment()
        del self._requests[job.job_id]
        self._repack()

    def finalize(self) -> None:
        self._account_segment()

    # ------------------------------------------------------------------
    # execution rate
    # ------------------------------------------------------------------
    def iteration_speed_procs(self, job: Job, nominal_procs: int) -> float:
        """Full gang while running, scaled by the row duty cycle."""
        request = self._requests[job.job_id]
        duty = (1.0 - self.config.switch_overhead) / self.n_rows
        return max(request * duty, 0.05)

    # ------------------------------------------------------------------
    # analytic trace accounting
    # ------------------------------------------------------------------
    def _account_segment(self) -> None:
        now = self.sim.now
        duration = now - self._segment_start
        self._segment_start = now
        if duration <= 0 or not self._requests or self.trace is None:
            return
        # Each CPU runs one job per row slot; a full matrix cycle is
        # n_rows quanta, so each CPU sees one burst per quantum (row
        # switches) when more than one row exists.
        sharers = self.n_rows
        busy = min(sum(self._requests.values()), self.n_cpus * sharers)
        # Approximate per-CPU occupancy by the average row fill.
        for cpu in range(self.n_cpus):
            self.trace.record_timeshare_segment(
                cpu, now - duration, now,
                sharers if sharers > 1 else 1,
                self.config.quantum,
            )
        # Row switches preempt every running thread.
        if sharers > 1:
            switches = duration / self.config.quantum
            self.trace.record_migrations(int(switches * min(busy, self.n_cpus) / 10))
