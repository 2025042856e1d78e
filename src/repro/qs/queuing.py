"""The NANOS Queuing System (paper §3.2).

The NANOS QS "is a user-level submission tool.  It implements the job
scheduling policy and interacts with the NANOS Resource Manager to
control the multiprogramming level."  Job selection is FCFS (the
queuing system decides *which* job starts); the *when* is delegated to
the resource manager's admission answer — this is exactly the
coordination split §4.3 proposes.

The QS also records the multiprogramming-level samples from which
Fig. 8 is regenerated, and guarantees repeatability: it replays a
fixed list of jobs with fixed submission times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.metrics.trace import FaultRecord, TraceRecorder
from repro.qs.job import Job, JobState
from repro.rm.manager import BaseResourceManager
from repro.sim.engine import Simulator


@dataclass(frozen=True, slots=True)
class RetryConfig:
    """Retry policy for jobs killed by faults.

    A killed job re-enters the FCFS queue after a capped exponential
    backoff — immediately resubmitting a job onto a machine that just
    lost capacity only thrashes the admission protocol.  After
    ``max_retries`` killed executions the job is declared FAILED.
    """

    max_retries: int = 3
    backoff_base: float = 5.0
    backoff_cap: float = 60.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base < 0 or self.backoff_cap < self.backoff_base:
            raise ValueError(
                f"need 0 <= backoff_base <= backoff_cap, got "
                f"{self.backoff_base}/{self.backoff_cap}"
            )

    def delay(self, attempt: int) -> float:
        """Backoff before retry number *attempt* (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        return min(self.backoff_base * 2.0 ** (attempt - 1), self.backoff_cap)


class NanosQS:
    """FCFS queue coordinated with the resource manager."""

    __slots__ = (
        "sim", "rm", "jobs", "trace", "retry", "queue", "completed", "failed",
        "requeue_count", "_in_try_start",
    )

    def __init__(
        self,
        sim: Simulator,
        rm: BaseResourceManager,
        jobs: List[Job],
        trace: Optional[TraceRecorder] = None,
        retry: Optional[RetryConfig] = None,
    ) -> None:
        self.sim = sim
        self.rm = rm
        self.jobs = list(jobs)
        self.trace = trace
        self.retry = retry or RetryConfig()
        self.queue: List[Job] = []
        self.completed: List[Job] = []
        self.failed: List[Job] = []
        self.requeue_count = 0
        self._in_try_start = False
        rm.on_state_change = self.try_start
        rm.on_job_finished = self._job_finished
        rm.on_job_killed = self._job_killed

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def schedule_submissions(self) -> None:
        """Schedule every job's arrival event on the simulator."""
        for job in self.jobs:
            self.sim.schedule_at(
                job.submit_time,
                self._on_arrival,
                job,
                label=f"submit:{job.job_id}",
            )

    def submit(self, job: Job) -> None:
        """Dynamically submit one more job (fuzzing / interactive use).

        Registers the job and schedules its arrival exactly as
        :meth:`schedule_submissions` does for the static list.  The
        job's ``submit_time`` must not lie in the simulated past, and
        its id must be unique — the accounting invariants (one job,
        one terminal state) rely on ids as identity.
        """
        if any(existing.job_id == job.job_id for existing in self.jobs):
            raise ValueError(f"duplicate job id {job.job_id}")
        self.jobs.append(job)
        self.sim.schedule_at(
            job.submit_time,
            self._on_arrival,
            job,
            label=f"submit:{job.job_id}",
        )

    def _on_arrival(self, job: Job) -> None:
        self.queue.append(job)
        self._sample_mpl()
        self.try_start()

    # ------------------------------------------------------------------
    # coordinated admission
    # ------------------------------------------------------------------
    def try_start(self) -> None:
        """Start queued jobs for as long as the RM admits them.

        Re-entrant calls (the RM notifies state changes while we are
        starting a job) are coalesced into the outer loop.
        """
        if self._in_try_start:
            return
        self._in_try_start = True
        try:
            while self.queue and self.rm.can_admit(
                len(self.queue), head_request=self.queue[0].request
            ):
                job = self.queue.pop(0)  # FCFS
                self.rm.start_job(job)
                self._sample_mpl()
        finally:
            self._in_try_start = False

    def _job_finished(self, job: Job) -> None:
        self.completed.append(job)
        self._sample_mpl()
        # rm.on_state_change fires after this callback and retries
        # admission; calling try_start here too is harmless but
        # redundant, so we rely on the state-change hook.

    # ------------------------------------------------------------------
    # fault recovery: retry with capped exponential backoff
    # ------------------------------------------------------------------
    def _job_killed(self, job: Job, reason: str) -> None:
        """RM hook: *job*'s execution was torn down by a fault."""
        now = self.sim.now
        if job.attempts >= self.retry.max_retries:
            job.mark_failed(now)
            self.failed.append(job)
            if self.trace is not None:
                self.trace.record_fault(FaultRecord(
                    now, "job_failed", job.job_id,
                    detail=f"{reason} (after {job.attempts} killed runs)",
                ))
            self._sample_mpl()
            return
        job.mark_requeued(now)
        delay = self.retry.delay(job.attempts)
        self.requeue_count += 1
        if self.trace is not None:
            self.trace.record_fault(FaultRecord(
                now, "job_requeue", job.job_id, detail=reason, value=delay,
            ))
        self.sim.schedule_after(
            delay, self._on_requeue, job, label=f"requeue:{job.job_id}"
        )
        self._sample_mpl()

    def _on_requeue(self, job: Job) -> None:
        """Backoff expired: the job rejoins the FCFS queue."""
        self.queue.append(job)
        self._sample_mpl()
        self.try_start()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _sample_mpl(self) -> None:
        if self.trace is not None:
            self.trace.record_mpl(self.sim.now, self.rm.running_count, len(self.queue))

    @property
    def queued_count(self) -> int:
        """Jobs currently waiting in the queue."""
        return len(self.queue)

    @property
    def all_done(self) -> bool:
        """Whether every submitted job reached a terminal state."""
        return len(self.completed) + len(self.failed) == len(self.jobs)

    def unfinished_jobs(self) -> List[Job]:
        """Jobs not yet terminal (for end-of-run diagnostics)."""
        return [
            job for job in self.jobs
            if job.state not in (JobState.DONE, JobState.FAILED)
        ]
