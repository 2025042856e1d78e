"""The job abstraction shared by the queuing system and the scheduler.

A job is one submission of an application: the application's static
spec, the processor request the user tuned (or did not tune), the
submission time from the workload trace, and the lifecycle timestamps
from which the paper's two headline metrics derive:

* **execution time** — start of execution to completion,
* **response time** — submission to completion ("the period of time
  that starts when the application is submitted and finishes when the
  application completes"); this includes queue waiting time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.apps.application import ApplicationSpec


class JobState(enum.Enum):
    """Lifecycle of a job inside the queuing system.

    ``FAILED`` is terminal: the job was killed (crash, hang, or the
    fault of a resource it ran on) more times than the retry budget
    allows.  A requeued job goes back to ``QUEUED``.
    """

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


@dataclass(slots=True)
class Job:
    """One submitted instance of an application."""

    job_id: int
    spec: ApplicationSpec
    submit_time: float
    #: processors requested at submission (defaults to the spec's tuning)
    request: Optional[int] = None
    state: JobState = JobState.QUEUED
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    #: number of executions that were killed by a fault (0 = clean run)
    attempts: int = 0
    #: time of the *first* start; ``start_time`` tracks the latest one
    first_start_time: Optional[float] = None

    def __post_init__(self) -> None:
        if self.request is None:
            self.request = self.spec.default_request
        if self.request < 1:
            raise ValueError(f"job {self.job_id}: request must be >= 1")
        if self.submit_time < 0:
            raise ValueError(f"job {self.job_id}: submit_time must be >= 0")

    @property
    def app_name(self) -> str:
        """Name of the application this job runs."""
        return self.spec.name

    def mark_started(self, now: float) -> None:
        """Transition QUEUED -> RUNNING at time *now*."""
        if self.state is not JobState.QUEUED:
            raise RuntimeError(f"job {self.job_id}: started twice")
        if now < self.submit_time - 1e-9:
            raise RuntimeError(f"job {self.job_id}: started before submission")
        self.state = JobState.RUNNING
        self.start_time = now
        if self.first_start_time is None:
            self.first_start_time = now

    def mark_finished(self, now: float) -> None:
        """Transition RUNNING -> DONE at time *now*."""
        if self.state is not JobState.RUNNING:
            raise RuntimeError(f"job {self.job_id}: finished while {self.state}")
        self.state = JobState.DONE
        self.end_time = now

    def mark_requeued(self, now: float) -> None:
        """Transition RUNNING -> QUEUED after a fault killed this run.

        The job keeps its original ``submit_time`` (response time spans
        every attempt) and its ``first_start_time``; all execution
        progress is lost.
        """
        if self.state is not JobState.RUNNING:
            raise RuntimeError(f"job {self.job_id}: requeued while {self.state}")
        self.state = JobState.QUEUED
        self.attempts += 1

    def mark_failed(self, now: float) -> None:
        """Terminal transition to FAILED (retry budget exhausted)."""
        if self.state in (JobState.DONE, JobState.FAILED):
            raise RuntimeError(f"job {self.job_id}: failed while {self.state}")
        if self.state is JobState.RUNNING:
            self.attempts += 1
        self.state = JobState.FAILED
        self.end_time = now

    @property
    def wait_time(self) -> Optional[float]:
        """Queue waiting time (submission to start), if started."""
        if self.start_time is None:
            return None
        return self.start_time - self.submit_time

    @property
    def execution_time(self) -> Optional[float]:
        """Start-to-completion time, if completed."""
        if self.end_time is None or self.start_time is None:
            return None
        return self.end_time - self.start_time

    @property
    def response_time(self) -> Optional[float]:
        """Submission-to-completion time, if completed."""
        if self.end_time is None:
            return None
        return self.end_time - self.submit_time
