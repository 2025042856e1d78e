"""Traditional batch space sharing (rigid FCFS partitions).

The strawman §4.3 argues against: applications receive *exactly* the
processors they request, run to completion on a dedicated partition,
and a queued job starts only when enough processors are free.  This is
how classic batch queuing systems drive space-shared machines, and it
"suffers from fragmentation [...] when the total number of processors
requested does not fit the complete machine" — a 30-CPU job leaves 30
CPUs idle on a 60-CPU machine if the next job wants 31.

A job wider than the healthy machine runs on all of it: its width is
``min(request, healthy CPUs)`` (:func:`batch_width`), and a rigid job
folds its ``request`` processes onto that partition
(:meth:`~repro.apps.application.ApplicationSpec.folded_speedup`).

Included as a baseline for the coordination ablations; the paper
itself evaluates only the dynamic policies.
"""

from __future__ import annotations

from typing import Optional

from repro.qs.job import Job
from repro.rm.base import AllocationDecision, SchedulingPolicy, SystemView


def batch_width(request: int, healthy_cpus: int) -> int:
    """Processors a batch job runs on: its request, capped by the machine."""
    return min(request, healthy_cpus)


class BatchFCFS(SchedulingPolicy):
    """Exact-request dedicated partitions, FCFS admission."""

    name = "Batch"
    #: no job-count limit: admission is gated by free processors only
    fixed_mpl: Optional[int] = None

    __slots__ = ("_next_request",)

    def __init__(self) -> None:
        #: processor request of the queue head, which gates admission
        #: (strict FCFS, no backfilling)
        self._next_request: Optional[int] = None

    def note_head_request(self, request: Optional[int]) -> None:
        """Tell the policy the processor request of the queue head.

        The NANOS QS asks for admission before revealing the job; a
        caller that knows the head's request can set it here so the
        admission answer is exact.  Without it the policy admits
        whenever at least one CPU is free, and the arrival hook raises
        :class:`ValueError` when the request does not fit (a rigid job
        cannot be clamped), so the space-sharing RM's ``can_admit``
        always passes the queuing system's head request through.
        """
        self._next_request = request

    def wants_admission(self, system: SystemView, queued_jobs: int) -> bool:
        if queued_jobs <= 0:
            return False
        needed = self._next_request if self._next_request else 1
        return system.free_cpus >= batch_width(needed, system.total_cpus)

    def on_job_arrival(self, job: Job, system: SystemView) -> AllocationDecision:
        assert job.request is not None
        width = batch_width(job.request, system.total_cpus)
        if width > system.free_cpus:
            raise ValueError(
                f"Batch: job {job.job_id} needs {width} CPUs but only "
                f"{system.free_cpus} are free — admission gate violated"
            )
        return {job.job_id: width}

    def on_job_completion(self, job: Job, system: SystemView) -> AllocationDecision:
        return {}
