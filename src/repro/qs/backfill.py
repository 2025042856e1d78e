"""EASY backfilling — the classic queue-side answer to fragmentation.

The paper's §4.3 rejects fixed-partition batch scheduling because of
fragmentation.  The standard mitigation in production batch systems is
*EASY backfilling* (Lifka, 1995): when the head of the FCFS queue does
not fit, a later job may jump ahead **iff** starting it now does not
delay the head's earliest possible start (its *reservation*), computed
from the running jobs' estimated completion times.

Included as an extension so that the coordination ablations can pit
PDPA against a competent traditional scheduler rather than a strawman:
backfilling recovers some of the fragmentation loss, but it cannot
shrink a running job, so a malleable coordinated policy still wins on
workloads with poorly scaling codes.

Runtime estimates use each job's ideal execution time at its request —
the analogue of (honest) user-provided wall-time estimates.  A job
reserves and backfills with the width :class:`~repro.rm.batch.BatchFCFS`
runs it on, its request capped by the healthy CPUs.
"""

from __future__ import annotations

from typing import List, Optional

from repro.metrics.trace import TraceRecorder
from repro.qs.job import Job
from repro.qs.queuing import NanosQS, RetryConfig
from repro.rm.batch import batch_width
from repro.rm.manager import SpaceSharedResourceManager
from repro.sim.engine import Simulator


def estimated_runtime(job: Job) -> float:
    """User-style wall-time estimate: ideal time at the full request."""
    assert job.request is not None
    return job.spec.execution_time(job.request)


class BackfillQS(NanosQS):
    """FCFS queue with EASY backfilling for rigid space sharing.

    Requires a :class:`SpaceSharedResourceManager`; the reservation
    computation reads the running jobs' allocations through it.
    """

    __slots__ = ("backfilled_jobs",)

    def __init__(
        self,
        sim: Simulator,
        rm: SpaceSharedResourceManager,
        jobs: List[Job],
        trace: Optional[TraceRecorder] = None,
        retry: Optional[RetryConfig] = None,
    ) -> None:
        if not isinstance(rm, SpaceSharedResourceManager):
            raise TypeError("EASY backfilling needs a space-shared manager")
        super().__init__(sim, rm, jobs, trace, retry)
        # whether a candidate finishes before the head's reservation
        # depends on the clock, so admission must re-run at every report
        rm.clocked_admission = True
        #: number of jobs started out of FCFS order (diagnostics)
        self.backfilled_jobs = 0

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def try_start(self) -> None:  # noqa: D102 - see NanosQS
        if self._in_try_start:
            return
        self._in_try_start = True
        try:
            progress = True
            while progress and self.queue:
                progress = False
                head = self.queue[0]
                if self.rm.can_admit(len(self.queue), head_request=head.request):
                    self.queue.pop(0)
                    self.rm.start_job(head)
                    self._sample_mpl()
                    progress = True
                    continue
                backfilled = self._try_backfill()
                if backfilled is not None:
                    self.queue.remove(backfilled)
                    self.rm.start_job(backfilled)
                    self.backfilled_jobs += 1
                    self._sample_mpl()
                    progress = True
        finally:
            self._in_try_start = False

    def _try_backfill(self) -> Optional[Job]:
        """Find a queued job that can start without delaying the head."""
        head = self.queue[0]
        assert head.request is not None
        view = self.rm.system_view()
        free_now = view.free_cpus
        healthy = view.total_cpus
        shadow_time, spare_at_shadow = self._reservation(
            batch_width(head.request, healthy), free_now, view
        )
        if shadow_time is None:
            return None
        for candidate in self.queue[1:]:
            assert candidate.request is not None
            width = batch_width(candidate.request, healthy)
            if width > free_now:
                continue
            finishes_before_shadow = (
                self.sim.now + estimated_runtime(candidate) <= shadow_time + 1e-9
            )
            fits_in_spare = width <= spare_at_shadow
            if finishes_before_shadow or fits_in_spare:
                return candidate
        return None

    def _reservation(self, needed: int, free_now: int, view):
        """Earliest time *needed* CPUs are free, and the spare CPUs then.

        Walks the running jobs in estimated-completion order,
        accumulating released processors.
        """
        if needed <= free_now:
            return self.sim.now, free_now - needed
        releases = []
        for job_view in view.jobs.values():
            job = job_view.job
            assert job.start_time is not None
            completion = job.start_time + estimated_runtime(job)
            releases.append((max(completion, self.sim.now), job_view.allocation))
        releases.sort()
        free = free_now
        for when, released in releases:
            free += released
            if free >= needed:
                return when, free - needed
        return None, 0
