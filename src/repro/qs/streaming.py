"""Open-system variant of the NANOS QS: bounded ingress, bounded memory.

The closed-system :class:`~repro.qs.queuing.NanosQS` replays a fixed
job list and keeps every :class:`~repro.qs.job.Job` alive for the
final summary.  A long-lived streaming service needs the opposite
discipline:

* **bounded ingress** — the FCFS queue has a configurable cap and a
  deterministic shedding policy (``reject`` the newcomer,
  ``drop-oldest`` from the queue head, or ``block`` the generator —
  flow control exerted by the arrival pump, not the queue).  The cap
  governs *admissions*: a killed job's retry re-enters the queue
  without passing admission control (already-admitted work is never
  shed on retry), so the raw backlog may transiently exceed the cap
  by in-flight retries — the validated invariant is
  ``backlog <= cap + total retry re-entries``, which degenerates to
  the strict cap in retry-free runs;
* **bounded memory** — terminal jobs are folded into
  :class:`~repro.metrics.streaming.StreamingStats` the moment they
  finish and their objects (plus their per-job RNG noise streams) are
  pruned afterwards, so the working set is O(queue + running), never
  O(jobs ever processed);
* **overload honesty** — submissions, admissions, sheds, deferrals and
  completions are counted such that
  ``submitted == admitted + shed`` and
  ``admitted == queued + running + backoff + completed + failed``
  hold at every instant (``repro.validate.validate_stream``).

Overload is detected from backlog versus *healthy* capacity — the
fault-aware ``effective_cpus`` the resource managers already maintain
— so a machine that lost CPUs to faults trips the overload signal
earlier, exactly as it should.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.metrics.stats import JobRecord
from repro.metrics.streaming import StreamingStats
from repro.metrics.trace import TraceRecorder
from repro.qs.job import Job, JobState
from repro.qs.queuing import NanosQS, RetryConfig
from repro.rm.manager import BaseResourceManager
from repro.sim.engine import Simulator

__all__ = ["SHED_POLICIES", "IngressConfig", "StreamingQS"]

#: Deterministic load-shedding policies for a full ingress queue.
SHED_POLICIES = ("reject", "drop-oldest", "block")

#: ``offer`` outcomes.
ADMITTED = "admitted"
SHED = "shed"
BLOCKED = "blocked"


@dataclass(frozen=True, slots=True)
class IngressConfig:
    """Admission-control knobs for the streaming queue.

    Attributes
    ----------
    max_queue:
        Ingress queue bound; 0 means unbounded (no shedding ever).
    policy:
        What to do when the queue is full: ``reject`` sheds the
        arriving job, ``drop-oldest`` evicts the queue head to make
        room, ``block`` tells the arrival pump to stop drawing from
        the generator until capacity frees up.
    overload_factor:
        The service is *overloaded* when the backlog exceeds
        ``overload_factor × effective_cpus`` (healthy capacity, so
        faults tighten the threshold).
    """

    max_queue: int = 0
    policy: str = "reject"
    overload_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {self.max_queue}")
        if self.policy not in SHED_POLICIES:
            raise ValueError(
                f"unknown shed policy {self.policy!r}; pick one of {SHED_POLICIES}"
            )
        if self.overload_factor <= 0:
            raise ValueError("overload_factor must be positive")


class StreamingQS(NanosQS):
    """FCFS queue with bounded ingress and fold-on-completion metrics."""

    __slots__ = (
        "ingress", "stats", "peak_queue", "backoff_pending", "pruned_completed",
        "pruned_failed", "_last_job_id", "on_capacity_available", "_overloaded",
    )

    def __init__(
        self,
        sim: Simulator,
        rm: BaseResourceManager,
        trace: Optional[TraceRecorder] = None,
        retry: Optional[RetryConfig] = None,
        ingress: Optional[IngressConfig] = None,
        stats: Optional[StreamingStats] = None,
    ) -> None:
        super().__init__(sim, rm, [], trace, retry)
        self.ingress = ingress or IngressConfig()
        self.stats = stats if stats is not None else StreamingStats()
        #: highest backlog ever (retry re-entry may push it past the
        #: ingress bound — admitted work is never shed on retry)
        self.peak_queue = 0
        #: killed jobs currently waiting out their retry backoff
        self.backoff_pending = 0
        #: terminal Job objects already pruned (memory accounting only;
        #: the stats counters are the authoritative totals)
        self.pruned_completed = 0
        self.pruned_failed = 0
        self._last_job_id = 0
        #: pump hook: fired when a full queue frees a slot (block policy)
        self.on_capacity_available: Optional[Callable[[], None]] = None
        self._overloaded = False

    # ------------------------------------------------------------------
    # bounded-ingress admission
    # ------------------------------------------------------------------
    @property
    def has_capacity(self) -> bool:
        """Whether the ingress queue can take one more job."""
        return self.ingress.max_queue == 0 or len(self.queue) < self.ingress.max_queue

    def offer(self, job: Job) -> str:
        """Admission-controlled submission at the current sim time.

        Returns ``"admitted"``, ``"shed"`` or ``"blocked"``.  A blocked
        offer takes NO ownership of the job — the caller (the arrival
        pump) holds it and re-offers once :attr:`on_capacity_available`
        fires; blocked offers are not counted as submissions, so
        ``submitted == admitted + shed`` stays exact.
        """
        if job.job_id <= self._last_job_id:
            raise ValueError(
                f"job ids must be strictly increasing: got {job.job_id} "
                f"after {self._last_job_id}"
            )
        if not self.has_capacity:
            if self.ingress.policy == "block":
                return BLOCKED
            self.stats.observe_submit()
            self._last_job_id = job.job_id
            if self.ingress.policy == "reject":
                self.stats.observe_shed("reject")
                self._note_overload()
                return SHED
            # drop-oldest: evict the queue head to make room, then admit
            victim = self.queue.pop(0)
            self._discard_job(victim)
            self.stats.observe_shed("drop-oldest")
            self._admit(job)
            return ADMITTED
        self.stats.observe_submit()
        self._last_job_id = job.job_id
        self._admit(job)
        return ADMITTED

    def _admit(self, job: Job) -> None:
        self.jobs.append(job)
        self.stats.observe_admit()
        self._on_arrival(job)

    def _discard_job(self, victim: Job) -> None:
        """Forget a shed job entirely (it never ran)."""
        self.jobs.remove(victim)
        self._sample_mpl()

    # ------------------------------------------------------------------
    # folds at every lifecycle edge
    # ------------------------------------------------------------------
    def _on_arrival(self, job: Job) -> None:
        super()._on_arrival(job)
        backlog = len(self.queue)
        if backlog > self.peak_queue:
            self.peak_queue = backlog
        self.stats.sample_backlog(backlog)
        self._note_overload()

    def _job_finished(self, job: Job) -> None:
        super()._job_finished(job)
        self.stats.observe(JobRecord.from_job(job))
        self._notify_capacity()

    def _job_killed(self, job: Job, reason: str) -> None:
        will_fail = job.attempts >= self.retry.max_retries
        super()._job_killed(job, reason)
        if will_fail:
            self.stats.observe_failed(job.submit_time, job.attempts)
            self._notify_capacity()
        else:
            self.backoff_pending += 1
            self.stats.observe_requeue()

    def _on_requeue(self, job: Job) -> None:
        self.backoff_pending -= 1
        super()._on_requeue(job)
        backlog = len(self.queue)
        if backlog > self.peak_queue:
            self.peak_queue = backlog
        self.stats.sample_backlog(backlog)

    def _sample_mpl(self) -> None:
        super()._sample_mpl()
        self.stats.sample_mpl(self.rm.running_count)

    def try_start(self) -> None:
        super().try_start()
        self._notify_capacity()

    def _notify_capacity(self) -> None:
        if self.on_capacity_available is not None and self.has_capacity:
            self.on_capacity_available()

    # ------------------------------------------------------------------
    # overload detection: backlog vs healthy capacity
    # ------------------------------------------------------------------
    @property
    def healthy_capacity(self) -> int:
        """Fault-aware CPU capacity (``effective_cpus`` of the RM)."""
        return int(getattr(self.rm, "effective_cpus", self.rm.n_cpus))

    @property
    def overloaded(self) -> bool:
        """Backlog beyond what healthy capacity can plausibly absorb."""
        threshold = self.ingress.overload_factor * max(1, self.healthy_capacity)
        full = not self.has_capacity
        return full or len(self.queue) > threshold

    def _note_overload(self) -> None:
        """Count rising edges of the overload signal."""
        now_overloaded = self.overloaded
        if now_overloaded and not self._overloaded:
            self.stats.observe_overload()
        self._overloaded = now_overloaded

    # ------------------------------------------------------------------
    # bounded memory: prune terminal jobs after their stats are folded
    # ------------------------------------------------------------------
    def prune_terminal(self, streams: Optional[object] = None) -> int:
        """Drop terminal Job objects (and their RNG noise streams).

        Aggregates were folded at completion time, so pruning is pure
        memory reclamation — it never changes a digest.  Pass the
        session's :class:`~repro.sim.rng.RandomStreams` to also free
        the per-job ``iter-noise:<id>`` substreams.
        """
        pruned = len(self.completed) + len(self.failed)
        for job in self.completed:
            self._discard_streams(streams, job)
        for job in self.failed:
            self._discard_streams(streams, job)
        self.pruned_completed += len(self.completed)
        self.pruned_failed += len(self.failed)
        self.completed.clear()
        self.failed.clear()
        terminal = (JobState.DONE, JobState.FAILED)
        self.jobs = [job for job in self.jobs if job.state not in terminal]
        return pruned

    @staticmethod
    def _discard_streams(streams: Optional[object], job: Job) -> None:
        discard = getattr(streams, "discard", None)
        if discard is not None:
            discard(f"iter-noise:{job.job_id}")

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def live_jobs(self) -> int:
        """Jobs admitted but not yet terminal (queue + running + backoff)."""
        return len(self.queue) + self.rm.running_count + self.backoff_pending

    @property
    def all_done(self) -> bool:
        """Every admitted job reached a terminal state."""
        return self.live_jobs == 0

    def unfinished_jobs(self) -> List[Job]:
        terminal = (JobState.DONE, JobState.FAILED)
        return [job for job in self.jobs if job.state not in terminal]
