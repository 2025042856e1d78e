"""Bounded-memory aggregation for the open-system streaming mode.

The closed-system pipeline keeps one :class:`~repro.metrics.stats.JobRecord`
per job and summarises at the end — fine for Table 3, fatal for a
long-lived service where memory must not grow with jobs processed.
:class:`StreamingStats` replaces the record list with incremental
aggregates:

* per-application folds built on the PR 7
  :class:`~repro.sim.columns.RunningMean` column (running sum / count /
  max, one fixed-size struct per application class, never per job);
* whole-stream folds for response time and bounded slowdown;
* utilization / backlog / MPL samples in fixed-size deterministic
  :class:`Reservoir` samples (Algorithm R with an explicitly seeded
  generator whose state pickles with the fold);
* admission counters (submitted / admitted / shed / deferred /
  completed / failed / requeued) for the conservation invariants in
  :mod:`repro.validate`.

Conformance contract
--------------------
Folding the records of a closed :class:`~repro.metrics.stats.WorkloadResult`
through :meth:`StreamingStats.observe` in list order reproduces the
result's summary values **exactly** — same bits, not merely close.
This works because every closed-path aggregate sums through
:func:`repro.metrics.stats.fold_sum` (a strict left fold), which is
precisely the ``total += x`` accumulation ``RunningMean`` performs.
The property test in ``tests/test_streaming_stats.py`` enforces the
contract over adversarial float inputs.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Dict, Iterable, List, Optional

from repro.metrics.stats import ClassSummary, JobRecord, WorkloadResult
from repro.metrics.statistics import DEFAULT_SLOWDOWN_TAU, bounded_slowdown
from repro.sim.columns import RunningMean

__all__ = ["ClassFold", "Reservoir", "StreamingStats"]


class Reservoir:
    """Fixed-size uniform sample of an unbounded stream (Algorithm R).

    Deterministic by construction: replacement indices come from a
    ``random.Random`` seeded explicitly at construction, and that
    generator's state is part of the pickled fold — a restored service
    continues the exact sample sequence an uninterrupted run would
    have produced.
    """

    __slots__ = ("capacity", "seen", "items", "_rng")

    def __init__(self, capacity: int = 256, seed: int = 0) -> None:
        if capacity <= 0:
            raise ValueError(f"reservoir capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self.seen = 0
        self.items: List[float] = []
        self._rng = random.Random(seed)

    def add(self, value: float) -> None:
        """Offer one sample; kept with probability capacity/seen."""
        self.seen += 1
        if len(self.items) < self.capacity:
            self.items.append(value)
            return
        slot = self._rng.randrange(self.seen)
        if slot < self.capacity:
            self.items[slot] = value

    @property
    def mean(self) -> float:
        """Mean of the retained sample (0.0 when empty)."""
        if not self.items:
            return 0.0
        acc = 0.0
        for value in self.items:
            acc = acc + value
        return acc / len(self.items)

    def to_dict(self) -> Dict[str, Any]:
        """Canonical payload: capacity, offered count, retained items."""
        return {
            "capacity": self.capacity,
            "seen": self.seen,
            "items": list(self.items),
        }

    # __slots__ classes have no __dict__; pack the RNG state explicitly
    # so pickled bytes are canonical and restores continue the stream.
    def __getstate__(self) -> Dict[str, Any]:
        return {
            "capacity": self.capacity,
            "seen": self.seen,
            "items": list(self.items),
            "rng_state": self._rng.getstate(),
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.capacity = state["capacity"]
        self.seen = state["seen"]
        self.items = list(state["items"])
        self._rng = random.Random(0)  # repro: allow(DET103): state is overwritten by setstate() on the next line
        self._rng.setstate(state["rng_state"])


class ClassFold:
    """Per-application incremental twin of :class:`ClassSummary`.

    Three :class:`RunningMean` columns (response / execution / wait)
    plus an incremental max — constant memory per application class.
    """

    __slots__ = ("response", "execution", "wait", "max_response")

    def __init__(self) -> None:
        self.response = RunningMean()
        self.execution = RunningMean()
        self.wait = RunningMean()
        self.max_response: Optional[float] = None

    def observe(self, record: JobRecord) -> None:
        """Fold one finished job into the class aggregates."""
        rt = record.response_time
        self.response.add(rt, record.request)
        self.execution.add(record.execution_time, record.request)
        self.wait.add(record.wait_time, record.request)
        # Incremental strict-> max matches builtin max() over the
        # retained list: both keep the incumbent unless the newcomer
        # compares strictly greater (NaN therefore never displaces).
        if self.max_response is None or rt > self.max_response:
            self.max_response = rt

    @property
    def count(self) -> int:
        return self.response.count

    def summary(self, app_name: str) -> ClassSummary:
        """Materialise the :class:`ClassSummary` this fold reproduces."""
        if self.count == 0:
            raise ValueError(f"no jobs folded for application {app_name!r}")
        assert self.max_response is not None
        return ClassSummary(
            app_name=app_name,
            count=self.count,
            mean_response_time=self.response.mean,
            mean_execution_time=self.execution.mean,
            mean_wait_time=self.wait.mean,
            max_response_time=self.max_response,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum_response": self.response.total,
            "sum_execution": self.execution.total,
            "sum_wait": self.wait.total,
            "max_response": self.max_response,
            "max_request": self.response.max_procs,
        }


class StreamingStats:
    """Incremental workload aggregates with O(classes + reservoir) memory.

    The fold ingests terminal jobs one at a time (:meth:`observe`) and
    admission events as they happen; :meth:`digest` hashes the
    canonical payload, which is how crash-recovery byte-identity is
    asserted (two runs agree iff their digests agree).
    """

    RESERVOIR_CAPACITY = 256

    __slots__ = (
        "tau", "by_app", "overall", "slowdown", "makespan", "first_submit",
        "attempts", "submitted", "admitted", "shed_rejected", "shed_dropped",
        "deferred", "completed", "failed", "requeues", "overload_events",
        "peak_backlog", "peak_mpl", "backlog_samples", "mpl_samples",
        "utilization_samples",
    )

    def __init__(
        self,
        tau: float = DEFAULT_SLOWDOWN_TAU,
        reservoir_capacity: int = RESERVOIR_CAPACITY,
        reservoir_seed: int = 0,
    ) -> None:
        self.tau = tau
        self.by_app: Dict[str, ClassFold] = {}
        self.overall = ClassFold()
        self.slowdown = RunningMean()
        self.makespan = 0.0
        self.first_submit: Optional[float] = None
        self.attempts = 0
        # admission / lifecycle counters (serve mode)
        self.submitted = 0
        self.admitted = 0
        self.shed_rejected = 0
        self.shed_dropped = 0
        self.deferred = 0
        self.completed = 0
        self.failed = 0
        self.requeues = 0
        self.overload_events = 0
        self.peak_backlog = 0
        self.peak_mpl = 0
        # fixed-size samples of the live signals
        self.backlog_samples = Reservoir(reservoir_capacity, reservoir_seed)
        self.mpl_samples = Reservoir(reservoir_capacity, reservoir_seed + 1)
        self.utilization_samples = Reservoir(reservoir_capacity, reservoir_seed + 2)

    # ------------------------------------------------------------------
    # job lifecycle folds
    # ------------------------------------------------------------------
    def observe(self, record: JobRecord) -> None:
        """Fold one completed job (the closed-path conformance surface)."""
        self.by_app.setdefault(record.app_name, ClassFold()).observe(record)
        self.overall.observe(record)
        self.slowdown.add(
            bounded_slowdown(record.wait_time, record.execution_time, self.tau),
            record.request,
        )
        if record.end_time > self.makespan:
            self.makespan = record.end_time
        if self.first_submit is None or record.submit_time < self.first_submit:
            self.first_submit = record.submit_time
        self.attempts += record.attempts
        self.completed += 1

    def observe_failed(self, submit_time: float, attempts: int) -> None:
        """Fold one job that exhausted its retry budget."""
        self.failed += 1
        self.attempts += attempts
        if self.first_submit is None or submit_time < self.first_submit:
            self.first_submit = submit_time

    def fold_records(self, records: Iterable[JobRecord]) -> "StreamingStats":
        """Fold an iterable of records in order; returns self."""
        for record in records:
            self.observe(record)
        return self

    # ------------------------------------------------------------------
    # admission / live-signal folds (serve mode)
    # ------------------------------------------------------------------
    def observe_submit(self) -> None:
        self.submitted += 1

    def observe_admit(self) -> None:
        self.admitted += 1

    def observe_shed(self, kind: str) -> None:
        """Count one shed job: ``kind`` is ``reject`` or ``drop-oldest``."""
        if kind == "reject":
            self.shed_rejected += 1
        elif kind == "drop-oldest":
            self.shed_dropped += 1
        else:
            raise ValueError(f"unknown shed kind {kind!r}")

    def observe_defer(self) -> None:
        self.deferred += 1

    def observe_requeue(self) -> None:
        self.requeues += 1

    def observe_overload(self) -> None:
        self.overload_events += 1

    def sample_backlog(self, backlog: int) -> None:
        if backlog > self.peak_backlog:
            self.peak_backlog = backlog
        self.backlog_samples.add(float(backlog))

    def sample_mpl(self, mpl: int) -> None:
        if mpl > self.peak_mpl:
            self.peak_mpl = mpl
        self.mpl_samples.add(float(mpl))

    def sample_utilization(self, utilization: float) -> None:
        self.utilization_samples.add(utilization)

    # ------------------------------------------------------------------
    # derived aggregates (the WorkloadResult conformance surface)
    # ------------------------------------------------------------------
    @property
    def shed(self) -> int:
        """Total jobs shed by admission control."""
        return self.shed_rejected + self.shed_dropped

    @property
    def jobs(self) -> int:
        """Completed jobs folded so far."""
        return self.overall.count

    @property
    def mean_response_time(self) -> float:
        if self.overall.count == 0:
            return 0.0
        return self.overall.response.mean

    @property
    def mean_bounded_slowdown(self) -> float:
        if self.slowdown.count == 0:
            return 0.0
        return self.slowdown.mean

    @property
    def total_execution_time(self) -> float:
        if self.first_submit is None or self.overall.count == 0:
            return 0.0
        return self.makespan - self.first_submit

    def summaries(self) -> Dict[str, ClassSummary]:
        """Per-application summaries — equals ``WorkloadResult.by_app()``."""
        return {name: fold.summary(name) for name, fold in self.by_app.items()}

    def conforms_to(self, result: WorkloadResult) -> bool:
        """True iff this fold reproduces *result*'s summary values exactly."""
        if self.summaries() != result.by_app():
            return False
        if self.mean_response_time != result.mean_response_time:  # repro: allow(DET106): the conformance contract IS bit-exactness — both sides fold the same records in the same order with the same strict left-fold, so an epsilon here would hide real divergence
            return False
        return self.makespan == result.makespan or not result.records

    # ------------------------------------------------------------------
    # canonical payload / digest
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Canonical, JSON-exact payload of every aggregate."""
        return {
            "v": 1,
            "tau": self.tau,
            "jobs": self.jobs,
            "by_app": {
                name: fold.to_dict() for name, fold in sorted(self.by_app.items())
            },
            "sum_response": self.overall.response.total,
            "sum_execution": self.overall.execution.total,
            "sum_wait": self.overall.wait.total,
            "max_response": self.overall.max_response,
            "sum_slowdown": self.slowdown.total,
            "makespan": self.makespan,
            "first_submit": self.first_submit,
            "attempts": self.attempts,
            "submitted": self.submitted,
            "admitted": self.admitted,
            "shed_rejected": self.shed_rejected,
            "shed_dropped": self.shed_dropped,
            "deferred": self.deferred,
            "completed": self.completed,
            "failed": self.failed,
            "requeues": self.requeues,
            "overload_events": self.overload_events,
            "peak_backlog": self.peak_backlog,
            "peak_mpl": self.peak_mpl,
            "backlog_samples": self.backlog_samples.to_dict(),
            "mpl_samples": self.mpl_samples.to_dict(),
            "utilization_samples": self.utilization_samples.to_dict(),
        }

    def digest(self) -> str:
        """SHA-256 of the canonical payload — the byte-identity anchor."""
        from repro.parallel.cache import canonical_dumps

        return hashlib.sha256(canonical_dumps(self.to_dict()).encode()).hexdigest()
