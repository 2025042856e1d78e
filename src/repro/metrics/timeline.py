"""Timeline analyses over execution traces.

The paper's evaluation repeatedly reads quantities off the traces:
"we measured the processor allocation received by swim, and we have
found that the Equal_efficiency allocated from a minimum of
2 processors up to a maximum of 28" (§5.1); "the percentage of cpus
that are assigned in average to each type of application is 20 cpus
to bt and 9 cpus to hydro2d" (§5.2); Fig. 8's multiprogramming level
over time.  This module provides those analyses as reusable functions
over a :class:`~repro.metrics.trace.TraceRecorder`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.metrics.faults import OfflineFold
from repro.metrics.paraver import allocation_timeline
from repro.metrics.trace import TraceRecorder


@dataclass(frozen=True)
class AllocationStats:
    """Allocation distribution of one job or application class."""

    minimum: int
    maximum: int
    time_weighted_mean: float

    def as_row(self, label: str) -> List[object]:
        """Row for :func:`repro.metrics.stats.format_table`."""
        return [label, self.minimum, self.maximum,
                round(self.time_weighted_mean, 1)]


def job_allocation_steps(
    trace: TraceRecorder, job_id: int, end_time: Optional[float] = None
) -> List[Tuple[float, int]]:
    """(time, allocation) step function of one job, 0-terminated.

    :func:`~repro.metrics.paraver.allocation_timeline`'s steps; the
    final step carries 0 processors at ``end_time`` (default: the trace
    horizon) so the function integrates cleanly.
    """
    steps = allocation_timeline(trace, job_id)
    if not steps:
        return []
    horizon = end_time if end_time is not None else trace.horizon
    bursts = trace.bursts_for_job(job_id)
    if bursts:
        horizon = min(horizon, max(b.end for b in bursts))
    steps.append((max(horizon, steps[-1][0]), 0))
    return steps


def allocation_stats(
    trace: TraceRecorder, job_ids: Iterable[int]
) -> AllocationStats:
    """Min / max / time-weighted mean allocation across jobs.

    Reproduces the §5.1 style of analysis ("from a minimum of 2
    processors up to a maximum of 28").  The mean weights each
    allocation level by the time it was held, across all jobs.

    Raises
    ------
    ValueError
        If none of the jobs has any allocation record.
    """
    minimum: Optional[int] = None
    maximum: Optional[int] = None
    weighted_sum = 0.0
    total_time = 0.0
    for job_id in job_ids:
        steps = job_allocation_steps(trace, job_id)
        for (t0, procs), (t1, _) in zip(steps, steps[1:]):
            span = max(t1 - t0, 0.0)
            if procs > 0:
                minimum = procs if minimum is None else min(minimum, procs)
                maximum = procs if maximum is None else max(maximum, procs)
                weighted_sum += procs * span
                total_time += span
    if minimum is None or maximum is None:
        raise ValueError("no allocation records for the given jobs")
    mean = weighted_sum / total_time if total_time > 0 else float(minimum)
    return AllocationStats(minimum=minimum, maximum=maximum,
                           time_weighted_mean=mean)


def allocation_stats_by_app(
    trace: TraceRecorder, jobs
) -> Dict[str, AllocationStats]:
    """Per-application allocation statistics for a finished run.

    ``jobs`` is any iterable of :class:`~repro.qs.job.Job`-like
    objects with ``job_id`` and ``app_name``.
    """
    by_app: Dict[str, List[int]] = {}
    for job in jobs:
        by_app.setdefault(job.app_name, []).append(job.job_id)
    return {
        app: allocation_stats(trace, ids) for app, ids in sorted(by_app.items())
    }


def utilization_timeline(
    trace: TraceRecorder, bins: int = 50, t_end: Optional[float] = None
) -> List[Tuple[float, float]]:
    """(bin start time, utilization fraction) over the execution.

    Computed from the recorded bursts; time-shared (synthetic) load is
    not binned (it has no per-interval structure) and is excluded.
    """
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    horizon = t_end if t_end is not None else trace.horizon
    if horizon <= 0:
        return []
    width = horizon / bins
    busy = [0.0] * bins
    for burst in trace.bursts:
        first = int(burst.start / width)
        last = min(int(min(burst.end, horizon) / width), bins - 1)
        for b in range(first, last + 1):
            lo = b * width
            hi = lo + width
            overlap = min(burst.end, hi) - max(burst.start, lo)
            if overlap > 0:
                busy[b] += overlap
    capacity = trace.n_cpus * width
    return [(b * width, min(busy[b] / capacity, 1.0)) for b in range(bins)]


def queue_timeline(trace: TraceRecorder) -> List[Tuple[float, int]]:
    """(time, queued jobs) steps, from the MPL samples."""
    return [(s.time, s.queued_jobs) for s in trace.mpl_samples]


def capacity_timeline(trace: TraceRecorder) -> List[Tuple[float, int]]:
    """(time, healthy CPUs) steps, from the fault records.

    Starts at ``(0.0, n_cpus)``; each record that takes a CPU offline
    or brings one back (:class:`~repro.metrics.faults.OfflineFold`)
    steps the capacity down or up.  A run without CPU faults yields
    the single full-capacity step.
    """
    steps = [(0.0, trace.n_cpus)]
    capacity = trace.n_cpus
    fold = OfflineFold()
    for record in sorted(trace.faults, key=lambda f: f.time):
        change = fold.add(record)
        if change:
            capacity += change
            steps.append((record.time, capacity))
    return steps


def render_allocation_table(stats: Dict[str, AllocationStats],
                            title: str = "") -> str:
    """Tabulate per-application allocation statistics."""
    from repro.metrics.stats import format_table

    rows = [s.as_row(app) for app, s in stats.items()]
    return format_table(["app", "min CPUs", "max CPUs", "mean CPUs"], rows,
                        title=title or "allocation statistics")
