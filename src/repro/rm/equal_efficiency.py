"""Equal_efficiency (Nguyen, Zahorjan, Vaswani; JSSPP 1996).

The policy "allocates more processors to those applications that have
the best efficiency using extrapolated values": every application's
measured efficiency at its current allocation is extrapolated to other
allocations with a one-parameter overhead model, and processors are
then handed out greedily so that all applications end up on (roughly)
the same efficiency frontier.

The extrapolation model is the standard execution-signature form

    eff(p) = 1 / (1 + a * (p - 1))

where ``a`` is fitted from the latest report.  The paper's two
criticisms of Equal_efficiency are emergent properties of this
construction and are reproduced faithfully:

* it is "too sensitive to small changes in the efficiency
  measurements" — every noisy report refits ``a`` and can reshuffle
  the whole machine, producing many reallocations;
* superlinear applications (measured efficiency > 1) extrapolate to
  ever-growing efficiency, so the policy hands them their full
  request, and the fitted parameter's jitter makes the allocation
  "unfair" between identical instances.
"""

from __future__ import annotations

import heapq
from typing import Dict, Optional, Tuple

from repro.qs.job import Job
from repro.rm.base import AllocationDecision, SchedulingPolicy, SystemView
from repro.runtime.nthlib import NO_SPAN_LIMIT
from repro.runtime.selfanalyzer import PerformanceReport

#: Efficiency predictions are clamped to this ceiling so that a
#: negative fitted overhead (superlinear measurement) cannot produce
#: unbounded or negative extrapolations.
MAX_PREDICTED_EFFICIENCY = 2.5


def fit_overhead(procs: int, efficiency: float) -> float:
    """Fit the overhead parameter ``a`` from one (procs, eff) sample."""
    if procs <= 1:
        return 0.0
    if efficiency <= 0:
        raise ValueError(f"efficiency must be positive, got {efficiency}")
    return (1.0 / efficiency - 1.0) / (procs - 1)


def predicted_efficiency(a: float, procs: int) -> float:
    """Extrapolated efficiency at *procs* for overhead parameter *a*."""
    if procs < 1:
        raise ValueError(f"procs must be >= 1, got {procs}")
    denominator = 1.0 + a * (procs - 1)
    if denominator <= 1.0 / MAX_PREDICTED_EFFICIENCY:
        return MAX_PREDICTED_EFFICIENCY
    return min(1.0 / denominator, MAX_PREDICTED_EFFICIENCY)


def water_fill(
    total_cpus: int, requests: Dict[int, int], overheads: Dict[int, float]
) -> Dict[int, int]:
    """Greedy marginal-efficiency allocation.

    Every job starts at one CPU; each remaining CPU goes to the job
    whose *next* CPU has the highest extrapolated efficiency, until
    CPUs run out or all jobs reach their requests.  Ties break on job
    id for determinism.  The result lists the jobs in *requests*'
    order, which is the order the resource manager resizes them in.
    """
    if total_cpus < len(requests):
        raise ValueError(
            f"cannot give {len(requests)} jobs >= 1 CPU with {total_cpus} CPUs"
        )
    allocation = {jid: 1 for jid in requests}
    remaining = total_cpus - len(requests)
    if remaining <= 0:
        return allocation
    # One entry per job below its request: its next CPU, keyed
    # (-eff, job id), so the heap's top is the highest efficiency and
    # ties go to the lower id.  Only a job's next point is evaluated.
    heap = [
        (-predicted_efficiency(overheads.get(jid, 0.0), 2), jid)
        for jid, request in requests.items()
        if request >= 2
    ]
    heapq.heapify(heap)
    while remaining > 0 and heap:
        neg_eff, jid = heap[0]
        if neg_eff >= 0.0:
            break  # no candidate CPU has a positive efficiency
        granted = allocation[jid] + 1
        allocation[jid] = granted
        remaining -= 1
        if granted < requests[jid]:
            eff = predicted_efficiency(overheads.get(jid, 0.0), granted + 1)
            heapq.heapreplace(heap, (-eff, jid))
        else:
            heapq.heappop(heap)
    return allocation


def is_water_fill(
    total_cpus: int,
    requests: Dict[int, int],
    overheads: Dict[int, float],
    allocation: Dict[int, int],
) -> bool:
    """Whether ``water_fill(total_cpus, requests, overheads) == allocation``
    for an *allocation* of exactly the jobs in *requests*.

    Decided in O(jobs), with two ``predicted_efficiency`` calls per
    job instead of a refill.  With every overhead >= 0 each job's
    column of marginal efficiencies is non-increasing, so the greedy
    grants the points (job j, CPU p >= 2) in increasing order of the
    key ``(-eff_j(p), j, p)``: within a job the key grows with p, and
    across jobs the job id is the greedy's tie rule.  *allocation* is
    the greedy's answer exactly when its granted points are a prefix
    of that order of the greedy's length:

    1. every job holds between 1 CPU and its request;
    2. the CPUs the jobs hold beyond their first total
       ``min(total_cpus - jobs, sum(request - 1))``;
    3. the largest key of any job's last granted CPU is below the
       smallest key of any job's next one.

    A negative overhead (a superlinear fit, whose column rises) or
    fewer CPUs than jobs answers False: the caller then runs the
    greedy, so False is always safe.
    """
    jobs = len(requests)
    if total_cpus < jobs:
        return False
    held_above_one = wanted = 0
    last: Optional[Tuple[float, int, int]] = None
    upcoming: Optional[Tuple[float, int, int]] = None
    for jid, request in requests.items():
        a = overheads.get(jid, 0.0)
        held = allocation[jid]
        if not a >= 0.0 or not 1 <= held <= request:
            return False
        held_above_one += held - 1
        wanted += request - 1
        if held >= 2:
            key = (-predicted_efficiency(a, held), jid, held)
            if last is None or key > last:
                last = key
        if held < request:
            key = (-predicted_efficiency(a, held + 1), jid, held + 1)
            if upcoming is None or key < upcoming:
                upcoming = key
    if held_above_one != min(total_cpus - jobs, wanted):
        return False
    # The greedy grants no CPU whose efficiency underflowed to zero.
    return last is None or (last[0] < 0.0 and (upcoming is None or last < upcoming))


class EqualEfficiency(SchedulingPolicy):
    """Extrapolated-efficiency allocation, refit on every report."""

    name = "Equal_eff"
    #: the overhead fit is driven by SelfAnalyzer reports
    uses_reports = True

    __slots__ = ("fixed_mpl", "_overheads")

    def __init__(self, mpl: int = 4) -> None:
        if mpl < 1:
            raise ValueError(f"multiprogramming level must be >= 1, got {mpl}")
        self.fixed_mpl = mpl
        #: fitted overhead parameter per job (0.0 = optimistic linear)
        self._overheads: Dict[int, float] = {}

    def _rebalance(self, system: SystemView, extra: Dict[int, int]) -> AllocationDecision:
        requests = {view.job_id: view.request for view in system.jobs.values()}
        requests.update(extra)
        return water_fill(system.total_cpus, requests, self._overheads)

    def on_job_arrival(self, job: Job, system: SystemView) -> AllocationDecision:
        assert job.request is not None
        # A job with no measurements yet extrapolates as perfectly
        # scalable (a = 0), the optimistic default.
        self._overheads.setdefault(job.job_id, 0.0)
        return self._rebalance(system, {job.job_id: job.request})

    def on_job_completion(self, job: Job, system: SystemView) -> AllocationDecision:
        return self._rebalance(system, {})

    def on_report(
        self, job: Job, report: PerformanceReport, system: SystemView
    ) -> AllocationDecision:
        self._overheads[job.job_id] = fit_overhead(report.procs, report.efficiency)
        return self._rebalance(system, {})

    # Iteration spans: a report is a no-op when the refit water-fill
    # hands every job the CPUs it already holds.
    def span_budget(self, job: Job) -> int:
        return NO_SPAN_LIMIT

    def absorb_report(
        self, job: Job, procs: int, speedup: float, system: SystemView
    ) -> bool:
        overhead = fit_overhead(procs, speedup / procs)
        views = system.jobs
        if not is_water_fill(
            system.total_cpus,
            {jid: view.request for jid, view in views.items()},
            {**self._overheads, job.job_id: overhead},
            {jid: view.allocation for jid, view in views.items()},
        ):
            return False
        self._overheads[job.job_id] = overhead
        return True

    def on_job_removed(self, job: Job) -> None:
        self._overheads.pop(job.job_id, None)

    def overhead_of(self, job_id: int) -> float:
        """Fitted overhead parameter for one job (diagnostics)."""
        return self._overheads.get(job_id, 0.0)
