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
from repro.rm.base import AllocationDecision, JobView, SchedulingPolicy, SystemView
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


#: the denominator at or below which the ceiling binds
_CLAMP_DENOMINATOR = 1.0 / MAX_PREDICTED_EFFICIENCY


def predicted_efficiency(a: float, procs: int) -> float:
    """Extrapolated efficiency at *procs* for overhead parameter *a*."""
    if procs < 1:
        raise ValueError(f"procs must be >= 1, got {procs}")
    denominator = 1.0 + a * (procs - 1)
    if denominator <= _CLAMP_DENOMINATOR:
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
    # One entry per job below its request: its next CPU p, keyed
    # (-eff, job id), so the heap's top is the highest efficiency and
    # ties go to the lower id.  The entry also carries the job's
    # overhead and request, which the unique job id keeps out of every
    # comparison.  Only a job's next point is evaluated, with
    # predicted_efficiency's formula and clamp inline: the denominator
    # is 1 + a(p - 1), and above the clamp's threshold 1 / denominator
    # is already below the ceiling.
    heap = []
    for jid, request in requests.items():
        if request >= 2:
            a = overheads.get(jid, 0.0)
            denominator = 1.0 + a  # p = 2
            heap.append((
                -MAX_PREDICTED_EFFICIENCY if denominator <= _CLAMP_DENOMINATOR
                else -1.0 / denominator,
                jid, a, request,
            ))
    heapq.heapify(heap)
    while remaining > 0 and heap:
        neg_eff, jid, a, request = heap[0]
        if neg_eff >= 0.0:
            break  # no candidate CPU has a positive efficiency
        granted = allocation[jid] + 1
        allocation[jid] = granted
        remaining -= 1
        if granted < request:
            denominator = 1.0 + a * granted  # p = granted + 1
            heapq.heapreplace(heap, (
                -MAX_PREDICTED_EFFICIENCY if denominator <= _CLAMP_DENOMINATOR
                else -1.0 / denominator,
                jid, a, request,
            ))
        else:
            heapq.heappop(heap)
    return allocation


def is_water_fill(
    total_cpus: int,
    views: Dict[int, JobView],
    overheads: Dict[int, float],
    reporter: int,
    refit: float,
) -> bool:
    """Whether the water-fill with *reporter*'s overhead refit to
    *refit* hands every viewed job the CPUs it holds.

    That is ``water_fill(total_cpus, requests, {**overheads, reporter:
    refit}) == allocations``, with the requests and allocations read
    from the view table *views*, decided in O(jobs) without a refill
    or a copy.  With every overhead >= 0 each job's column of marginal
    efficiencies is non-increasing, so the greedy grants the points
    (job j, CPU p >= 2) in increasing order of the key
    ``(-eff_j(p), j, p)``: within a job the key grows with p, and
    across jobs the job id is the greedy's tie rule.  The greedy stops
    when the CPUs run out, every job holds its request, or the next
    point's efficiency is 0 (``1 + a(p - 1)`` overflowed), so the
    allocation is its answer exactly when its granted points are a
    prefix of that order at which the greedy stops:

    1. every job holds between 1 CPU and its request, and the CPUs
       held beyond each job's first total at most ``total_cpus - jobs``;
    2. no granted point has efficiency 0, and the largest key of any
       job's last granted CPU is below the smallest key of any job's
       next one;
    3. that total is ``total_cpus - jobs``, or no job has a next CPU,
       or the smallest next key has efficiency 0.

    A negative overhead (a superlinear fit, whose column rises) or
    fewer CPUs than jobs answers False: the caller then runs the
    greedy, so False is always safe.  The overhead is tested first
    because with ``a >= 0`` and ``p >= 2`` the denominator
    ``1 + a(p - 1)`` is at least 1, so neither of
    :func:`predicted_efficiency`'s clamps binds and the efficiency is
    ``1 / (1 + a(p - 1))`` exactly.
    """
    jobs = len(views)
    if total_cpus < jobs:
        return False
    held_above_one = 0
    last: Optional[Tuple[float, int, int]] = None
    upcoming: Optional[Tuple[float, int, int]] = None
    for jid, view in views.items():
        a = refit if jid == reporter else overheads.get(jid, 0.0)
        if not a >= 0.0:
            return False
        held = view.allocation
        request = view.job.request
        if not 1 <= held <= request:
            return False
        held_above_one += held - 1
        if held >= 2:
            key = (-1.0 / (1.0 + a * (held - 1)), jid, held)
            if last is None or key > last:
                last = key
        if held < request:
            key = (-1.0 / (1.0 + a * held), jid, held + 1)
            if upcoming is None or key < upcoming:
                upcoming = key
    if held_above_one > total_cpus - jobs:
        return False  # 1.
    if last is not None and not (last[0] < 0.0 and (upcoming is None or last < upcoming)):
        return False  # 2.
    # 3.: an efficiency of 0 is the key -0.0
    return upcoming is None or held_above_one == total_cpus - jobs or upcoming[0] >= 0.0


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
    def absorb_report(
        self, job: Job, procs: int, speedup: float, system: SystemView
    ) -> bool:
        overhead = fit_overhead(procs, speedup / procs)
        if not is_water_fill(
            system.total_cpus, system.jobs, self._overheads, job.job_id, overhead
        ):
            return False
        self._overheads[job.job_id] = overhead
        return True

    def on_job_removed(self, job: Job) -> None:
        self._overheads.pop(job.job_id, None)

    def overhead_of(self, job_id: int) -> float:
        """Fitted overhead parameter for one job (diagnostics)."""
        return self._overheads.get(job_id, 0.0)
