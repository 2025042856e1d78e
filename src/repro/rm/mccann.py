"""The "Dynamic" policy of McCann, Vaswani and Zahorjan (TOCS 1993).

The paper's related work describes it: "a processor allocation policy
that dynamically adjusts the number of processors allocated to
parallel applications to improve the processor utilization.  Their
approach considers the idleness, a characteristic provided by each
application, to allocate processors, and results in a large number of
reallocations."

Our model: each application's *useful parallelism* is estimated from
its latest report as its measured speedup (processors it can keep
busy).  On every report the machine is re-divided proportionally to
the estimated parallelism — processors leave applications that are
idling on them and join applications that can use them.  Because the
estimate is refreshed with every (noisy) report, the policy reallocates
at a much finer grain than Equipartition, which is exactly the
behavioural contrast the related work draws.
"""

from __future__ import annotations

from typing import Dict

from repro.qs.job import Job
from repro.rm.base import AllocationDecision, SchedulingPolicy, SystemView
from repro.runtime.selfanalyzer import PerformanceReport


def proportional_shares(
    total_cpus: int, requests: Dict[int, int], parallelism: Dict[int, float]
) -> Dict[int, int]:
    """Divide CPUs proportionally to each job's useful parallelism.

    Every job gets at least one CPU and at most its request; jobs with
    no estimate yet count as fully parallel (their request).  Leftover
    CPUs from capped/rounded shares are handed to the jobs with the
    largest fractional remainders.
    """
    if not requests:
        return {}
    if total_cpus < len(requests):
        raise ValueError(
            f"cannot give {len(requests)} jobs >= 1 CPU with {total_cpus} CPUs"
        )
    weights = {
        jid: min(max(parallelism.get(jid, float(req)), 1.0), float(req))
        for jid, req in requests.items()
    }
    total_weight = sum(weights.values())
    # Everyone gets the run-to-completion floor of one CPU first; the
    # rest is divided proportionally to the parallelism weights.
    allocation = {jid: 1 for jid in requests}
    remaining = total_cpus - len(requests)
    raw = {
        jid: remaining * weight / total_weight for jid, weight in weights.items()
    }
    for jid in requests:
        extra = min(requests[jid] - 1, int(raw[jid]))
        allocation[jid] += extra
    leftover = total_cpus - sum(allocation.values())
    # Hand out the rounding leftover by largest fractional part, then
    # keep cycling while capped jobs force CPUs elsewhere.
    order = sorted(requests, key=lambda jid: raw[jid] - int(raw[jid]), reverse=True)
    while leftover > 0:
        progressed = False
        for jid in order:
            if leftover == 0:
                break
            if allocation[jid] < requests[jid]:
                allocation[jid] += 1
                leftover -= 1
                progressed = True
        if not progressed:
            break  # every job is at its request; CPUs stay idle
    return allocation


class McCannDynamic(SchedulingPolicy):
    """Idleness-driven proportional allocation, refreshed per report."""

    name = "Dynamic"

    __slots__ = ("fixed_mpl", "_parallelism")

    def __init__(self, mpl: int = 4) -> None:
        if mpl < 1:
            raise ValueError(f"multiprogramming level must be >= 1, got {mpl}")
        self.fixed_mpl = mpl
        #: estimated useful parallelism (speedup) per job
        self._parallelism: Dict[int, float] = {}

    def _rebalance(self, system: SystemView, extra: Dict[int, int]) -> AllocationDecision:
        requests = {view.job_id: view.request for view in system.jobs.values()}
        requests.update(extra)
        return proportional_shares(system.total_cpus, requests, self._parallelism)

    def on_job_arrival(self, job: Job, system: SystemView) -> AllocationDecision:
        assert job.request is not None
        return self._rebalance(system, {job.job_id: job.request})

    def on_job_completion(self, job: Job, system: SystemView) -> AllocationDecision:
        return self._rebalance(system, {})

    def on_report(
        self, job: Job, report: PerformanceReport, system: SystemView
    ) -> AllocationDecision:
        # Idleness = allocated processors the application cannot keep
        # busy; its complement is the measured speedup.
        self._parallelism[job.job_id] = max(report.speedup, 1.0)
        return self._rebalance(system, {})

    def on_job_removed(self, job: Job) -> None:
        self._parallelism.pop(job.job_id, None)
