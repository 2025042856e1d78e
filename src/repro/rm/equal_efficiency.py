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

from typing import Dict

from repro.qs.job import Job
from repro.rm.base import AllocationDecision, SchedulingPolicy, SystemView
from repro.runtime.selfanalyzer import PerformanceReport
from repro.sim.columns import predicted_efficiency_many

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
    id for determinism.
    """
    if total_cpus < len(requests):
        raise ValueError(
            f"cannot give {len(requests)} jobs >= 1 CPU with {total_cpus} CPUs"
        )
    allocation = {jid: 1 for jid in requests}
    remaining = total_cpus - len(requests)
    if remaining <= 0:
        return allocation
    # Each job's marginal efficiency at p = 2..request depends only on
    # its fitted overhead, so evaluate the whole column in one batched
    # kernel call per job instead of re-deriving one point per round
    # of the greedy loop below.
    order = sorted(requests)
    eff_cols = {
        jid: predicted_efficiency_many(
            overheads.get(jid, 0.0),
            range(2, requests[jid] + 1),
            MAX_PREDICTED_EFFICIENCY,
        )
        for jid in order
        if requests[jid] >= 2
    }
    while remaining > 0:
        best_jid = None
        best_eff = 0.0
        for jid in order:
            current = allocation[jid]
            if current >= requests[jid]:
                continue
            # column index for p = current + 1 (the column starts at p=2)
            eff = eff_cols[jid][current - 1]
            if eff > best_eff:
                best_eff = eff
                best_jid = jid
        if best_jid is None:
            break
        allocation[best_jid] += 1
        remaining -= 1
    return allocation


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

    def on_job_removed(self, job: Job) -> None:
        self._overheads.pop(job.job_id, None)

    def overhead_of(self, job_id: int) -> float:
        """Fitted overhead parameter for one job (diagnostics)."""
        return self._overheads.get(job_id, 0.0)
