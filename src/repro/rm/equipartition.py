"""Equipartition (McCann, Vaswani, Zahorjan; TOCS 1993).

"Equipartition is a dynamic processor allocation policy that decides
an equal allocation among running jobs.  Reallocations are done at job
arrival and job completion."

The equal share is capped by each job's processor request; CPUs a
capped job cannot use are redistributed among the remaining jobs
(processor-conserving water-filling).  Performance reports are
ignored: the policy is oblivious to measured efficiency, which is
exactly the property PDPA improves on.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.qs.job import Job
from repro.rm.base import AllocationDecision, SchedulingPolicy, SystemView


def equal_shares(total_cpus: int, requests: Dict[int, int]) -> Dict[int, int]:
    """Divide *total_cpus* equally among jobs, capped by request.

    The classic iterative scheme: give every uncapped job an equal
    share of the CPUs left; jobs whose request is below the share are
    frozen at their request and the remainder is re-divided.  Leftover
    CPUs after integer division go to the jobs with the largest
    requests (stable tie-break by job id).

    Returns an allocation of at least 1 CPU per job whenever
    ``total_cpus >= len(requests)``.
    """
    if not requests:
        return {}
    if total_cpus < len(requests):
        raise ValueError(
            f"cannot give {len(requests)} jobs >= 1 CPU with {total_cpus} CPUs"
        )
    allocation: Dict[int, int] = {}
    remaining_cpus = total_cpus
    active: List[Tuple[int, int]] = sorted(requests.items())
    # Freeze jobs whose request is smaller than the current share.
    while active:
        share = remaining_cpus // len(active)
        capped = [(jid, req) for jid, req in active if req <= share]
        if not capped:
            break
        for jid, req in capped:
            allocation[jid] = req
            remaining_cpus -= req
        active = [(jid, req) for jid, req in active if req > share]
    if active:
        share = remaining_cpus // len(active)
        leftover = remaining_cpus - share * len(active)
        # Spread the leftover one CPU at a time, biggest requests first.
        order = sorted(active, key=lambda item: (-item[1], item[0]))
        bonus = {jid for jid, _ in order[:leftover]}
        for jid, req in active:
            allocation[jid] = max(1, min(req, share + (1 if jid in bonus else 0)))
    return allocation


class Equipartition(SchedulingPolicy):
    """Equal allocation among running jobs, reallocating at arrivals
    and completions only."""

    name = "Equip"

    __slots__ = ("fixed_mpl",)

    def __init__(self, mpl: int = 4) -> None:
        if mpl < 1:
            raise ValueError(f"multiprogramming level must be >= 1, got {mpl}")
        self.fixed_mpl = mpl

    def _rebalance(self, system: SystemView, extra: Dict[int, int]) -> AllocationDecision:
        requests = {view.job_id: view.request for view in system.jobs.values()}
        requests.update(extra)
        return equal_shares(system.total_cpus, requests)

    def on_job_arrival(self, job: Job, system: SystemView) -> AllocationDecision:
        assert job.request is not None
        return self._rebalance(system, {job.job_id: job.request})

    def on_job_completion(self, job: Job, system: SystemView) -> AllocationDecision:
        return self._rebalance(system, {})

    # Reports are ignored, so every one is a no-op: iteration ends are
    # absorbed until something else needs an event.
    def absorb_report(
        self, job: Job, procs: int, speedup: float, system: SystemView
    ) -> bool:
        return True

    def report_band(
        self, job: Job, system: SystemView
    ) -> Optional[Tuple[float, float, float]]:
        return -math.inf, math.inf, math.inf
