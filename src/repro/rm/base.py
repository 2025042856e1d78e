"""Scheduling-policy interface and the system view policies see.

A policy is a pure decision maker: on every activation (job arrival,
job completion, performance report) it receives a read-only
:class:`SystemView` and returns the new allocation for every running
job it wants to change.  The resource manager enforces the decision on
the machine.  The policy also answers the coordination question the
paper's §4.3 raises — *may the queuing system start another job now?*
— through :meth:`SchedulingPolicy.wants_admission`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Optional

from repro.qs.job import Job
from repro.runtime.selfanalyzer import PerformanceReport


@dataclass
class JobView:
    """Read-only snapshot of one running job."""

    job: Job
    allocation: int

    @property
    def job_id(self) -> int:
        """The job's identifier."""
        return self.job.job_id

    @property
    def request(self) -> int:
        """Processors the job requested at submission."""
        assert self.job.request is not None
        return self.job.request


class SystemView:
    """Read-only snapshot of the machine and all running jobs."""

    def __init__(self, total_cpus: int, jobs: Dict[int, JobView]) -> None:
        if total_cpus < 1:
            raise ValueError(f"total_cpus must be >= 1, got {total_cpus}")
        self.total_cpus = total_cpus
        self.jobs = jobs

    @property
    def allocated_cpus(self) -> int:
        """CPUs currently inside partitions."""
        return sum(view.allocation for view in self.jobs.values())

    @property
    def free_cpus(self) -> int:
        """CPUs not allocated to any job."""
        return self.total_cpus - self.allocated_cpus

    @property
    def running_jobs(self) -> int:
        """Current multiprogramming level."""
        return len(self.jobs)

    def view_of(self, job_id: int) -> JobView:
        """Snapshot of one job (KeyError if not running)."""
        return self.jobs[job_id]


#: An allocation decision: job_id -> new partition size.  Jobs absent
#: from the mapping keep their current allocation.
AllocationDecision = Dict[int, int]


class SchedulingPolicy(ABC):
    """Base class for processor-allocation policies.

    Policies are part of every session snapshot, so each subclass
    declares ``__slots__``; a subclass that takes its own
    multiprogramming level declares a ``fixed_mpl`` slot, which
    shadows the class-level default below.
    """

    __slots__ = ()

    #: Policy name used in reports and result tables.
    name: str = "policy"

    #: Fixed multiprogramming level, or ``None`` when the policy
    #: decides admission dynamically (PDPA).
    fixed_mpl: Optional[int] = 4

    #: Whether the policy's decisions depend on SelfAnalyzer reports.
    #: Report-driven policies need graceful degradation when reports
    #: go missing or stale (see :mod:`repro.faults`); oblivious
    #: policies (Equipartition) do not.
    uses_reports: bool = False

    @abstractmethod
    def on_job_arrival(self, job: Job, system: SystemView) -> AllocationDecision:
        """Allocate the arriving job (and optionally rebalance others).

        ``system`` does *not* yet contain the new job; the returned
        decision must include an entry for ``job.job_id`` with its
        initial allocation (>= 1).
        """

    @abstractmethod
    def on_job_completion(self, job: Job, system: SystemView) -> AllocationDecision:
        """Redistribute after *job* completed (already removed from view)."""

    def on_report(
        self, job: Job, report: PerformanceReport, system: SystemView
    ) -> AllocationDecision:
        """React to a performance report (default: no change)."""
        return {}

    def absorb_report(
        self, job: Job, procs: int, speedup: float, system: SystemView
    ) -> bool:
        """Prove a report of *speedup* on *procs* a no-op and apply it.

        The policy's one opt-in to iteration spans (see
        :meth:`repro.runtime.nthlib.RuntimeHost.absorb_report`).  True
        promises that :meth:`on_report` would return no decision and
        change nothing :meth:`wants_admission` reads, and that the
        state changes it would make have been made.  False must leave
        the policy exactly as it was: the report then takes the full
        path.  The default takes no report.
        """
        return False

    def wants_admission(self, system: SystemView, queued_jobs: int) -> bool:
        """Whether the queuing system may start one more job now.

        The default implements the traditional fixed multiprogramming
        level the paper gives to IRIX, Equipartition and
        Equal_efficiency.  A new job always needs at least one CPU,
        which a rebalancing policy can reclaim as long as fewer jobs
        than CPUs are running.
        """
        if queued_jobs <= 0:
            return False
        if self.fixed_mpl is not None and system.running_jobs >= self.fixed_mpl:
            return False
        return system.running_jobs < system.total_cpus

    def on_job_removed(self, job: Job) -> None:
        """Forget per-job state (called after completion)."""

    def note_forced_allocation(self, job_id: int, procs: int) -> None:
        """A fault changed *job_id*'s partition behind the policy's back.

        Called by the resource manager when a CPU failure shrank a
        partition that could not be repaired, or when graceful
        degradation forced an equal-share fallback.  Policies that keep
        per-job allocation memory (PDPA) must resynchronise here; the
        default is a no-op for stateless policies.
        """

    def validate_decision(
        self, decision: AllocationDecision, system: SystemView, arriving: Optional[Job]
    ) -> None:
        """Sanity-check a decision before enforcement.

        Ensures every allocation is >= 1 and the total fits the
        machine.  Called by the resource manager; kept on the policy so
        tests can exercise it directly.
        """
        if not decision and arriving is None:
            # Nothing changes: current allocations already satisfy the
            # machine-fit invariant, so skip rebuilding the totals.
            return
        totals: Dict[int, int] = {
            job_id: view.allocation for job_id, view in system.jobs.items()
        }
        for job_id, procs in decision.items():
            if procs < 1:
                raise ValueError(
                    f"{self.name}: job {job_id} would get {procs} CPUs (< 1)"
                )
            totals[job_id] = procs
        if arriving is not None and arriving.job_id not in decision:
            raise ValueError(
                f"{self.name}: decision lacks the arriving job {arriving.job_id}"
            )
        total = sum(totals.values())
        if total > system.total_cpus:
            raise ValueError(
                f"{self.name}: decision allocates {total} CPUs on a "
                f"{system.total_cpus}-CPU machine"
            )
