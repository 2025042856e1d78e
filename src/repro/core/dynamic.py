"""Load-adaptive target efficiency (paper §4.1).

"The system administrator defines the target efficiency that he/she
wants in his/her system.  Alternatively, it is dynamically set
depending on the load of the system."

:class:`DynamicTargetPDPA` implements that alternative: when jobs are
queueing, the target efficiency is raised (processors must earn their
keep so more jobs fit); when the machine has slack, it is lowered
(jobs may spend processors less efficiently to finish sooner).  The
adjustment is piecewise linear between two administrator bounds and is
re-evaluated at each scheduling event, exercising the run-time
parameter mutability the paper calls out ("These parameters can be
modified at runtime").
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.core.params import PDPAParams
from repro.core.pdpa import PDPA
from repro.qs.job import Job
from repro.rm.base import AllocationDecision, SystemView
from repro.runtime.selfanalyzer import PerformanceReport


@dataclass(frozen=True, slots=True)
class DynamicTargetConfig:
    """Bounds and slope of the load-adaptive target.

    Attributes
    ----------
    min_target:
        Target efficiency when the system is idle (no queue, free
        processors).
    max_target:
        Target efficiency under pressure (long queue, full machine).
    queue_weight:
        How many queued jobs push the target from min to max; with the
        default of 5, a 5-job backlog saturates the target at
        ``max_target``.
    """

    min_target: float = 0.5
    max_target: float = 0.85
    queue_weight: int = 5

    def __post_init__(self) -> None:
        if not 0 < self.min_target <= self.max_target:
            raise ValueError(
                f"need 0 < min_target <= max_target, got "
                f"{self.min_target}..{self.max_target}"
            )
        if self.queue_weight < 1:
            raise ValueError("queue_weight must be >= 1")

    def target_for(self, queued_jobs: int, free_fraction: float) -> float:
        """Target efficiency for the observed pressure.

        ``queued_jobs`` counts waiting jobs; ``free_fraction`` is the
        fraction of processors currently idle.  Queue pressure pulls
        the target up; free capacity pulls it down.
        """
        if queued_jobs < 0:
            raise ValueError("queued_jobs must be >= 0")
        if not 0.0 <= free_fraction <= 1.0:
            raise ValueError("free_fraction must be in [0, 1]")
        queue_pressure = min(queued_jobs / self.queue_weight, 1.0)
        pressure = max(queue_pressure, 1.0 - free_fraction - 0.5)
        pressure = min(max(pressure, 0.0), 1.0)
        return self.min_target + (self.max_target - self.min_target) * pressure


class DynamicTargetPDPA(PDPA):
    """PDPA whose ``target_eff`` tracks the system load."""

    name = "PDPA(dyn-target)"

    __slots__ = ("dynamic", "_queued_jobs", "target_history")

    def __init__(
        self,
        params: Optional[PDPAParams] = None,
        dynamic: Optional[DynamicTargetConfig] = None,
    ) -> None:
        super().__init__(params)
        self.dynamic = dynamic or DynamicTargetConfig()
        self._queued_jobs = 0
        #: (time-ordered) history of applied targets, for diagnostics
        self.target_history: list = []

    # ------------------------------------------------------------------
    # pressure observation
    # ------------------------------------------------------------------
    def _retarget(self, system: SystemView) -> None:
        free_fraction = system.free_cpus / system.total_cpus
        target = self.dynamic.target_for(self._queued_jobs, free_fraction)
        if abs(target - self.params.target_eff) < 1e-9:
            return
        new_params = replace(
            self.params,
            target_eff=target,
            high_eff=max(self.params.high_eff, target),
        )
        self.set_params(new_params)
        self.target_history.append(target)

    def wants_admission(self, system: SystemView, queued_jobs: int) -> bool:
        self._queued_jobs = queued_jobs
        self._retarget(system)
        return super().wants_admission(system, queued_jobs)

    # ------------------------------------------------------------------
    # policy hooks: retarget before deciding
    # ------------------------------------------------------------------
    def on_job_arrival(self, job: Job, system: SystemView) -> AllocationDecision:
        self._retarget(system)
        return super().on_job_arrival(job, system)

    def on_report(
        self, job: Job, report: PerformanceReport, system: SystemView
    ) -> AllocationDecision:
        self._retarget(system)
        return super().on_report(job, report, system)
