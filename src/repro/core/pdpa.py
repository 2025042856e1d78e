"""The PDPA scheduling policy (paper §4).

PDPA plugs into the NANOS Resource Manager like any other
:class:`~repro.rm.base.SchedulingPolicy`, but unlike Equipartition and
Equal_efficiency it

* searches, per application, for the largest allocation whose measured
  efficiency stays above ``target_eff`` (run-to-completion, minimum of
  one processor, never above the request);
* leaves settled applications alone — stability is a feature: "The
  processor allocation must be maintained as stable as possible
  because a high number of reallocations degrades the application and
  the system performance";
* decides the multiprogramming level itself, telling the queuing
  system when a new application may start (§4.3).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.mpl import MplPolicy
from repro.core.params import PDPAParams
from repro.core.states import AppState, PdpaJobState, evaluate_transition, holds_stable, stable_band
from repro.qs.job import Job
from repro.rm.base import AllocationDecision, SchedulingPolicy, SystemView
from repro.runtime.selfanalyzer import PerformanceReport


def _no_plans() -> None:
    """The plan hook before a host binds one."""


class PDPA(SchedulingPolicy):
    """Performance-Driven Processor Allocation."""

    name = "PDPA"
    #: admission is decided dynamically by the MPL policy
    fixed_mpl: Optional[int] = None
    #: the 4-state automaton is driven by SelfAnalyzer reports, so
    #: graceful degradation (repro.faults) must cover missing reports
    uses_reports = True
    #: whether absorb_report may take no-op reports; a subclass that
    #: reacts to reports or admission queries in its own way (the
    #: ablations' FixedMplPDPA and NoRelativeSpeedupPDPA) declines them
    _absorbs_reports = True

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._absorbs_reports = all(
            getattr(cls, name) is getattr(PDPA, name)
            for name in ("on_report", "wants_admission", "set_params")
        )

    __slots__ = ("params", "mpl_policy", "job_states", "_drop_plans")

    def __init__(self, params: Optional[PDPAParams] = None) -> None:
        self.params = params or PDPAParams()
        self.mpl_policy = MplPolicy(self.params)
        self.job_states: Dict[int, PdpaJobState] = {}
        self._drop_plans: Callable[[], None] = _no_plans  # see bind_plans

    # ------------------------------------------------------------------
    # runtime parameter changes (§4.1: "These parameters can be
    # modified at runtime")
    # ------------------------------------------------------------------
    def set_params(self, params: PDPAParams) -> None:
        """Replace the policy parameters on the fly.

        STABLE applications are re-examined against the new thresholds
        at their next report (§4.2.4), so no immediate reshuffle is
        needed here.
        """
        params.validate()
        self.params = params
        self.mpl_policy = MplPolicy(params)
        self._drop_plans()  # every STABLE band reads the thresholds

    def bind_plans(self, drop_plans: Callable[[], None]) -> None:
        self._drop_plans = drop_plans

    # ------------------------------------------------------------------
    # multiprogramming level (coordination with the queuing system)
    # ------------------------------------------------------------------
    def wants_admission(self, system: SystemView, queued_jobs: int) -> bool:
        # Run-to-completion gives every job one processor; a machine
        # with as many jobs as CPUs cannot admit more, regardless of
        # the multiprogramming-level rule.
        if system.running_jobs >= system.total_cpus:
            return False
        return self.mpl_policy.may_admit(self.job_states, system.free_cpus, queued_jobs)

    # ------------------------------------------------------------------
    # allocation policy
    # ------------------------------------------------------------------
    def on_job_arrival(self, job: Job, system: SystemView) -> AllocationDecision:
        """Allocate an arriving application (§4.2.1).

        The paper's rule is "the minimum between the number of
        processors requested and the number of free processors in the
        system".  Jobs admitted *below the default multiprogramming
        level* are the administrator's baseline workload, so when the
        free processors fall short of an equal share, PDPA reclaims
        the difference from the largest running partitions (every
        partition keeps at least one processor).  Beyond the default
        level admission already required free processors and system
        stability, and the paper's rule applies verbatim.
        """
        assert job.request is not None
        free = system.free_cpus
        decision: AllocationDecision = {}
        if system.running_jobs < self.params.base_mpl:
            fair = max(1, system.total_cpus // (system.running_jobs + 1))
            initial = max(1, min(job.request, max(free, fair)))
            deficit = initial - free
            if deficit > 0:
                decision = self._reclaim(deficit, system)
        else:
            initial = max(1, min(job.request, free))
        # Rigid applications cannot be searched: they never report and
        # keep their processes folded on whatever they were granted.
        # They are settled from the start so they do not block the
        # multiprogramming-level policy.
        initial_state = AppState.STABLE if not job.spec.malleable else AppState.NO_REF
        self.job_states[job.job_id] = PdpaJobState(
            job_id=job.job_id,
            request=job.request,
            allocation=initial,
            state=initial_state,
        )
        decision[job.job_id] = initial
        return decision

    def _reclaim(self, deficit: int, system: SystemView) -> AllocationDecision:
        """Take *deficit* CPUs from the largest partitions, one by one."""
        sizes = {
            jid: view.allocation for jid, view in system.jobs.items()
        }
        if deficit > sum(size - 1 for size in sizes.values()):
            raise ValueError(
                f"PDPA: cannot reclaim {deficit} CPUs from partitions {sizes}"
            )
        changed: Dict[int, int] = {}
        for _ in range(deficit):
            victim = max(sorted(sizes), key=lambda jid: sizes[jid])
            if sizes[victim] <= 1:
                raise ValueError("PDPA: reclaim hit the one-CPU floor")
            sizes[victim] -= 1
            changed[victim] = sizes[victim]
        # Keep the per-job memory consistent with the forced shrink.
        for jid, new_alloc in changed.items():
            state = self.job_states.get(jid)
            if state is not None:
                state.prev_allocation = state.allocation
                state.allocation = new_alloc
        return changed

    def on_job_completion(self, job: Job, system: SystemView) -> AllocationDecision:
        """No redistribution at completion.

        Freed processors go to INC applications at their next report or
        to new admissions — redistributing settled applications would
        sacrifice the stability PDPA is built around.
        """
        return {}

    def on_job_removed(self, job: Job) -> None:
        self.job_states.pop(job.job_id, None)

    def note_forced_allocation(self, job_id: int, procs: int) -> None:
        """Resynchronise the automaton after a fault-forced resize.

        The partition changed behind the policy's back (CPU failure
        shrink or equal-share fallback), so the per-job state must
        reflect the allocation actually in force.  The job is parked
        in STABLE: its next report re-enters the automaton from a
        consistent state (§4.2.4 re-examines STABLE jobs anyway).
        """
        state = self.job_states.get(job_id)
        if state is None:
            return
        if state.allocation != procs:
            state.prev_allocation = state.allocation
            state.allocation = procs
        state.state = AppState.STABLE

    def on_report(
        self, job: Job, report: PerformanceReport, system: SystemView
    ) -> AllocationDecision:
        """Evaluate the application's state machine on a fresh report."""
        state = self.job_states.get(job.job_id)
        if state is None:
            raise KeyError(f"PDPA has no state for job {job.job_id}")
        # The report may have been measured on a stale allocation (an
        # iteration that began before our last change); skip it, the
        # SelfAnalyzer will deliver a clean one next iteration.
        current = system.view_of(job.job_id).allocation
        if report.procs != current:
            return {}
        was_stable = state.state is AppState.STABLE
        transition = evaluate_transition(
            state, report.speedup, report.procs, self.params, system.free_cpus
        )
        next_state = transition.next_state
        if was_stable and next_state is not AppState.STABLE:
            state.stable_exits += 1
        state.remember(next_state, transition.next_allocation, report.speedup,
                       resource_limited=transition.resource_limited)
        if was_stable and next_state is AppState.STABLE:
            self._ratchet(state, report.efficiency)
        if transition.next_allocation == current:
            return {}
        return {job.job_id: transition.next_allocation}

    @staticmethod
    def _ratchet(state: PdpaJobState, efficiency: float) -> None:
        """Raise a STABLE job's settled-performance reference to *efficiency*.

        Slow drifts (page-migration recovery, warming caches) must not
        masquerade as the genuine performance change §4.2.4 waits for.
        """
        if state.stable_eff is not None:
            state.stable_eff = max(state.stable_eff, efficiency)

    # ------------------------------------------------------------------
    # iteration spans: a report that keeps a STABLE job STABLE at its
    # allocation changes nothing admission or any partition depends on,
    # and of PDPA's memory moves only the ratchet
    # ------------------------------------------------------------------
    def absorb_report(
        self, job: Job, procs: int, speedup: float, system: SystemView
    ) -> bool:
        if not self._absorbs_reports:
            return False
        state = self.job_states.get(job.job_id)
        if state is None:
            return False
        if procs != system.view_of(job.job_id).allocation:
            return True  # on_report skips a stale report untouched
        if not holds_stable(state, speedup, procs, self.params, system.free_cpus):
            return False
        self._ratchet(state, speedup / procs)
        return True

    def report_band(
        self, job: Job, system: SystemView
    ) -> Optional[Tuple[float, float, float]]:
        """The STABLE band, capped at ``top``, the ratchet's reference:
        above it a report moves ``stable_eff``, so the hook takes it."""
        state = self.job_states.get(job.job_id)
        if not self._absorbs_reports or state is None or state.state is not AppState.STABLE:
            return None
        lo, hi = stable_band(state, self.params)
        top = math.inf if state.stable_eff is None else state.stable_eff
        return lo, top if top < hi else hi, top

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def state_of(self, job_id: int) -> PdpaJobState:
        """PDPA memory for one job (KeyError if unknown)."""
        return self.job_states[job_id]

    def states_summary(self) -> Dict[str, int]:
        """Count of applications per automaton state."""
        counts = {state.value: 0 for state in AppState}
        for job_state in self.job_states.values():
            counts[job_state.state.value] += 1
        return counts
