"""PDPA's multiprogramming-level policy (paper §4.3).

Traditional schedulers either fix the multiprogramming level (causing
fragmentation: free processors sit idle while jobs wait in the queue)
or leave it uncontrolled (overloading the system).  PDPA coordinates
the two scheduling levels instead: "We leave the decision about when
to start a new application to the processor scheduling policy, and we
leave the selection of which application to start to the queuing
system."

The admission rule implemented here:

* a new job always needs at least one free processor;
* up to ``base_mpl`` jobs (the evaluation's default of four) are
  admitted unconditionally — this is the administrator's starting
  point, which PDPA then adjusts dynamically;
* beyond that, a job is admitted only when every running application
  is *settled*: STABLE (its allocation search converged) or DEC (it is
  shedding processors it cannot use — "some applications show bad
  performance").  Applications still in NO_REF or INC block admission
  because the processors they may still claim are unknown.
"""

from __future__ import annotations

from typing import Dict

from repro.core.params import PDPAParams
from repro.core.states import PdpaJobState


class MplPolicy:
    """Decides when the queuing system may start a new application."""

    __slots__ = ("params",)

    def __init__(self, params: PDPAParams) -> None:
        self.params = params

    def may_admit(
        self,
        job_states: Dict[int, PdpaJobState],
        free_cpus: int,
        queued_jobs: int,
    ) -> bool:
        """Whether one more queued job may start now.

        Parameters
        ----------
        job_states:
            PDPA state of every running application.
        free_cpus:
            Processors not allocated to any partition.
        queued_jobs:
            Jobs waiting in the queuing system.
        """
        if queued_jobs <= 0:
            return False
        if len(job_states) < self.params.base_mpl:
            # Below the administrator's default level jobs are admitted
            # unconditionally (the allocation policy reclaims a fair
            # share for them); each running job must keep >= 1 CPU.
            return True
        if free_cpus < 1:
            return False
        return all(state.is_settled for state in job_states.values())

    def explain(
        self,
        job_states: Dict[int, PdpaJobState],
        free_cpus: int,
        queued_jobs: int,
    ) -> str:
        """Human-readable admission rationale (for traces/debugging)."""
        if queued_jobs <= 0:
            return "no queued jobs"
        if len(job_states) < self.params.base_mpl:
            return (
                f"below the default multiprogramming level "
                f"({len(job_states)} < {self.params.base_mpl})"
            )
        if free_cpus < 1:
            return "no free processors"
        unsettled = [
            f"job {jid} in {state.state}"
            for jid, state in sorted(job_states.items())
            if not state.is_settled
        ]
        if unsettled:
            return "waiting for: " + ", ".join(unsettled)
        return f"all {len(job_states)} applications settled; {free_cpus} CPUs free"
