"""The PDPA application state automaton (paper §4.2, Fig. 2).

Each running application is in one of four states reflecting what
PDPA learned from its last evaluation:

* ``NO_REF``  — no performance knowledge yet (starting point),
* ``INC``     — performed very well; probing a larger allocation,
* ``DEC``     — below the target efficiency; shrinking,
* ``STABLE``  — at the maximum allocation PDPA considers acceptable.

:func:`evaluate_transition` is a *pure function* from (current state,
performance report, parameters, free processors) to (next state, next
allocation).  Keeping it pure makes the §4.2 rules directly
unit-testable, independent of the machine and simulator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Union

from repro.core.params import PDPAParams


class AppState(enum.Enum):
    """PDPA's knowledge about one application (Fig. 2)."""

    NO_REF = "NO_REF"
    INC = "INC"
    DEC = "DEC"
    STABLE = "STABLE"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(slots=True)
class PdpaJobState:
    """PDPA's per-application memory.

    The policy "manages information related to the recent past of the
    application.  It remembers the last processor allocations
    different from the current one and the efficiency achieved with
    them."
    """

    job_id: int
    request: int
    allocation: int
    state: AppState = AppState.NO_REF
    #: allocation before the most recent change (None until one happens)
    prev_allocation: Optional[int] = None
    #: speedup measured at ``prev_allocation``
    prev_speedup: Optional[float] = None
    #: efficiency observed when the application entered STABLE; the
    #: §4.2.4 re-evaluation fires only "if the application performance
    #: changes", i.e. drifts away from this reference
    stable_eff: Optional[float] = None
    #: True when the application settled only because no processors
    #: were free — such jobs may grow as soon as capacity appears,
    #: without waiting for a performance change
    resource_limited: bool = False
    #: number of times this job left STABLE (ping-pong limiter)
    stable_exits: int = 0

    def remember(self, new_state: AppState, new_allocation: int,
                 speedup: float, resource_limited: bool = False) -> None:
        """Apply a transition, updating the recent-past memory."""
        if new_allocation != self.allocation:
            self.prev_allocation = self.allocation
            self.prev_speedup = speedup
        if new_state is AppState.STABLE:
            if self.state is not AppState.STABLE:
                # Entering STABLE: remember the performance we settled
                # at (estimated at the allocation we settle on).
                self.stable_eff = speedup / max(new_allocation, 1)
                self.resource_limited = resource_limited
        else:
            self.stable_eff = None
            self.resource_limited = False
        self.state = new_state
        self.allocation = new_allocation

    @property
    def is_settled(self) -> bool:
        """Whether this job no longer needs more processors.

        STABLE jobs are settled by definition; DEC jobs are *shedding*
        processors, which the multiprogramming-level policy also treats
        as non-blocking ("or if some applications show bad
        performance").
        """
        return self.state in (AppState.STABLE, AppState.DEC)


@dataclass(frozen=True)
class Transition:
    """Outcome of one PDPA evaluation."""

    next_state: AppState
    next_allocation: int
    #: human-readable reason, for traces and debugging
    reason: str
    #: the application settled only for lack of free processors
    resource_limited: bool = False


def _grow(state: PdpaJobState, params: PDPAParams, free_cpus: int) -> int:
    """Processors to add: min(step, free, headroom to the request)."""
    headroom = state.request - state.allocation
    return max(0, min(params.step, free_cpus, headroom))


def _shrunk(state: PdpaJobState, params: PDPAParams) -> int:
    """Allocation after removing one step (run-to-completion min 1)."""
    return max(state.allocation - params.step, 1)


def evaluate_transition(
    state: PdpaJobState,
    speedup: float,
    procs: int,
    params: PDPAParams,
    free_cpus: int,
) -> Transition:
    """Apply the §4.2 rules to one performance report.

    Parameters
    ----------
    state:
        The application's PDPA memory (not mutated).
    speedup:
        Speedup estimated by the SelfAnalyzer for the last iteration.
    procs:
        Processors the measured iteration ran on.
    params:
        Current policy parameters.
    free_cpus:
        Free processors available for growth.

    Returns
    -------
    Transition
        Next state and allocation.  The allocation always stays within
        ``[1, request]`` and never grows by more than ``free_cpus``.
    """
    if procs < 1:
        raise ValueError(f"procs must be >= 1, got {procs}")
    if speedup <= 0:
        raise ValueError(f"speedup must be positive, got {speedup}")
    efficiency = speedup / procs

    if state.state is AppState.NO_REF:
        return _from_no_ref(state, efficiency, params, free_cpus)
    if state.state is AppState.INC:
        return _from_inc(state, speedup, procs, efficiency, params, free_cpus)
    if state.state is AppState.DEC:
        return _from_dec(state, efficiency, params)
    return _from_stable(state, efficiency, params, free_cpus)


def holds_stable(
    state: PdpaJobState,
    speedup: float,
    procs: int,
    params: PDPAParams,
    free_cpus: int,
) -> bool:
    """Whether one report leaves a STABLE application where it is.

    The no-op proof behind iteration spans: ``True`` exactly when the
    application is STABLE and :func:`evaluate_transition` keeps it
    STABLE at its current allocation, so the report changes neither
    the automaton state that admission reads nor the partition.
    """
    if state.state is not AppState.STABLE or procs < 1 or speedup <= 0:
        return False  # invalid input: let evaluate_transition raise
    return isinstance(_stable_move(state, speedup / procs, params, free_cpus), str)


def _from_no_ref(
    state: PdpaJobState, efficiency: float, params: PDPAParams, free_cpus: int
) -> Transition:
    """First evaluation: classify by efficiency alone (§4.2.1)."""
    if efficiency > params.high_eff:
        grant = _grow(state, params, free_cpus)
        if grant == 0:
            return Transition(
                AppState.STABLE, state.allocation,
                "very good efficiency but no room to grow",
                resource_limited=state.allocation < state.request,
            )
        return Transition(
            AppState.INC, state.allocation + grant,
            f"efficiency {efficiency:.2f} > high_eff; probing +{grant}",
        )
    if efficiency < params.target_eff:
        shrunk = _shrunk(state, params)
        if shrunk == state.allocation:
            return Transition(
                AppState.STABLE, state.allocation,
                "below target but already at the minimum allocation",
            )
        return Transition(
            AppState.DEC, shrunk,
            f"efficiency {efficiency:.2f} < target_eff; shrinking to {shrunk}",
        )
    return Transition(
        AppState.STABLE, state.allocation,
        f"efficiency {efficiency:.2f} acceptable",
    )


def _from_inc(
    state: PdpaJobState,
    speedup: float,
    procs: int,
    efficiency: float,
    params: PDPAParams,
    free_cpus: int,
) -> Transition:
    """Evaluate the probe made in the last quantum (§4.2.2).

    Growth continues only if 1) efficiency stays above ``high_eff``,
    2) the speedup improved, and 3) the RelativeSpeedup exceeds the
    fraction of additional processors scaled by ``high_eff`` — the
    check that stops superlinear codes (swim) once their speedup
    progression flattens.
    """
    prev_alloc = state.prev_allocation
    prev_speedup = state.prev_speedup
    keeps_scaling = False
    if prev_alloc is not None and prev_speedup is not None and prev_speedup > 0:
        relative_speedup = speedup / prev_speedup
        required = (procs / prev_alloc) * params.high_eff
        keeps_scaling = (
            efficiency > params.high_eff
            and speedup > prev_speedup
            and relative_speedup > required
        )
    if keeps_scaling:
        grant = _grow(state, params, free_cpus)
        if grant == 0:
            return Transition(
                AppState.STABLE, state.allocation,
                "still scaling but no free processors; settling",
                resource_limited=state.allocation < state.request,
            )
        return Transition(
            AppState.INC, state.allocation + grant,
            f"scalability maintained; probing +{grant}",
        )
    # Stop growing.  "The application will lose the step additional
    # processors received in the last transition only if the current
    # efficiency is less than target_eff."
    if efficiency < params.target_eff and prev_alloc is not None:
        revert = min(prev_alloc, state.allocation)
        return Transition(
            AppState.STABLE, revert,
            f"efficiency {efficiency:.2f} < target_eff; reverting to {revert}",
        )
    return Transition(
        AppState.STABLE, state.allocation,
        "scalability no longer maintained; keeping the allocation",
    )


def _from_dec(
    state: PdpaJobState, efficiency: float, params: PDPAParams
) -> Transition:
    """Keep shrinking until the target efficiency is reached (§4.2.3)."""
    if efficiency < params.target_eff:
        shrunk = _shrunk(state, params)
        if shrunk == state.allocation:
            return Transition(
                AppState.STABLE, state.allocation,
                "below target at the minimum allocation; settling",
            )
        return Transition(
            AppState.DEC, shrunk,
            f"efficiency {efficiency:.2f} still < target_eff; shrinking to {shrunk}",
        )
    return Transition(
        AppState.STABLE, state.allocation,
        f"efficiency {efficiency:.2f} recovered above target",
    )


def _from_stable(
    state: PdpaJobState, efficiency: float, params: PDPAParams, free_cpus: int
) -> Transition:
    """Re-evaluate a stable application (§4.2.4).

    STABLE is sticky: "If the application performance changes, the
    next state and processor allocation could be modified."  A change
    means drifting outside the thresholds *and* away from the
    performance observed when the application settled — otherwise a
    superlinear code whose efficiency sits above ``high_eff`` even
    after the RelativeSpeedup check stopped it would immediately
    re-probe.  The number of exits is limited "to avoid ping-pong
    effects".
    """
    move = _stable_move(state, efficiency, params, free_cpus)
    if isinstance(move, str):
        return Transition(AppState.STABLE, state.allocation, move)
    return move


def _stable_move(
    state: PdpaJobState, efficiency: float, params: PDPAParams, free_cpus: int
) -> Union[Transition, str]:
    """The move a report makes a STABLE application take, or why it stays."""
    if state.stable_exits >= params.max_stable_exits:
        return "stable exits exhausted"
    low = params.target_eff * (1.0 - params.stable_hysteresis)
    high = params.high_eff * (1.0 + params.stable_hysteresis)
    reference = state.stable_eff
    dropped = efficiency < low and (
        reference is None or efficiency < reference * (1.0 - params.stable_hysteresis)
    )
    improved = efficiency > high and (
        state.resource_limited
        or reference is None
        or efficiency > reference * (1.0 + params.stable_hysteresis)
    )
    if dropped:
        shrunk = _shrunk(state, params)
        if shrunk != state.allocation:
            return Transition(
                AppState.DEC, shrunk,
                f"performance dropped ({efficiency:.2f}); leaving STABLE",
            )
        return "at minimum allocation"
    if improved:
        grant = _grow(state, params, free_cpus)
        if grant > 0:
            return Transition(
                AppState.INC, state.allocation + grant,
                f"performance improved ({efficiency:.2f}); leaving STABLE",
            )
    return "still acceptable"
