"""A test-side log of every iteration end, absorbed or fired.

NthLib keeps no per-iteration history: it holds only the iteration in
flight, which the engine ends through ``NthLibRuntime.absorb`` (an
absorbed end) or ``NthLibRuntime.fire`` (an ``iter:`` event).
:func:`record_iteration_ends` wraps both for the duration of a block
and logs one row per end that happened::

    (job, iteration, procs, duration, end time)

keyed by the runtime's simulator, so two sessions run side by side
keep separate logs.  Events scheduled inside the block bind the
wrapped ``fire``; build and run the sessions inside it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Tuple

from repro.runtime.nthlib import NthLibRuntime

#: (job id, iteration index, procs, duration, end time)
IterationEnd = Tuple[int, int, int, float, float]


def _end(runtime: NthLibRuntime) -> IterationEnd:
    return (
        runtime.job.job_id, runtime.app.completed_iterations,
        runtime._procs, runtime._duration, runtime.sim.now,
    )


@contextmanager
def record_iteration_ends() -> Iterator[Dict[Any, List[IterationEnd]]]:
    """Log every iteration end in the block, per simulator."""
    ends: Dict[Any, List[IterationEnd]] = {}
    absorb, fire = NthLibRuntime.absorb, NthLibRuntime.fire

    def recording_absorb(runtime: NthLibRuntime) -> bool:
        end = _end(runtime)
        if not absorb(runtime):
            return False  # the end fires instead, and is logged then
        ends.setdefault(runtime.sim, []).append(end)
        return True

    def recording_fire(runtime: NthLibRuntime) -> None:
        ends.setdefault(runtime.sim, []).append(_end(runtime))
        fire(runtime)

    NthLibRuntime.absorb = recording_absorb  # type: ignore[method-assign]
    NthLibRuntime.fire = recording_fire  # type: ignore[method-assign]
    try:
        yield ends
    finally:
        NthLibRuntime.absorb = absorb  # type: ignore[method-assign]
        NthLibRuntime.fire = fire  # type: ignore[method-assign]
