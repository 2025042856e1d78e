"""The NANOS SelfAnalyzer: runtime speedup measurement.

The SelfAnalyzer "controls the execution of several (few) initial
iterations of the main outer loop with a small number of processors,
called the baseline measure. [...] The speedup is then calculated as
the relationship between the time with baseline and the time with P",
normalised by an Amdahl factor.

This implementation fixes that procedure at one rule:

1. The first iteration runs on one processor, and its duration is
   ``t_base``.  A sequential baseline is exact, so the Amdahl factor
   is 1.
2. A later iteration on the same processor count as the one before
   yields ``speedup(p) = t_base / t_p`` (at least 1e-6).
3. An iteration on a different count than the one before reports
   nothing: it carries the reallocation's data-redistribution cost,
   not steady-state behaviour.

The state is ``t_base`` and the processor count of the last iteration.
:meth:`repro.runtime.nthlib.NthLibRuntime.absorb` restates the rule
inline for an absorbed iteration end; tests/test_spans.py checks that
both agree.
"""

from __future__ import annotations

from typing import NamedTuple, Optional


class PerformanceReport(NamedTuple):
    """One performance sample delivered to the resource manager."""

    job_id: int
    time: float
    iteration: int
    #: processors the measured iteration ran on
    procs: int
    #: estimated speedup at ``procs``
    speedup: float
    #: measured duration of the iteration (seconds)
    iter_time: float

    @property
    def efficiency(self) -> float:
        """Estimated efficiency, ``speedup / procs``."""
        if self.procs <= 0:
            return 0.0
        return self.speedup / self.procs


class SelfAnalyzer:
    """Per-job runtime performance analyzer."""

    __slots__ = ("job_id", "_t_base", "_last_procs")

    def __init__(self, job_id: int) -> None:
        self.job_id = job_id
        self._t_base: Optional[float] = None
        self._last_procs: Optional[int] = None

    @property
    def t_base(self) -> Optional[float]:
        """The baseline iteration's duration; None until it ends."""
        return self._t_base

    def on_iteration(
        self, time: float, iteration: int, procs: int, duration: float
    ) -> Optional[PerformanceReport]:
        """Record one finished iteration; maybe return a report.

        Parameters
        ----------
        time:
            Simulation time at which the iteration completed.
        iteration:
            Zero-based iteration index.
        procs:
            Processors the iteration ran on.
        duration:
            Measured wall-clock duration of the iteration.
        """
        if duration <= 0:
            raise ValueError(f"iteration duration must be positive, got {duration}")
        if procs < 1:
            raise ValueError(f"procs must be >= 1, got {procs}")
        t_base = self._t_base
        last = self._last_procs
        self._last_procs = procs
        if t_base is None:
            self._t_base = duration
            return None
        if procs != last:
            return None
        speedup = t_base / duration
        # positional: this runs once per measured iteration
        return PerformanceReport(
            self.job_id, time, iteration, procs, 1e-6 if 1e-6 > speedup else speedup,
            duration,
        )
