"""SelfTuning: application-level processor selection (related work).

The paper's §2 describes Nguyen, Zahorjan and Vaswani's *SelfTuning*:
"dynamically measure the efficiency achieved in iterative parallel
regions and select the best number of processors to execute them [...]
applied at the runtime level."  Voss and Eigenmann's dynamic
serialization is the limiting case (drop to one processor when
overheads dominate).

Unlike PDPA — a system-level policy moving processors *between*
applications — SelfTuning is purely local: the application may use
*fewer* processors than it was allocated if that makes its iterations
faster, but it cannot obtain more.  The tuner is an online hill
climber over the measured iteration times:

1. run a few iterations at the current count, average the time;
2. probe a neighbouring count (down first, then up);
3. move if the probe was faster by more than a tolerance, else stay
   and back off probing for a while.

The tuner is attached per job through
:attr:`repro.runtime.nthlib.RuntimeConfig.self_tuning`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True, slots=True)
class SelfTuningConfig:
    """Hill-climber parameters.

    Attributes
    ----------
    samples_per_count:
        Iterations averaged before judging a processor count.
    probe_step:
        Distance of a probe from the current count.
    improvement_tolerance:
        Fractional improvement a probe must show to be adopted
        (guards against chasing noise).
    backoff_iterations:
        Iterations to wait after a failed probe before probing again.
    """

    samples_per_count: int = 2
    probe_step: int = 2
    improvement_tolerance: float = 0.03
    backoff_iterations: int = 6

    def __post_init__(self) -> None:
        if self.samples_per_count < 1:
            raise ValueError("samples_per_count must be >= 1")
        if self.probe_step < 1:
            raise ValueError("probe_step must be >= 1")
        if self.improvement_tolerance < 0:
            raise ValueError("improvement_tolerance must be >= 0")
        if self.backoff_iterations < 0:
            raise ValueError("backoff_iterations must be >= 0")


class SelfTuner:
    """Online search for the fastest processor count <= the allocation."""

    __slots__ = (
        "config", "_current", "_probing", "_samples", "_best_time",
        "_backoff", "moves",
    )

    def __init__(self, config: Optional[SelfTuningConfig] = None) -> None:
        self.config = config or SelfTuningConfig()
        self._current: Optional[int] = None
        self._probing: Optional[int] = None
        self._samples: List[float] = []
        self._best_time: Dict[int, float] = {}
        self._backoff = 0
        #: (iteration_count_adopted) history, for diagnostics
        self.moves: List[int] = []

    # ------------------------------------------------------------------
    # the runtime asks before every iteration
    # ------------------------------------------------------------------
    def proposal(self, allocation: int) -> int:
        """Processors the application should use this iteration."""
        if allocation < 1:
            raise ValueError(f"allocation must be >= 1, got {allocation}")
        if self._current is None:
            self._current = allocation
            self.moves.append(allocation)
        # The allocation is a hard ceiling: clamp both the settled
        # count and any in-flight probe.
        self._current = min(self._current, allocation)
        if self._probing is not None:
            self._probing = min(self._probing, allocation)
            if self._probing == self._current:
                self._probing = None
                self._samples.clear()
        return self._probing if self._probing is not None else self._current

    # ------------------------------------------------------------------
    # ...and reports after it
    # ------------------------------------------------------------------
    def observe(self, procs: int, duration: float) -> None:
        """Feed the measured duration of the iteration just executed."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        if self._current is None:
            return
        target = self._probing if self._probing is not None else self._current
        if procs != target:
            # The allocation changed under us; restart sampling.
            self._samples.clear()
            return
        self._samples.append(duration)
        if len(self._samples) < self.config.samples_per_count:
            return
        mean_time = sum(self._samples) / len(self._samples)
        self._samples.clear()
        self._best_time[target] = mean_time

        if self._probing is None:
            self._maybe_start_probe()
            return
        self._finish_probe(mean_time)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _maybe_start_probe(self) -> None:
        if self._backoff > 0:
            self._backoff -= 1
            return
        assert self._current is not None
        down = max(1, self._current - self.config.probe_step)
        up = self._current + self.config.probe_step
        # Prefer the direction we have not measured, downward first
        # (serialisation is the cheap win for overhead-dominated loops).
        for candidate in (down, up):
            if candidate != self._current and candidate not in self._best_time:
                self._probing = candidate
                return
        # Both measured: probe the faster neighbour again to re-check.
        best = min((down, up), key=lambda c: self._best_time.get(c, float("inf")))
        if best != self._current:
            self._probing = best

    def _finish_probe(self, probe_time: float) -> None:
        assert self._current is not None and self._probing is not None
        settled_time = self._best_time.get(self._current)
        probed = self._probing
        self._probing = None
        if settled_time is None:
            return
        if probe_time < settled_time * (1.0 - self.config.improvement_tolerance):
            self._current = probed
            self.moves.append(probed)
        else:
            self._backoff = self.config.backoff_iterations

    @property
    def current(self) -> Optional[int]:
        """The settled processor count (None before the first call)."""
        return self._current
