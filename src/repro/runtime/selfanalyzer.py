"""The NANOS SelfAnalyzer: runtime speedup measurement.

The SelfAnalyzer "controls the execution of several (few) initial
iterations of the main outer loop with a small number of processors,
called the baseline measure. [...] The speedup is then calculated as
the relationship between the time with baseline and the time with P",
normalised by an Amdahl factor.

Our implementation mirrors that procedure:

1. The first ``baseline_iterations`` iterations run on
   ``baseline_procs`` processors (clamped to the current allocation),
   and their average duration becomes ``t_base``.
2. Every later iteration measured on ``p`` processors yields

       speedup(p) = AF * assumed_base_speedup * t_base / t_p

   where ``assumed_base_speedup`` is the speedup the analyzer assumes
   the baseline allocation achieves (exactly 1.0 when the baseline is
   a single processor) and ``AF`` is the Amdahl normalisation factor.
3. Iterations immediately following an allocation change are skipped:
   they contain data-redistribution noise, not steady-state behaviour.

Because the assumed baseline speedup is only an estimate, measured
speedups carry a systematic error for poorly scaling codes — a
real-world imperfection the scheduling policies must tolerate (and
one reason the paper imposes thresholds rather than exact targets).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from repro.sim.columns import RunningMean


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


@dataclass(frozen=True, slots=True)
class SelfAnalyzerConfig:
    """Tunable parameters of the analyzer.

    Attributes
    ----------
    baseline_procs:
        Processor count used for the baseline measure.
    baseline_iterations:
        Number of initial iterations averaged into ``t_base``.
    assumed_base_speedup:
        Speedup the analyzer assumes at ``baseline_procs``.  Must be
        1.0 when ``baseline_procs`` is 1 (a sequential baseline is
        exact).
    amdahl_factor:
        The paper's AF normalisation; 1.0 disables it.
    report_interval:
        Deliver a report every N measured iterations.
    skip_after_realloc:
        Iterations discarded after each allocation change.
    """

    baseline_procs: int = 1
    baseline_iterations: int = 1
    assumed_base_speedup: float = 1.0
    amdahl_factor: float = 1.0
    report_interval: int = 1
    skip_after_realloc: int = 1

    def __post_init__(self) -> None:
        if self.baseline_procs < 1:
            raise ValueError("baseline_procs must be >= 1")
        if self.baseline_iterations < 1:
            raise ValueError("baseline_iterations must be >= 1")
        if self.assumed_base_speedup < 1.0:
            raise ValueError("assumed_base_speedup must be >= 1")
        if self.baseline_procs == 1 and abs(self.assumed_base_speedup - 1.0) > 1e-9:
            raise ValueError("a 1-processor baseline has speedup exactly 1.0")
        if self.amdahl_factor <= 0:
            raise ValueError("amdahl_factor must be positive")
        if self.report_interval < 1:
            raise ValueError("report_interval must be >= 1")
        if self.skip_after_realloc < 0:
            raise ValueError("skip_after_realloc must be >= 0")


class SelfAnalyzer:
    """Per-job runtime performance analyzer."""

    __slots__ = (
        "job_id", "config", "_baseline", "_t_base", "_base_speedup",
        "_measured", "_skip", "_last_procs",
    )

    def __init__(self, job_id: int, config: Optional[SelfAnalyzerConfig] = None) -> None:
        self.job_id = job_id
        self.config = config or SelfAnalyzerConfig()
        #: running-sum fold of the baseline samples (columnar hot
        #: core); accumulating per sample is bit-identical to the old
        #: retained list + sum() at baseline close
        self._baseline = RunningMean()
        self._t_base: Optional[float] = None
        self._base_speedup: Optional[float] = None
        self._measured = 0
        self._skip = 0
        self._last_procs: Optional[int] = None

    # ------------------------------------------------------------------
    # baseline handling
    # ------------------------------------------------------------------
    @property
    def in_baseline(self) -> bool:
        """Whether the analyzer is still collecting baseline samples."""
        return self._t_base is None

    @property
    def t_base(self) -> Optional[float]:
        """Average baseline iteration time, once established."""
        return self._t_base

    def baseline_allocation(self, current_alloc: int) -> int:
        """Processors to use while the baseline measure runs."""
        return max(1, min(self.config.baseline_procs, current_alloc))

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------
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
        if not self.commit(procs, duration):
            return None
        speedup = self.estimate_speedup(procs, duration)
        # positional: this runs once per measured iteration
        return PerformanceReport(self.job_id, time, iteration, procs, speedup, duration)

    def commit(self, procs: int, duration: float) -> bool:
        """Count one finished iteration; True when it is due a report.

        The counter half of :meth:`on_iteration`, without the report:
        a caller that already took the report through another path
        (an absorbed iteration end) moves the counters with this.
        """
        if self._t_base is None:
            self._baseline.add(duration, procs)
            if self._baseline.count >= self.config.baseline_iterations:
                self._t_base = self._baseline.mean
                self._base_speedup = self._assumed_speedup_at(
                    self._baseline.max_procs
                )
            self._last_procs = procs
            return False

        if self._last_procs is not None and procs != self._last_procs:
            # Allocation changed: the next skip_after_realloc
            # iterations carry redistribution cost and are discarded.
            self._skip = self.config.skip_after_realloc
        self._last_procs = procs

        if self._skip > 0:
            self._skip -= 1
            return False

        self._measured += 1
        return self._measured % self.config.report_interval == 0

    def would_report(self, procs: int) -> bool:
        """Whether :meth:`commit` on *procs* would answer True.

        Side-effect free, so a caller can decide how to deliver the
        report before the analyzer's counters move.
        """
        if self._t_base is None:
            return False
        skip = self._skip
        if self._last_procs is not None and procs != self._last_procs:
            skip = self.config.skip_after_realloc
        return skip <= 0 and (self._measured + 1) % self.config.report_interval == 0

    def estimate_speedup(self, procs: int, duration: float) -> float:
        """Speedup estimate for an iteration of ``duration`` on ``procs``.

        Raises
        ------
        RuntimeError
            If called before the baseline measure completed.
        """
        if self._t_base is None or self._base_speedup is None:
            raise RuntimeError("baseline measure not yet established")
        if duration <= 0:
            raise ValueError("duration must be positive")
        raw = self._base_speedup * self._t_base / duration
        return max(self.config.amdahl_factor * raw, 1e-6)

    def _assumed_speedup_at(self, procs: int) -> float:
        """Assumed speedup for the processors the baseline actually used.

        When the current allocation was smaller than the configured
        baseline, the baseline ran on fewer processors; the assumed
        speedup is interpolated linearly down to exactly 1.0 at one
        processor (a sequential baseline is exact by definition).
        """
        cfg = self.config
        if procs >= cfg.baseline_procs or cfg.baseline_procs == 1:
            return cfg.assumed_base_speedup
        if procs <= 1:
            return 1.0
        slope = (cfg.assumed_base_speedup - 1.0) / (cfg.baseline_procs - 1)
        return 1.0 + slope * (procs - 1)

    def reset_baseline(self) -> None:
        """Discard the baseline and re-measure it.

        The paper's §3.1 notes that a variable working set "could
        result in incorrect speedup values [...]; however, if calls to
        SelfAnalyzer are automatically inserted by the compiler, this
        situation could be avoided by resetting data".  This is that
        reset: the next iterations re-establish ``t_base`` on the
        baseline processor count.
        """
        self._baseline.clear()
        self._t_base = None
        self._base_speedup = None
        self._measured = 0
        self._skip = 0
