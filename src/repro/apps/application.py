"""Malleable iterative application model.

An application consists of a sequential *startup* phase, ``iterations``
executions of an *iterative parallel region*, and a sequential
*teardown* phase.  The duration of one iteration on ``p`` processors is

    t_iter(p) = t_iter_seq / S(p)

optionally inflated by per-iteration measurement overhead (the cost of
the SelfAnalyzer instrumentation — the paper notes hydro2d "suffers
overhead due to the measurement process") and by a reallocation penalty
whenever the allocation changed since the previous iteration (data
redistribution, cache and page-migration effects on the CC-NUMA
Origin 2000 — the paper stresses "reallocations are not free").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.apps.speedup import SpeedupCurve


class AppClass(enum.Enum):
    """Scalability classes used throughout the paper's evaluation."""

    SUPERLINEAR = "superlinear"
    HIGH = "high"
    MEDIUM = "medium"
    NONE = "none"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True, slots=True)
class ApplicationSpec:
    """Static description of an application.

    Attributes
    ----------
    name:
        Application name (e.g. ``"swim"``).
    app_class:
        Scalability class (:class:`AppClass`).
    speedup_model:
        The application's true speedup curve ``S(p)``.
    iterations:
        Number of iterations of the main outer loop.
    t_iter_seq:
        Sequential execution time of one iteration (seconds).
    t_startup / t_teardown:
        Sequential phases before / after the iterative region.
    default_request:
        Processors the application requests by default (the manual
        tuning the paper applies: 30 for the scalable codes, 2 for
        apsi).
    measurement_overhead:
        Fractional per-iteration slowdown caused by runtime
        instrumentation (e.g. 0.02 = 2%).
    realloc_penalty:
        Seconds added to the first iteration after an allocation
        change (fixed part).
    realloc_penalty_per_cpu:
        Seconds added per processor gained or lost in the change
        (models data redistribution volume).
    malleable:
        Whether the application can change its degree of parallelism
        at runtime.  OpenMP codes under NthLib are malleable; plain
        MPI codes are *rigid* — "MPI are usually tight to a specific
        number of processors" (paper §6).  A rigid application always
        runs ``default_request`` processes; when granted fewer
        processors, its processes are *folded* onto them (time-shared),
        scaling its speed by the allocation fraction.
    work_phases:
        Optional behaviour changes: ``(start_iteration, multiplier)``
        pairs, sorted by iteration.  From ``start_iteration`` onwards
        the per-iteration sequential work is scaled by ``multiplier``
        (relative to ``t_iter_seq``).  Models the "iterative parallel
        region with a variable working set" the paper's §3.1 warns
        about: the SelfAnalyzer's baseline goes stale and measured
        speedups shift, so schedulers must react to performance
        changes, not just absolute values.
    """

    name: str
    app_class: AppClass
    speedup_model: SpeedupCurve
    iterations: int
    t_iter_seq: float
    t_startup: float = 0.5
    t_teardown: float = 0.5
    default_request: int = 30
    measurement_overhead: float = 0.0
    realloc_penalty: float = 0.05
    realloc_penalty_per_cpu: float = 0.01
    malleable: bool = True
    work_phases: Tuple[Tuple[int, float], ...] = ()

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError(f"{self.name}: iterations must be >= 1")
        if self.t_iter_seq <= 0:
            raise ValueError(f"{self.name}: t_iter_seq must be positive")
        if self.t_startup < 0 or self.t_teardown < 0:
            raise ValueError(f"{self.name}: phase times must be >= 0")
        if self.default_request < 1:
            raise ValueError(f"{self.name}: default_request must be >= 1")
        if self.measurement_overhead < 0:
            raise ValueError(f"{self.name}: measurement_overhead must be >= 0")
        previous = -1
        for start, multiplier in self.work_phases:
            if start <= previous:
                raise ValueError(f"{self.name}: work_phases must be sorted")
            if not 0 <= start:
                raise ValueError(f"{self.name}: phase iterations must be >= 0")
            if multiplier <= 0:
                raise ValueError(f"{self.name}: phase multipliers must be positive")
            previous = start

    def work_multiplier_at(self, iteration: int) -> float:
        """Work-phase multiplier in effect at a given iteration."""
        multiplier = 1.0
        for start, value in self.work_phases:
            if iteration >= start:
                multiplier = value
            else:
                break
        return multiplier

    def iter_seq_time_at(self, iteration: int) -> float:
        """Sequential time of one iteration, with phases applied."""
        if not self.work_phases:
            return self.t_iter_seq  # == t_iter_seq * 1.0, exactly
        return self.t_iter_seq * self.work_multiplier_at(iteration)

    @property
    def sequential_work(self) -> float:
        """Total sequential execution time of the whole application."""
        iterating = sum(
            self.iter_seq_time_at(i) for i in range(self.iterations)
        ) if self.work_phases else self.iterations * self.t_iter_seq
        return self.t_startup + iterating + self.t_teardown

    def execution_time(self, procs: float) -> float:
        """Ideal execution time on a fixed allocation of ``procs`` CPUs.

        This is the closed-form time with no reallocations, no noise
        and no measurement overhead — the quantity used to estimate
        processor demand when generating workloads.
        """
        if procs <= 0:
            raise ValueError(f"procs must be positive, got {procs}")
        speedup = self.speedup_model.speedup(procs)
        if speedup <= 0:
            raise ValueError(f"speedup model returned non-positive value at p={procs}")
        iterating = (self.sequential_work - self.t_startup - self.t_teardown) / speedup
        return self.t_startup + iterating + self.t_teardown

    def cpu_demand(self, procs: Optional[float] = None) -> float:
        """Processor-seconds consumed at the given (default) request.

        Used by the workload generator to hit a target system load,
        matching the paper's "estimated processor demand of 60 percent,
        80 percent, and 100 percent of the total capacity".
        """
        p = self.default_request if procs is None else procs
        return p * self.execution_time(p)

    def with_request(self, request: int) -> "ApplicationSpec":
        """A copy of this spec with a different processor request.

        Used by the "not tuned" experiments (Tables 3 and 4) where
        apsi — or every application — requests 30 processors.
        """
        return replace(self, default_request=request)

    def as_rigid(self) -> "ApplicationSpec":
        """A copy of this spec marked non-malleable (MPI-style)."""
        return replace(self, malleable=False)

    def folded_speedup(self, processes: int, procs: float) -> float:
        """Speedup of *processes* folded onto *procs* processors.

        The paper's folding mechanism for rigid applications: the
        fixed process count keeps the application's parallel structure
        (speedup ``S(processes)``), but with fewer physical processors
        each process only gets ``procs / processes`` of a CPU, so the
        whole application advances at

            S(processes) * min(1, procs / processes)
        """
        if processes < 1:
            raise ValueError(f"processes must be >= 1, got {processes}")
        if procs <= 0:
            raise ValueError(f"procs must be positive, got {procs}")
        fold_factor = min(1.0, procs / processes)
        return self.speedup_model.speedup(processes) * fold_factor


@dataclass(slots=True)
class IterativeApplication:
    """Dynamic execution state of one running application instance.

    This object tracks progress through the phases; the runtime layer
    (:mod:`repro.runtime.nthlib`) advances it iteration by iteration.
    """

    spec: ApplicationSpec
    completed_iterations: int = 0
    started: bool = False
    finished: bool = False

    @property
    def remaining_iterations(self) -> int:
        """Iterations still to execute."""
        return self.spec.iterations - self.completed_iterations

    def record_iteration(self) -> None:
        """Mark one iteration as done."""
        if self.finished:
            raise RuntimeError(f"{self.spec.name}: iteration after completion")
        if self.completed_iterations >= self.spec.iterations:
            raise RuntimeError(f"{self.spec.name}: no iterations remaining")
        self.completed_iterations += 1

    def iteration_duration(
        self,
        procs: float,
        alloc_changed_by: int = 0,
        noise_factor: float = 1.0,
    ) -> float:
        """True duration of the next iteration on ``procs`` processors.

        Parameters
        ----------
        procs:
            Processors used for this iteration (possibly fractional
            under time-sharing).
        alloc_changed_by:
            Absolute number of processors gained or lost relative to
            the previous iteration; adds the reallocation penalty.
        noise_factor:
            Multiplicative jitter drawn by the caller.
        """
        if procs <= 0:
            raise ValueError(f"procs must be positive, got {procs}")
        speedup = self.spec.speedup_model.speedup(procs)
        return self.iteration_duration_from_speedup(
            speedup, alloc_changed_by=alloc_changed_by, noise_factor=noise_factor
        )

    def iteration_duration_from_speedup(
        self,
        speedup: float,
        alloc_changed_by: int = 0,
        noise_factor: float = 1.0,
    ) -> float:
        """Duration of the next iteration at an explicit speedup.

        Used when the execution rate is not given by the application's
        own curve at an integer allocation — folded rigid processes
        and time-shared (IRIX) execution compute their speedup
        externally.
        """
        if speedup <= 0:
            raise ValueError(f"speedup must be positive, got {speedup}")
        base = self.spec.iter_seq_time_at(self.completed_iterations) / speedup
        base *= 1.0 + self.spec.measurement_overhead
        base *= noise_factor
        if alloc_changed_by:
            base += (
                self.spec.realloc_penalty
                + self.spec.realloc_penalty_per_cpu * abs(alloc_changed_by)
            )
        return base
