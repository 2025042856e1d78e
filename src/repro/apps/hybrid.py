"""MPI+OpenMP hybrid applications (paper §6, first approach).

"One first approach for MPI+OpenMP applications is to control the
number of processors given to each MPI process to run OpenMP threads.
This way, one can achieve better load balancing of the work done for
each MPI process."

A hybrid application is a fixed set of MPI processes, each owning a
share of the iteration's work (possibly imbalanced), each running an
OpenMP-parallel region whose scalability follows an inner speedup
curve.  An iteration is a BSP step: all processes synchronise, so the
slowest process gates progress:

    t_iter(c_1..c_N) = max_i ( w_i * t_seq / S_inner(c_i) )

Two processor-distribution strategies are provided:

* **uniform** — every process gets the same share of the allocation
  (what a runtime that cannot see the imbalance does);
* **balanced** — processors are assigned greedily to whichever
  process is currently the bottleneck, equalising per-process
  finish times (what the coordinated NANOS runtime enables).

Both are exposed as ordinary :class:`~repro.apps.speedup.SpeedupCurve`
objects, so hybrid applications plug into the existing job model,
policies and experiment harnesses unchanged — and PDPA's search picks
the right *total* allocation while the distribution strategy decides
how well those processors are used.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.apps.speedup import SpeedupCurve


def uniform_distribution(total_cpus: int, n_processes: int) -> List[int]:
    """Split *total_cpus* evenly over the processes (remainder first)."""
    if n_processes < 1:
        raise ValueError(f"n_processes must be >= 1, got {n_processes}")
    if total_cpus < n_processes:
        raise ValueError(
            f"need at least one CPU per process ({n_processes}), got {total_cpus}"
        )
    base, remainder = divmod(total_cpus, n_processes)
    return [base + (1 if i < remainder else 0) for i in range(n_processes)]


def balanced_distribution(
    total_cpus: int, weights: Sequence[float], inner: SpeedupCurve
) -> List[int]:
    """Assign CPUs greedily to the current bottleneck process.

    Starting from one CPU each, every additional CPU goes to the
    process with the largest per-iteration time ``w_i / S(c_i)``,
    which greedily minimises the BSP step time.
    """
    n = len(weights)
    if n < 1:
        raise ValueError("need at least one process")
    if total_cpus < n:
        raise ValueError(f"need at least one CPU per process ({n}), got {total_cpus}")
    if any(w <= 0 for w in weights):
        raise ValueError(f"process weights must be positive, got {list(weights)}")
    cpus = [1] * n
    for _ in range(total_cpus - n):
        speeds = inner.speedup_many(cpus)
        times = [weights[i] / speeds[i] for i in range(n)]
        bottleneck = max(range(n), key=lambda i: (times[i], -i))
        cpus[bottleneck] += 1
    return cpus


def step_time(
    cpus: Sequence[int], weights: Sequence[float], inner: SpeedupCurve
) -> float:
    """BSP step time (relative to ``t_seq = 1``) for a distribution."""
    if len(cpus) != len(weights):
        raise ValueError("cpus and weights must have the same length")
    speeds = inner.speedup_many(list(cpus))
    return max(w / s for w, s in zip(weights, speeds))


class HybridSpeedup(SpeedupCurve):
    """Speedup curve of an MPI+OpenMP application.

    Parameters
    ----------
    process_weights:
        Work share of each MPI process (need not sum to anything
        particular; only ratios matter).
    inner:
        OpenMP scalability of a single process's parallel region.
    balanced:
        ``True`` uses the coordinated bottleneck-first distribution;
        ``False`` the uniform split.

    Below one CPU per process, the processes are folded (time-shared),
    scaling the minimal-configuration speedup linearly — the same
    semantics as rigid-application folding.
    """

    __slots__ = ("process_weights", "inner", "balanced")

    def __init__(
        self,
        process_weights: Sequence[float],
        inner: SpeedupCurve,
        balanced: bool = True,
        name: str = "hybrid",
    ) -> None:
        if not process_weights:
            raise ValueError("need at least one process weight")
        if any(w <= 0 for w in process_weights):
            raise ValueError("process weights must be positive")
        self.process_weights = list(process_weights)
        self.inner = inner
        self.balanced = balanced
        self.name = name

    @property
    def n_processes(self) -> int:
        """Number of MPI processes."""
        return len(self.process_weights)

    def distribution(self, total_cpus: int) -> List[int]:
        """Per-process CPU counts for an allocation of *total_cpus*."""
        if self.balanced:
            return balanced_distribution(total_cpus, self.process_weights, self.inner)
        return uniform_distribution(total_cpus, self.n_processes)

    def _compute(self, procs: float) -> float:
        n = self.n_processes
        total_work = sum(self.process_weights)
        if procs <= 0:
            return 0.0
        if procs < n:
            # Fewer CPUs than processes: fold the minimal configuration.
            minimal = total_work / step_time([1] * n, self.process_weights, self.inner)
            return minimal * (procs / n)
        cpus = self.distribution(int(procs))
        return total_work / step_time(cpus, self.process_weights, self.inner)


def imbalance_factor(weights: Sequence[float]) -> float:
    """Ratio of the heaviest process to the mean (1.0 = balanced)."""
    if not weights:
        raise ValueError("need at least one weight")
    mean = sum(weights) / len(weights)
    return max(weights) / mean
