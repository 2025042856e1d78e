"""Memory-locality model: the cost of unstable partitions.

The paper's §5.1.1 argues that scheduling stability "is very important
to help the rest of mechanisms of the operating system (such as the
memory migration) to do their work efficiently", and its conclusions
repeat that "a high number of reallocations degrades the application
and the system performance".  On the CC-NUMA Origin 2000 the
mechanism is physical: a job's pages live on the nodes of the CPUs it
ran on; when the partition changes, remote accesses dominate until the
automatic page migration (``_DSM_MIGRATION=ALL_ON`` in the paper's
IRIX configuration) moves the working set over.

:class:`LocalityModel` captures exactly that:

* each running job has a **locality** value in [0, 1] (1 = fully
  local working set);
* a reallocation drops locality to the fraction of the new partition
  that was already owned (keeping CPUs keeps pages local);
* locality then recovers exponentially toward 1 with the page-
  migration time constant;
* a job's execution rate is scaled by
  ``1 - max_slowdown * (1 - locality)``.

Stable policies (PDPA, Equipartition) barely notice; a policy that
reshuffles the machine on every noisy report (Equal_efficiency) pays a
sustained locality tax — the quantitative form of the paper's
critique.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True, slots=True)
class LocalityConfig:
    """Parameters of the locality model.

    Attributes
    ----------
    max_slowdown:
        Execution-rate loss at locality 0 (e.g. 0.15 = 15% slower
        with a fully remote working set).
    migration_tau:
        Time constant (seconds) of the exponential locality recovery
        driven by automatic page migration.
    floor:
        Lower bound on locality right after a reallocation; even a
        fully displaced partition finds some of its data in caches or
        interleaved pages.
    """

    max_slowdown: float = 0.15
    migration_tau: float = 5.0
    floor: float = 0.2

    def __post_init__(self) -> None:
        if not 0.0 <= self.max_slowdown < 1.0:
            raise ValueError(f"max_slowdown must be in [0, 1), got {self.max_slowdown}")
        if self.migration_tau <= 0:
            raise ValueError(f"migration_tau must be positive, got {self.migration_tau}")
        if not 0.0 <= self.floor <= 1.0:
            raise ValueError(f"floor must be in [0, 1], got {self.floor}")


@dataclass(slots=True)
class _JobLocality:
    """Locality trajectory of one job: value at a reference time."""

    value: float
    since: float


class LocalityModel:
    """Tracks per-job memory locality and the resulting speed factor."""

    __slots__ = ("config", "_jobs")

    def __init__(self, config: LocalityConfig = LocalityConfig()) -> None:
        self.config = config
        self._jobs: Dict[int, _JobLocality] = {}

    # ------------------------------------------------------------------
    # lifecycle hooks (called by the resource manager)
    # ------------------------------------------------------------------
    def on_job_start(self, job_id: int, now: float) -> None:
        """A new job starts with a cold but compact working set."""
        if job_id in self._jobs:
            raise ValueError(f"job {job_id} already tracked")
        self._jobs[job_id] = _JobLocality(value=1.0, since=now)

    def on_job_finish(self, job_id: int) -> None:
        """Forget a completed job (unknown ids are tolerated)."""
        self._jobs.pop(job_id, None)

    def on_reallocation(self, job_id: int, kept: int, size: int, now: float) -> None:
        """Account a partition change to *size* CPUs, *kept* of them held before.

        Locality drops to the retained fraction ``kept / size`` of the
        *new* partition (CPUs kept hold local pages; newly acquired
        ones do not), scaled by the current locality.  The caller
        passes counts, not CPU sets: a shrink keeps all *size* CPUs it
        is left with, a grow keeps every CPU it held, and a partition
        that lost one CPU to a failure keeps the ones that survived.
        """
        if job_id not in self._jobs:
            raise KeyError(f"job {job_id} is not tracked")
        if not 0 <= kept <= size or size < 1:
            raise ValueError(f"job {job_id}: cannot keep {kept} of {size} CPUs")
        retained = kept / size
        current = self.locality(job_id, now)
        new_value = max(self.config.floor, current * retained)
        self._jobs[job_id] = _JobLocality(value=new_value, since=now)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def locality(self, job_id: int, now: float) -> float:
        """Current locality of a job, with recovery applied."""
        state = self._jobs.get(job_id)
        if state is None or state.value == 1.0:
            return 1.0  # 1.0 - 0.0 * exp(...) is exactly 1.0
        elapsed = max(0.0, now - state.since)
        gap = 1.0 - state.value
        return 1.0 - gap * math.exp(-elapsed / self.config.migration_tau)

    def speed_factor(self, job_id: int, now: float) -> float:
        """Execution-rate multiplier in (1 - max_slowdown, 1].

        :meth:`locality` inline, the same float operations in the same
        order: the runtime asks this once per iteration.
        """
        state = self._jobs.get(job_id)
        if state is None or state.value == 1.0:
            return 1.0  # 1.0 - max_slowdown * 0.0 is exactly 1.0
        elapsed = now - state.since
        if not elapsed > 0.0:
            elapsed = 0.0  # max(0.0, elapsed)
        locality = 1.0 - (1.0 - state.value) * math.exp(
            -elapsed / self.config.migration_tau
        )
        return 1.0 - self.config.max_slowdown * (1.0 - locality)

    @property
    def tracked_jobs(self) -> int:
        """Number of jobs currently tracked."""
        return len(self._jobs)
