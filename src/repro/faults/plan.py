"""Declarative fault plans.

A :class:`FaultPlan` is data, not behaviour: a tuple of timed fault
events plus the degradation parameters (staleness threshold, watchdog
timeout, retry budget) that govern how the system reacts.  The
:class:`~repro.faults.injector.FaultInjector` turns the plan into
simulator events; keeping the plan declarative makes scenarios
reproducible, diffable and trivially serialisable.

Determinism contract: a plan plus a master seed fully determines the
run.  Event times are fixed numbers; the only randomness (victim
selection for job crashes/hangs, report loss) comes from the named
``"faults"`` stream of the run's :class:`~repro.sim.rng.RandomStreams`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.qs.queuing import RetryConfig


@dataclass(frozen=True, slots=True)
class CpuFault:
    """One CPU goes OFFLINE at ``time``.

    ``repair_after`` is the repair delay in seconds; ``None`` means the
    failure is permanent for the rest of the run.
    """

    time: float
    cpu: int
    repair_after: Optional[float] = None

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"fault time must be >= 0, got {self.time}")
        if self.cpu < 0:
            raise ValueError(f"cpu id must be >= 0, got {self.cpu}")
        if self.repair_after is not None and self.repair_after <= 0:
            raise ValueError(
                f"repair_after must be positive, got {self.repair_after}"
            )


@dataclass(frozen=True, slots=True)
class NodeSlowdown:
    """A NUMA node drops to ``factor`` of full speed at ``time``.

    Models thermal throttling or a memory-controller brownout; jobs
    whose partition touches the node run slower but keep running.
    """

    time: float
    node: int
    factor: float
    restore_after: Optional[float] = None

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"fault time must be >= 0, got {self.time}")
        if self.node < 0:
            raise ValueError(f"node id must be >= 0, got {self.node}")
        if not 0.0 < self.factor <= 1.0:
            raise ValueError(f"factor must be in (0, 1], got {self.factor}")
        if self.restore_after is not None and self.restore_after <= 0:
            raise ValueError(
                f"restore_after must be positive, got {self.restore_after}"
            )


@dataclass(frozen=True, slots=True)
class JobCrash:
    """An application dies abruptly at ``time``.

    ``job_id=None`` picks a victim deterministically among the jobs
    running at fault time (from the seeded ``"faults"`` stream); the
    event is skipped when nothing is running.
    """

    time: float
    job_id: Optional[int] = None

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"fault time must be >= 0, got {self.time}")


@dataclass(frozen=True, slots=True)
class JobHang:
    """An application livelocks at ``time``: it keeps its processors
    but never progresses until the watchdog kills it."""

    time: float
    job_id: Optional[int] = None

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"fault time must be >= 0, got {self.time}")


@dataclass(frozen=True, slots=True)
class ReportLoss:
    """Stochastic SelfAnalyzer report loss/corruption.

    Each report delivered inside ``[start, end]`` (and matching
    ``job_id``, when set) is independently dropped with ``drop_prob``
    or has its measured speedup scaled by a uniform factor from
    ``[corrupt_low, corrupt_high]`` with ``corrupt_prob``.
    """

    drop_prob: float = 0.0
    corrupt_prob: float = 0.0
    corrupt_low: float = 0.5
    corrupt_high: float = 1.5
    start: float = 0.0
    end: float = math.inf
    job_id: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_prob <= 1.0 or not 0.0 <= self.corrupt_prob <= 1.0:
            raise ValueError("probabilities must be in [0, 1]")
        if self.drop_prob + self.corrupt_prob > 1.0:
            raise ValueError(
                f"drop_prob + corrupt_prob must be <= 1, got "
                f"{self.drop_prob} + {self.corrupt_prob}"
            )
        if not 0.0 < self.corrupt_low <= self.corrupt_high:
            raise ValueError(
                f"need 0 < corrupt_low <= corrupt_high, got "
                f"{self.corrupt_low}/{self.corrupt_high}"
            )
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"need 0 <= start <= end, got {self.start}/{self.end}")

    @property
    def active(self) -> bool:
        """Whether this loss model can affect any report at all."""
        return self.drop_prob > 0.0 or self.corrupt_prob > 0.0


#: Timed fault events a plan may carry.
FaultEvent = Union[CpuFault, NodeSlowdown, JobCrash, JobHang]


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """A complete fault scenario plus its degradation parameters.

    Attributes
    ----------
    events:
        Timed fault events, in any order (the simulator sorts).
    report_loss:
        Optional stochastic report loss model.
    stale_after:
        A report-driven policy falls back to an equal share for any
        malleable job whose last report is older than this.
    sweep_interval:
        Period of the injector's watchdog/staleness sweep.
    hang_timeout:
        A job whose runtime makes no observable progress for this long
        is killed by the watchdog.
    max_retries / backoff_base / backoff_cap:
        Retry budget and capped exponential backoff applied by the
        queuing system to killed jobs.
    """

    events: Tuple[FaultEvent, ...] = ()
    report_loss: Optional[ReportLoss] = None
    stale_after: float = 45.0
    sweep_interval: float = 10.0
    hang_timeout: float = 60.0
    max_retries: int = 3
    backoff_base: float = 5.0
    backoff_cap: float = 60.0

    def __post_init__(self) -> None:
        # Accept any iterable of events for convenience.
        if not isinstance(self.events, tuple):
            object.__setattr__(self, "events", tuple(self.events))
        if self.stale_after <= 0:
            raise ValueError(f"stale_after must be positive, got {self.stale_after}")
        if self.sweep_interval <= 0:
            raise ValueError(
                f"sweep_interval must be positive, got {self.sweep_interval}"
            )
        if self.hang_timeout <= 0:
            raise ValueError(f"hang_timeout must be positive, got {self.hang_timeout}")
        # Delegate retry validation to RetryConfig.
        self.retry_config()

    @property
    def empty(self) -> bool:
        """True when the plan injects nothing (the no-fault fast path)."""
        return not self.events and (
            self.report_loss is None or not self.report_loss.active
        )

    def retry_config(self) -> RetryConfig:
        """The queuing-system retry policy this plan prescribes."""
        return RetryConfig(
            max_retries=self.max_retries,
            backoff_base=self.backoff_base,
            backoff_cap=self.backoff_cap,
        )
