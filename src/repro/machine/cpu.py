"""Per-CPU state and burst bookkeeping.

Each CPU tracks which job currently owns it and since when.  When
ownership changes, the finished interval is emitted as a
:class:`~repro.metrics.trace.Burst` — the unit from which the paper's
Table 2 statistics (average burst duration, bursts per CPU) are
computed.

Since the columnar hot-core refactor the state itself lives in
:class:`repro.sim.columns.CpuColumns` — packed per-CPU columns shared
by every CPU of one machine — and :class:`CpuState` is a *view*: a
(columns, position) handle exposing the same scalar API as before.
The machine's hot loops bypass the views entirely and call the batched
column kernels; the views serve the cold paths (fault handling,
queries, tests) and external readers like the fuzz oracle.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

from repro.metrics.trace import Burst, TraceRecorder
from repro.sim.columns import (
    HEALTH_DEGRADED,
    HEALTH_OFFLINE,
    HEALTH_ONLINE,
    CpuColumns,
)


class CpuHealth(enum.Enum):
    """Health of one CPU, as seen by the allocator.

    * ``ONLINE`` — fully functional (the only state the no-fault path
      ever sees);
    * ``DEGRADED`` — functional but slow, e.g. its NUMA node's router
      or memory is throttled; still allocatable;
    * ``OFFLINE`` — failed; never allocatable until repaired.
    """

    ONLINE = "online"
    DEGRADED = "degraded"
    OFFLINE = "offline"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: CpuHealth <-> packed int8 column code.
_HEALTH_CODE = {
    CpuHealth.ONLINE: HEALTH_ONLINE,
    CpuHealth.DEGRADED: HEALTH_DEGRADED,
    CpuHealth.OFFLINE: HEALTH_OFFLINE,
}
_HEALTH_FROM_CODE = {code: health for health, code in _HEALTH_CODE.items()}


def burst_emitter(
    trace: Optional[TraceRecorder],
) -> Optional[Callable[[int, int, str, float, float], None]]:
    """Adapt a trace recorder to the column kernels' emit callback."""
    if trace is None:
        return None

    def emit(cpu: int, job_id: int, app_name: str, start: float, end: float) -> None:
        trace.record_burst(Burst(cpu, job_id, app_name, start, end))

    return emit


class CpuState:
    """Ownership view of one CPU inside a :class:`CpuColumns` store.

    Attributes
    ----------
    cpu_id:
        Index of this CPU.
    owner:
        Job id currently running here, or ``None`` when idle.
    health:
        Availability of the CPU; see :class:`CpuHealth`.

    A standalone ``CpuState(i)`` owns a private single-slot column
    store (unit tests construct CPUs in isolation); machine-owned
    views share the machine's store.
    """

    __slots__ = ("cpu_id", "_cols", "_pos")

    def __init__(
        self,
        cpu_id: int,
        _cols: Optional[CpuColumns] = None,
        _pos: int = 0,
    ) -> None:
        self.cpu_id = cpu_id
        if _cols is None:
            _cols = CpuColumns(1)
            _pos = 0
        self._cols = _cols
        self._pos = _pos

    # ------------------------------------------------------------------
    # column-backed attributes (same API as the pre-columnar class)
    # ------------------------------------------------------------------
    @property
    def owner(self) -> Optional[int]:
        """Job id currently running here, or ``None`` when idle."""
        return self._cols.owner_of(self._pos)

    @owner.setter
    def owner(self, value: Optional[int]) -> None:
        # pre-columnar CpuState exposed owner as a plain attribute;
        # the fuzz oracle's corruption tests poke it directly
        self._cols.owner[self._pos] = -1 if value is None else value

    @property
    def since(self) -> float:
        """Time the current burst (busy or idle) started."""
        return float(self._cols.since[self._pos])

    @property
    def busy_time(self) -> float:
        """Accumulated busy seconds."""
        return float(self._cols.busy[self._pos])

    @property
    def switches(self) -> int:
        """Ownership changes seen by this CPU."""
        return int(self._cols.switches[self._pos])

    @property
    def health(self) -> CpuHealth:
        """Availability of the CPU; see :class:`CpuHealth`."""
        return _HEALTH_FROM_CODE[int(self._cols.health[self._pos])]

    @health.setter
    def health(self, value: CpuHealth) -> None:
        self._cols.health[self._pos] = _HEALTH_CODE[value]

    @property
    def idle(self) -> bool:
        """Whether no job owns this CPU."""
        return self._cols.owner[self._pos] == -1

    @property
    def allocatable(self) -> bool:
        """Whether the allocator may place a job here (not OFFLINE)."""
        return self._cols.health[self._pos] != HEALTH_OFFLINE

    def assign(
        self,
        job_id: Optional[int],
        app_name: str,
        now: float,
        trace: Optional[TraceRecorder] = None,
    ) -> Optional[int]:
        """Switch ownership to *job_id* (``None`` = idle) at time *now*.

        Closes the running burst, emits it to *trace*, and returns the
        previous owner's job id (or ``None``) so the caller can decide
        whether the switch counts as a migration.
        """
        return self._cols.assign_one(
            self._pos, job_id, app_name, now, burst_emitter(trace)
        )

    def flush(self, now: float, trace: Optional[TraceRecorder] = None) -> None:
        """Close the running burst without changing ownership.

        Used at the end of a simulation so in-progress bursts appear in
        the trace.
        """
        self._cols.flush_one(self._pos, now, burst_emitter(trace))
