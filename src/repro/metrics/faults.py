"""Fault and recovery statistics derived from the trace.

Turns the :class:`~repro.metrics.trace.FaultRecord` stream into the
dependability numbers a robustness evaluation reports: machine
availability (healthy CPU-seconds over total CPU-seconds), mean time
to repair, CPU-seconds of work lost to kills, and event counts for
every fault class.  Everything is computed from the trace alone, so
the analysis also works on replayed or stored runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.metrics.stats import fold_sum
from repro.metrics.trace import FaultRecord, TraceRecorder


@dataclass(frozen=True)
class FaultStats:
    """Dependability summary of one run.

    Attributes
    ----------
    availability:
        Healthy CPU-seconds / total CPU-seconds over the horizon;
        1.0 when no CPU ever failed.
    mttr:
        Mean time to repair across CPU failures.  A failure never
        repaired within the run is censored at the horizon (so
        permanent failures push MTTR towards the remaining run
        length instead of vanishing from the statistic).
    lost_work:
        CPU-seconds of execution discarded by job kills.
    cpu_failures / cpu_repairs:
        Counts of CPU outage and repair events (skipped injections
        excluded).
    crashes / hangs / kills / requeues / failed_jobs:
        Application-level fault and recovery counts.
    reports_dropped / reports_corrupted / fallbacks:
        Report-loss events and forced (out-of-policy) allocations.
    """

    availability: float = 1.0
    mttr: float = 0.0
    lost_work: float = 0.0
    cpu_failures: int = 0
    cpu_repairs: int = 0
    crashes: int = 0
    hangs: int = 0
    kills: int = 0
    requeues: int = 0
    failed_jobs: int = 0
    reports_dropped: int = 0
    reports_corrupted: int = 0
    fallbacks: int = 0

    @property
    def clean(self) -> bool:
        """True when the trace recorded no fault activity at all."""
        return (
            self.cpu_failures == 0 and self.crashes == 0 and self.hangs == 0
            and self.kills == 0 and self.reports_dropped == 0
            and self.reports_corrupted == 0 and self.fallbacks == 0
        )

    def summary_line(self) -> str:
        """One-line human-readable digest for CLI footers."""
        return (
            f"availability {self.availability * 100:.2f}%  "
            f"MTTR {self.mttr:.1f}s  lost work {self.lost_work:.0f} cpu-s  "
            f"kills {self.kills}  requeues {self.requeues}  "
            f"failed {self.failed_jobs}"
        )


class OfflineFold:
    """When each CPU is offline, folded one fault record at a time.

    The one statement of the rule: a ``cpu_fail`` takes its CPU offline
    and the next ``cpu_repair`` brings it back.  Skipped injections
    (records whose ``detail`` starts with ``"skipped"``) never took
    effect and are ignored; a second fail of a CPU that is down, or a
    repair of one that is up, changes nothing.  :func:`offline_windows`,
    :func:`repro.metrics.timeline.capacity_timeline` and
    :class:`repro.validate.TraceChecker` all read from it.
    """

    __slots__ = ("closed", "down_since")

    def __init__(self) -> None:
        #: per CPU: its [fail, repair) windows, in time order
        self.closed: Dict[int, List[Tuple[float, float]]] = {}
        #: per offline CPU: when it went down
        self.down_since: Dict[int, float] = {}

    def add(self, record: FaultRecord) -> int:
        """Fold one record, in time order; returns the change in healthy CPUs."""
        if record.detail.startswith("skipped"):
            return 0
        cpu = record.target
        if record.kind == "cpu_fail" and cpu not in self.down_since:
            self.down_since[cpu] = record.time
            return -1
        if record.kind == "cpu_repair" and cpu in self.down_since:
            window = (self.down_since.pop(cpu), record.time)
            self.closed.setdefault(cpu, []).append(window)
            return 1
        return 0


def offline_windows(
    trace: TraceRecorder, horizon: Optional[float] = None
) -> Dict[int, List[Tuple[float, float]]]:
    """Per-CPU [fail, repair) windows (see :class:`OfflineFold`), censored at the horizon."""
    end = trace.horizon if horizon is None else horizon
    fold = OfflineFold()
    for record in trace.faults:
        fold.add(record)
    windows = fold.closed
    for cpu, start in fold.down_since.items():
        windows.setdefault(cpu, []).append((start, max(end, start)))
    return windows


def fault_statistics(
    trace: TraceRecorder, horizon: Optional[float] = None
) -> FaultStats:
    """Compute the :class:`FaultStats` of one run from its trace."""
    end = trace.horizon if horizon is None else horizon
    windows = offline_windows(trace, end)
    downtime = fold_sum(t1 - t0 for spans in windows.values() for t0, t1 in spans)
    repairs = [t1 - t0 for spans in windows.values() for t0, t1 in spans]
    capacity = trace.n_cpus * end
    availability = 1.0 if capacity <= 0 else max(0.0, 1.0 - downtime / capacity)
    mttr = fold_sum(repairs) / len(repairs) if repairs else 0.0

    def count(kind: str) -> int:
        return sum(
            1 for f in trace.faults
            if f.kind == kind and not f.detail.startswith("skipped")
        )

    return FaultStats(
        availability=availability,
        mttr=mttr,
        lost_work=fold_sum(f.value for f in trace.faults if f.kind == "job_kill"),
        cpu_failures=count("cpu_fail"),
        cpu_repairs=count("cpu_repair"),
        crashes=count("job_crash"),
        hangs=count("job_hang"),
        kills=count("job_kill"),
        requeues=count("job_requeue"),
        failed_jobs=count("job_failed"),
        reports_dropped=count("report_drop"),
        reports_corrupted=count("report_corrupt"),
        fallbacks=count("fallback"),
    )
