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
from repro.metrics.trace import TraceRecorder


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


def offline_windows(
    trace: TraceRecorder, horizon: Optional[float] = None
) -> Dict[int, List[Tuple[float, float]]]:
    """Per-CPU [fail, repair) windows, censored at the horizon.

    Skipped injections (records whose ``detail`` starts with
    ``"skipped"``) never took effect and are excluded.  Duplicate
    fails before a repair are collapsed into one window.
    """
    end = trace.horizon if horizon is None else horizon
    down_since: Dict[int, float] = {}
    windows: Dict[int, List[Tuple[float, float]]] = {}
    for record in trace.faults:
        if record.detail.startswith("skipped"):
            continue
        if record.kind == "cpu_fail":
            down_since.setdefault(record.target, record.time)
        elif record.kind == "cpu_repair":
            start = down_since.pop(record.target, None)
            if start is not None:
                windows.setdefault(record.target, []).append((start, record.time))
    for cpu, start in down_since.items():
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
