"""Paraver-style trace analyses.

The paper uses the Paraver tool to measure "the total number of
process migrations, the duration of the bursts executed by each cpu,
and the number of bursts executed per cpu" (Table 2) and to render the
per-CPU execution views of Fig. 5.  These functions compute the same
quantities from a :class:`~repro.metrics.trace.TraceRecorder`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.metrics.stats import fold_sum
from repro.metrics.trace import TraceRecorder


@dataclass(frozen=True)
class BurstStatistics:
    """The three Table 2 metrics for one workload execution."""

    migrations: int
    avg_burst_time: float
    avg_bursts_per_cpu: float

    def as_row(self, label: str) -> Tuple[str, int, float, float]:
        """Row for :func:`repro.metrics.stats.format_table`."""
        return (label, self.migrations, self.avg_burst_time, self.avg_bursts_per_cpu)


def burst_statistics(trace: TraceRecorder) -> BurstStatistics:
    """Compute migrations and burst statistics from a trace.

    Combines exclusively recorded bursts (space-sharing execution)
    with the synthetic aggregates accumulated for time-shared (IRIX)
    execution.
    """
    total_bursts = float(len(trace.bursts))
    total_burst_time = fold_sum(b.duration for b in trace.bursts)
    active_cpus = {b.cpu for b in trace.bursts}
    for cpu, load in trace.synthetic.items():
        total_bursts += load.bursts
        total_burst_time += load.busy_time
        if load.bursts > 0:
            active_cpus.add(cpu)
    n_cpus = max(len(active_cpus), 1)
    avg_burst = total_burst_time / total_bursts if total_bursts else 0.0
    return BurstStatistics(
        migrations=trace.migrations,
        avg_burst_time=avg_burst,
        avg_bursts_per_cpu=total_bursts / n_cpus,
    )


def mpl_timeline(trace: TraceRecorder) -> List[Tuple[float, int]]:
    """(time, running jobs) steps — the data behind Fig. 8."""
    return [(s.time, s.running_jobs) for s in trace.mpl_samples]


def max_mpl(trace: TraceRecorder) -> int:
    """Highest multiprogramming level observed in the trace."""
    if not trace.mpl_samples:
        return 0
    return max(s.running_jobs for s in trace.mpl_samples)


def _app_symbols(trace: TraceRecorder) -> Dict[str, str]:
    """Assign one printable symbol per application name."""
    symbols = "SBHAXYZWVUTQ"
    names = sorted({b.app_name for b in trace.bursts})
    mapping: Dict[str, str] = {}
    for i, name in enumerate(names):
        # Prefer the app's initial when unique, else fall back.
        initial = name[:1].upper() or "?"
        if initial not in mapping.values():
            mapping[name] = initial
        else:
            mapping[name] = symbols[i % len(symbols)]
    return mapping


#: narrowest execution view :func:`execution_view` renders
MIN_VIEW_WIDTH = 10


def execution_view(
    trace: TraceRecorder,
    width: int = 100,
    cpus: Optional[Sequence[int]] = None,
    t_end: Optional[float] = None,
) -> str:
    """Render an ASCII version of the paper's Fig. 5 execution view.

    Each line is one CPU; each column is a time bin; the character is
    the application that occupied the CPU for most of the bin ('.' for
    idle, '#' for time-shared chaos where several applications ran).
    """
    if width < MIN_VIEW_WIDTH:
        raise ValueError(f"width must be >= {MIN_VIEW_WIDTH}, got {width}")
    horizon = t_end if t_end is not None else trace.horizon
    if horizon <= 0:
        return "(empty trace)"
    cpu_ids = list(cpus) if cpus is not None else list(range(trace.n_cpus))
    symbols = _app_symbols(trace)
    bin_width = horizon / width

    # occupancy[cpu][bin] -> {app_name: seconds}
    occupancy: Dict[int, List[Dict[str, float]]] = {
        cpu: [dict() for _ in range(width)] for cpu in cpu_ids
    }
    wanted = set(cpu_ids)
    for burst in trace.bursts:
        if burst.cpu not in wanted or burst.start >= horizon:
            continue
        first_bin = int(burst.start / bin_width)
        last_bin = min(int(min(burst.end, horizon) / bin_width), width - 1)
        for b in range(first_bin, last_bin + 1):
            bin_start = b * bin_width
            bin_end = bin_start + bin_width
            overlap = min(burst.end, bin_end) - max(burst.start, bin_start)
            if overlap <= 0:
                continue
            cell = occupancy[burst.cpu][b]
            cell[burst.app_name] = cell.get(burst.app_name, 0.0) + overlap

    shared_cpus = set(trace.synthetic)
    lines = [f"time: 0 .. {horizon:.1f}s   ({bin_width:.2f}s per column)"]
    for cpu in cpu_ids:
        chars = []
        for b in range(width):
            cell = occupancy[cpu][b]
            if not cell:
                # Time-shared CPUs show as '#' (several apps at once),
                # matching the "chaotic" look of the IRIX view.
                chars.append("#" if cpu in shared_cpus else ".")
                continue
            winner = max(cell.items(), key=lambda kv: kv[1])[0]
            chars.append(symbols.get(winner, "?"))
        lines.append(f"cpu{cpu:3d} |{''.join(chars)}|")
    legend = "  ".join(f"{sym}={name}" for name, sym in sorted(symbols.items()))
    if legend:
        lines.append(f"legend: {legend}  .=idle  #=time-shared")
    return "\n".join(lines)


def allocation_timeline(
    trace: TraceRecorder, job_id: int
) -> List[Tuple[float, int]]:
    """(time, procs) steps for one job, from the reallocation records."""
    steps = [
        (r.time, r.new_procs)
        for r in sorted(trace.reallocations, key=lambda r: r.time)
        if r.job_id == job_id
    ]
    return steps


def mean_allocation(trace: TraceRecorder, job_id: int) -> float:
    """Time-weighted mean partition size of one job.

    Computed from the job's recorded bursts: total CPU-seconds divided
    by the job's active wall-clock span.
    """
    bursts = trace.bursts_for_job(job_id)
    if not bursts:
        return 0.0
    start = min(b.start for b in bursts)
    end = max(b.end for b in bursts)
    if end <= start:
        return 0.0
    cpu_seconds = fold_sum(b.duration for b in bursts)
    return cpu_seconds / (end - start)
