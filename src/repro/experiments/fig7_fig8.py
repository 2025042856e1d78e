"""Fig. 7 (multiprogramming-level sweep) and Fig. 8 (dynamic MPL).

Fig. 7 executes workload 2 with the multiprogramming level set to 2, 3
and 4 under Equipartition and PDPA: "PDPA is more robust than
Equipartition to the multiprogramming level decided by the system
administrator: PDPA dynamically detects the optimal value for any
moment."

Fig. 8 plots the multiprogramming level PDPA actually decided over the
execution of workload 2 at 100% load.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.common import (
    ExperimentConfig,
    run_cells,
    run_workload_cells,
    workload_cell_spec,
)
from repro.metrics.stats import WorkloadResult, format_table
from repro.parallel.runner import SweepCell, SweepRunner

#: Multiprogramming levels swept in Fig. 7.
DEFAULT_MPLS = (2, 3, 4)


@dataclass
class MplSweepResult:
    """Fig. 7 data: per (policy, mpl, load) workload results."""

    workload: str
    loads: Tuple[float, ...]
    mpls: Tuple[int, ...]
    #: (policy, mpl, load) -> result
    results: Dict[Tuple[str, int, float], WorkloadResult] = field(default_factory=dict)

    def cell(self, policy: str, mpl: int, load: float) -> WorkloadResult:
        """One workload execution's result."""
        return self.results[(policy, mpl, load)]


def run_mpl_sweep(
    workload: str = "w2",
    loads: Sequence[float] = (0.8, 1.0),
    mpls: Sequence[int] = DEFAULT_MPLS,
    policies: Sequence[str] = ("Equip", "PDPA"),
    config: Optional[ExperimentConfig] = None,
    runner: Optional[SweepRunner] = None,
) -> MplSweepResult:
    """Execute the Fig. 7 sweep.

    The cells run through *runner* (a serial ``SweepRunner()`` when
    ``None``); a worker pool and cache give identical results.
    """
    base = config or ExperimentConfig()
    sweep = MplSweepResult(workload=workload, loads=tuple(loads), mpls=tuple(mpls))
    combos = [
        (policy, mpl, load)
        for policy in policies for mpl in mpls for load in loads
    ]
    cells = [
        workload_cell_spec(policy, workload, load, base.with_mpl(mpl))
        for policy, mpl, load in combos
    ]
    sweep.results.update(zip(combos, run_workload_cells(cells, runner)))
    return sweep


def render_fig7(sweep: MplSweepResult) -> str:
    """Fig. 7 as tables: per-app response/exec for each (policy, ml)."""
    apps = sorted(
        {app for result in sweep.results.values() for app in result.by_app()}
    )
    blocks = []
    for load in sweep.loads:
        headers = ["policy", "ml"] + [
            f"{app} {metric}" for app in apps for metric in ("resp", "exec")
        ] + ["workload total"]
        rows: List[List[object]] = []
        for (policy, mpl, cell_load), result in sorted(sweep.results.items()):
            if cell_load != load:
                continue
            row: List[object] = [policy, mpl]
            summaries = result.by_app()
            for app in apps:
                if app in summaries:
                    row.append(round(summaries[app].mean_response_time, 1))
                    row.append(round(summaries[app].mean_execution_time, 1))
                else:
                    row.extend(["-", "-"])
            row.append(round(result.total_execution_time, 1))
            rows.append(row)
        blocks.append(
            format_table(
                headers, rows,
                title=f"Fig. 7 — {sweep.workload}, load {int(load * 100)}%",
            )
        )
    return "\n\n".join(blocks)


def run_fig8(
    workload: str = "w2",
    load: float = 1.0,
    config: Optional[ExperimentConfig] = None,
    runner: Optional[SweepRunner] = None,
) -> List[Tuple[float, int]]:
    """The (time, MPL) series PDPA decided — the data behind Fig. 8."""
    cfg = config or ExperimentConfig()
    cell = SweepCell(
        key=f"fig8/{workload}/load={load:g}/seed={cfg.seed}",
        fn="repro.parallel.cells:mpl_timeline_cell",
        params={"workload": workload, "load": load, "config": cfg},
    )
    (record,) = run_cells([cell], runner)
    return [(float(t), int(level)) for t, level in record["timeline"]]


def render_fig8(timeline: Sequence[Tuple[float, int]], width: int = 80) -> str:
    """ASCII step plot of the multiprogramming level over time."""
    if not timeline:
        return "(no samples)"
    t_end = timeline[-1][0] or 1.0
    peak = max(level for _, level in timeline)
    # Resample onto fixed columns (last sample wins per column).
    columns = [0] * width
    for time, level in timeline:
        col = min(int(time / t_end * (width - 1)), width - 1)
        columns[col] = level
    # Forward-fill gaps so the step plot is continuous.
    for i in range(1, width):
        if columns[i] == 0:
            columns[i] = columns[i - 1]
    lines = [f"Fig. 8 — multiprogramming level decided by PDPA (peak {peak})"]
    for level in range(peak, 0, -1):
        row = "".join("#" if c >= level else " " for c in columns)
        lines.append(f"{level:3d} |{row}")
    lines.append("    +" + "-" * width)
    lines.append(f"     0 .. {t_end:.0f}s")
    return "\n".join(lines)
