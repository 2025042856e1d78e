"""Tables 1, 3 and 4 of the paper.

* Table 1 — workload composition (share of load per application).
* Table 3 — workload 3 "not tuned": apsi requests 30 processors,
  load 60%; Equipartition vs PDPA with the speedup row and the
  multiprogramming-level column.
* Table 4 — workload 4 "not tuned": every application requests 30
  processors, load 60%; per-application execution/response times, the
  total workload execution time, and the PDPA-vs-Equip percentage row
  (negative when Equipartition wins, as in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.experiments.common import (
    ExperimentConfig,
    run_workload_cells,
    workload_cell_spec,
)
from repro.metrics.stats import WorkloadResult, format_table
from repro.parallel.runner import SweepRunner
from repro.qs.workload import TABLE1_MIXES


# ----------------------------------------------------------------------
# Table 1
# ----------------------------------------------------------------------
def table1_rows() -> List[List[object]]:
    """Rows of Table 1: load share (%) per application and workload."""
    apps = ["swim", "bt.A", "hydro2d", "apsi"]
    rows = []
    for name in sorted(TABLE1_MIXES):
        mix = TABLE1_MIXES[name]
        row: List[object] = [name]
        for app in apps:
            share = mix.shares.get(app)
            row.append(f"{int(share * 100)}%" if share else "-")
        rows.append(row)
    return rows


def render_table1() -> str:
    """Table 1 exactly as laid out in the paper."""
    return format_table(
        ["", "Swim", "bt.A", "hydro2d", "Apsi"],
        table1_rows(),
        title="Table 1 — workload characteristics",
    )


# ----------------------------------------------------------------------
# Tables 3 and 4 (the "not tuned" experiments)
# ----------------------------------------------------------------------
@dataclass
class UntunedResult:
    """Equip-vs-PDPA comparison for one untuned workload."""

    workload: str
    load: float
    equip: WorkloadResult
    pdpa: WorkloadResult

    def speedup_percent(self, app: str, metric: str) -> float:
        """PDPA improvement over Equipartition, in percent.

        Matches the paper's convention: ``(equip / pdpa - 1) * 100``;
        negative when Equipartition is better.
        """
        attr = "mean_response_time" if metric == "response" else "mean_execution_time"
        e = getattr(self.equip.summary(app), attr)
        p = getattr(self.pdpa.summary(app), attr)
        if p <= 0:
            raise ZeroDivisionError(f"PDPA has zero {metric} for {app}")
        return (e / p - 1.0) * 100.0

    def total_speedup_percent(self) -> float:
        """PDPA improvement of the total workload execution time."""
        p = self.pdpa.total_execution_time
        if p <= 0:
            raise ZeroDivisionError("PDPA total execution time is zero")
        return (self.equip.total_execution_time / p - 1.0) * 100.0


def run_untuned(
    workload: str,
    overrides: Dict[str, int],
    load: float = 0.6,
    config: Optional[ExperimentConfig] = None,
    runner: Optional[SweepRunner] = None,
) -> UntunedResult:
    """Run one untuned workload under Equipartition and PDPA.

    Both policies are cells run through *runner* (a serial
    ``SweepRunner()`` when ``None``).
    """
    config = config or ExperimentConfig()
    cells = [
        workload_cell_spec(policy, workload, load, config,
                           request_overrides=overrides)
        for policy in ("Equip", "PDPA")
    ]
    equip, pdpa = run_workload_cells(cells, runner)
    return UntunedResult(workload=workload, load=load, equip=equip, pdpa=pdpa)


def run_table3(
    config: Optional[ExperimentConfig] = None,
    runner: Optional[SweepRunner] = None,
) -> UntunedResult:
    """Table 3: w3 with apsi requesting 30 processors, load 60%."""
    return run_untuned("w3", {"apsi": 30}, load=0.6, config=config, runner=runner)


def run_table4(
    config: Optional[ExperimentConfig] = None,
    runner: Optional[SweepRunner] = None,
) -> UntunedResult:
    """Table 4: w4 with every application requesting 30, load 60%."""
    overrides = {"swim": 30, "bt.A": 30, "hydro2d": 30, "apsi": 30}
    return run_untuned("w4", overrides, load=0.6, config=config, runner=runner)


def render_table3(result: UntunedResult) -> str:
    """Table 3 with the paper's columns (resp/exec per app, total, ML)."""
    rows: List[List[object]] = []
    for label, res in (("Equip", result.equip), ("PDPA", result.pdpa)):
        bt = res.summary("bt.A")
        apsi = res.summary("apsi")
        rows.append([
            label,
            round(bt.mean_response_time, 0),
            round(bt.mean_execution_time, 0),
            round(apsi.mean_response_time, 0),
            round(apsi.mean_execution_time, 0),
            round(res.total_execution_time, 0),
            res.max_mpl,
        ])
    rows.append([
        "Speedup",
        f"{result.speedup_percent('bt.A', 'response'):.0f}%",
        f"{result.speedup_percent('bt.A', 'execution'):.0f}%",
        f"{result.speedup_percent('apsi', 'response'):.0f}%",
        f"{result.speedup_percent('apsi', 'execution'):.0f}%",
        f"{result.total_speedup_percent():.0f}%",
        "",
    ])
    return format_table(
        ["", "bt resp", "bt exec", "apsi resp", "apsi exec", "workload exec", "ML"],
        rows,
        title="Table 3 — w3, apsi requesting 30 (not tuned), load=60%",
    )


def render_table4(result: UntunedResult) -> str:
    """Table 4 with the paper's columns (exec/resp per app + total)."""
    apps = ["swim", "bt.A", "hydro2d", "apsi"]
    headers = [""]
    for app in apps:
        headers.extend([f"{app} exec", f"{app} resp"])
    headers.append("total exec")
    rows: List[List[object]] = []
    for label, res in (("Equip", result.equip), ("PDPA", result.pdpa)):
        row: List[object] = [label]
        for app in apps:
            summary = res.summary(app)
            row.append(round(summary.mean_execution_time, 0))
            row.append(round(summary.mean_response_time, 0))
        row.append(round(res.total_execution_time, 0))
        rows.append(row)
    pct_row: List[object] = ["%"]
    for app in apps:
        pct_row.append(f"{result.speedup_percent(app, 'execution'):.0f}%")
        pct_row.append(f"{result.speedup_percent(app, 'response'):.0f}%")
    pct_row.append(f"{result.total_speedup_percent():.0f}%")
    rows.append(pct_row)
    return format_table(
        headers, rows,
        title="Table 4 — w4 not tuned (all requests = 30), load=60%",
    )
