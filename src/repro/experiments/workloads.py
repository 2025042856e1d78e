"""Workload comparison harness (Figs. 4, 6, 9, 10).

Each of those figures plots, for one workload, the average response
time (top) and average execution time (bottom) of each application
class, as a function of the system load (60 / 80 / 100%), for the four
scheduling policies.  :func:`run_comparison` regenerates that data,
averaging over several seeds, and :func:`render` prints it in the same
rows/series layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.experiments.common import (
    POLICY_NAMES,
    ExperimentConfig,
    average_results,
    run_workload_cells,
    workload_cell_spec,
)
from repro.metrics.stats import WorkloadResult, format_table
from repro.parallel.runner import SweepRunner

#: Loads evaluated in the paper.
DEFAULT_LOADS = (0.6, 0.8, 1.0)


@dataclass
class ComparisonResult:
    """Averaged response/execution times for one workload figure."""

    workload: str
    loads: Tuple[float, ...]
    policies: Tuple[str, ...]
    #: (policy, load) -> app -> {"response": s, "execution": s}
    data: Dict[Tuple[str, float], Dict[str, Dict[str, float]]] = field(default_factory=dict)
    #: raw per-seed results for deeper digging
    raw: Dict[Tuple[str, float], List[WorkloadResult]] = field(default_factory=dict)

    def apps(self) -> List[str]:
        """Application names present, sorted."""
        names = set()
        for per_app in self.data.values():
            names.update(per_app)
        return sorted(names)

    def series(self, policy: str, app: str, metric: str) -> List[float]:
        """One figure line: *metric* of *app* under *policy* across loads."""
        if metric not in ("response", "execution"):
            raise ValueError(f"metric must be response or execution, got {metric!r}")
        return [self.data[(policy, load)][app][metric] for load in self.loads]

    def ratio(self, app: str, metric: str, policy_a: str, policy_b: str,
              load: float) -> float:
        """``policy_a / policy_b`` time ratio for one cell (>1: a slower)."""
        a = self.data[(policy_a, load)][app][metric]
        b = self.data[(policy_b, load)][app][metric]
        if b <= 0:
            raise ZeroDivisionError(f"{policy_b} has zero {metric} for {app}")
        return a / b

    def spread(self, policy: str, app: str, metric: str, load: float) -> float:
        """Across-seed standard deviation of one cell (0 for one seed)."""
        from repro.metrics.statistics import std

        attr = ("mean_response_time" if metric == "response"
                else "mean_execution_time")
        samples = [
            getattr(result.summary(app), attr)
            for result in self.raw[(policy, load)]
            if app in result.by_app()
        ]
        return std(samples)


def run_comparison(
    workload: str,
    loads: Sequence[float] = DEFAULT_LOADS,
    policies: Sequence[str] = POLICY_NAMES,
    seeds: Sequence[int] = (0, 1),
    config: Optional[ExperimentConfig] = None,
    request_overrides: Optional[Mapping[str, int]] = None,
    runner: Optional[SweepRunner] = None,
) -> ComparisonResult:
    """Run one workload under every (policy, load), averaged over seeds.

    This is the largest sweep of the reproduction
    (``policies × loads × seeds`` independent executions); the cells
    run through *runner* (a serial ``SweepRunner()`` when ``None``),
    so a worker pool and cache give results identical to the serial
    path.
    """
    base = config or ExperimentConfig()
    comparison = ComparisonResult(
        workload=workload, loads=tuple(loads), policies=tuple(policies)
    )
    combos = [(policy, load) for policy in policies for load in loads]
    cells = [
        workload_cell_spec(policy, workload, load, base.with_seed(seed),
                           request_overrides=request_overrides)
        for policy, load in combos
        for seed in seeds
    ]
    flat = iter(run_workload_cells(cells, runner))
    for policy, load in combos:
        results = [next(flat) for _ in seeds]
        comparison.raw[(policy, load)] = results
        comparison.data[(policy, load)] = average_results(results)
    return comparison


def ascii_chart(
    comparison: ComparisonResult,
    app: str,
    metric: str = "response",
    height: int = 12,
    width_per_load: int = 16,
) -> str:
    """ASCII line chart of one panel: *metric* of *app* vs load.

    One symbol per policy (its initial), loads on the x-axis — a quick
    visual for the Figs. 4/6/9/10 shape without leaving the terminal.
    """
    if height < 4:
        raise ValueError(f"height must be >= 4, got {height}")
    symbols: Dict[str, str] = {}
    for policy in comparison.policies:
        # Unique one-character labels (first unused letter of the name).
        symbol = next(
            (ch.upper() for ch in policy if ch.isalnum()
             and ch.upper() not in symbols.values()),
            "?",
        )
        symbols[policy] = symbol
    series = {
        policy: comparison.series(policy, app, metric)
        for policy in comparison.policies
    }
    top = max(max(values) for values in series.values()) or 1.0
    width = width_per_load * len(comparison.loads)
    grid = [[" "] * width for _ in range(height)]
    for policy, values in series.items():
        for i, value in enumerate(values):
            x = i * width_per_load + width_per_load // 2
            y = height - 1 - int(min(value / top, 1.0) * (height - 1))
            cell = grid[y][x]
            grid[y][x] = "*" if cell not in (" ", symbols[policy]) else symbols[policy]
    lines = [f"{app} — {metric} time vs load (top = {top:.0f}s)"]
    for row in grid:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * width)
    axis = "".join(
        f"{int(load * 100)}%".center(width_per_load) for load in comparison.loads
    )
    lines.append(" " + axis)
    legend = "  ".join(f"{s}={p}" for p, s in symbols.items())
    lines.append(f"legend: {legend}  (*=overlap)")
    return "\n".join(lines)


def render(comparison: ComparisonResult, title: str = "",
           show_spread: bool = True) -> str:
    """Print the figure's two panels as tables (loads as columns).

    With more than one seed and ``show_spread``, every cell carries
    the across-seed standard deviation (``mean ±std``).
    """
    multi_seed = any(len(results) > 1 for results in comparison.raw.values())
    blocks = []
    for metric, label in (("response", "average response time (s)"),
                          ("execution", "average execution time (s)")):
        for app in comparison.apps():
            headers = ["policy"] + [f"load {int(load * 100)}%" for load in comparison.loads]
            rows = []
            for policy in comparison.policies:
                cells = []
                for load, value in zip(comparison.loads,
                                       comparison.series(policy, app, metric)):
                    if show_spread and multi_seed:
                        spread = comparison.spread(policy, app, metric, load)
                        cells.append(f"{value:.1f} ±{spread:.1f}")
                    else:
                        cells.append(round(value, 1))
                rows.append([policy] + cells)
            blocks.append(
                format_table(headers, rows, title=f"{title} {app} — {label}".strip())
            )
    return "\n\n".join(blocks)
