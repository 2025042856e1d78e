"""Fig. 3 — speedup curves of the four applications.

Regenerates the measured speedup of swim, bt.A, hydro2d and apsi as a
table over processor counts, plus an ASCII rendering of the curves.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.apps.catalog import APP_CATALOG
from repro.metrics.stats import format_table

#: Processor counts sampled for the table (the paper plots 1..64).
DEFAULT_PROCS = (1, 2, 4, 8, 12, 16, 20, 24, 30, 40, 50, 60)


def speedup_table(procs: Sequence[int] = DEFAULT_PROCS) -> Dict[str, List[float]]:
    """Speedup of each catalog application at the given counts."""
    return {
        name: [spec.speedup_model.speedup(p) for p in procs]
        for name, spec in APP_CATALOG.items()
    }


def efficiency_table(procs: Sequence[int] = DEFAULT_PROCS) -> Dict[str, List[float]]:
    """Efficiency of each catalog application at the given counts."""
    tables = speedup_table(procs)
    return {
        name: [
            1.0 if p <= 0 else speedup / p
            for p, speedup in zip(procs, speedups)
        ]
        for name, speedups in tables.items()
    }


def render(procs: Sequence[int] = DEFAULT_PROCS) -> str:
    """Fig. 3 as a table plus an ASCII chart."""
    speedups = speedup_table(procs)
    rows = []
    for p_index, p in enumerate(procs):
        row: List[object] = [p]
        for name in sorted(speedups):
            row.append(round(speedups[name][p_index], 1))
        rows.append(row)
    headers = ["procs"] + sorted(speedups)
    table = format_table(headers, rows, title="Fig. 3 — speedup curves")
    return table + "\n\n" + ascii_chart(procs)


def ascii_chart(
    procs: Sequence[int] = DEFAULT_PROCS,
    height: int = 16,
    max_speedup: Optional[float] = None,
) -> str:
    """Rough ASCII plot of the four curves (one symbol per app)."""
    speedups = speedup_table(procs)
    symbols = {name: name[0].upper() for name in speedups}
    top = max_speedup or max(max(vals) for vals in speedups.values())
    width = len(procs)
    grid = [[" "] * width for _ in range(height)]
    for name, values in sorted(speedups.items()):
        for x, value in enumerate(values):
            y = height - 1 - int(min(value / top, 1.0) * (height - 1))
            grid[y][x] = symbols[name]
    lines = [f"speedup (top = {top:.0f}x)"]
    for row in grid:
        lines.append("|" + " ".join(row))
    lines.append("+" + "--" * width)
    lines.append(" " + " ".join(f"{p:<2d}"[0] for p in procs) + "   procs ->")
    legend = "  ".join(f"{s}={n}" for n, s in sorted(symbols.items()))
    lines.append(f"legend: {legend}")
    return "\n".join(lines)
