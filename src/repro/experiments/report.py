"""One-shot reproduction report.

``pdpa-sim report`` regenerates every table and figure of the paper
plus the ablations, and emits a single self-contained markdown report
with the measured numbers — the machine-generated companion to
EXPERIMENTS.md.  Running it takes a minute or two (a few hundred
simulated workload executions).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.analysis.race import RaceDetector
from repro.experiments import ablations, fig3, fig5_table2, fig7_fig8, tables, workloads
from repro.experiments.clock import ReportClock
from repro.experiments.common import ExperimentConfig

if TYPE_CHECKING:  # the sweep pool loads only when a sweep runs
    from repro.parallel.runner import SweepRunner


def _section(title: str, body: str) -> str:
    return f"## {title}\n\n```\n{body}\n```\n"


def generate_report(
    config: Optional[ExperimentConfig] = None,
    loads: Sequence[float] = (0.6, 0.8, 1.0),
    seeds: Sequence[int] = (0, 1),
    include_ablations: bool = True,
    progress: bool = False,
    runner: Optional[SweepRunner] = None,
    clock: Optional[ReportClock] = None,
    sanitizer: Optional[RaceDetector] = None,
) -> str:
    """Run the full reproduction and return a markdown report.

    With a :class:`~repro.parallel.runner.SweepRunner`, every sweep-shaped
    section (the four figure comparisons, the Fig. 7/8 runs, Tables 3
    and 4 and the noise ablation) fans out over its worker pool and
    result cache; the report text is identical either way.  Sections
    needing full in-process artefacts (Fig. 5 traces, custom-policy
    ablations) always run serially.

    *clock* is the injected elapsed-time source (the repository's one
    sanctioned wall-clock site); *sanitizer* attaches the event-race
    detector to every simulation the report drives itself (sweep cells
    are not observed, whether they run serially, in the pool or come
    from the cache).  The sanitizer only observes: the report text is
    byte-identical with or without it.
    """
    config = config or ExperimentConfig()
    clock = clock or ReportClock()
    clock.restart()
    parts: List[str] = [
        "# PDPA reproduction report",
        "",
        f"Configuration: {config.n_cpus} CPUs, seeds {list(seeds)}, "
        f"loads {[f'{int(l * 100)}%' for l in loads]}, "
        f"target_eff {config.pdpa.target_eff}, high_eff {config.pdpa.high_eff}, "
        f"master seed {config.seed}.",
        "",
    ]

    def note(msg: str) -> None:
        if progress:
            print(f"[report] {msg}", flush=True)

    note("Fig. 3 speedup curves")
    parts.append(_section("Fig. 3 — speedup curves", fig3.render()))

    note("Table 1 workload mixes")
    parts.append(_section("Table 1 — workload characteristics",
                          tables.render_table1()))

    for workload, figure in (("w1", "Fig. 4"), ("w2", "Fig. 6"),
                             ("w3", "Fig. 9"), ("w4", "Fig. 10")):
        note(f"{figure} ({workload} comparison)")
        comparison = workloads.run_comparison(
            workload, loads=loads, seeds=seeds, config=config, runner=runner
        )
        charts = "\n\n".join(
            workloads.ascii_chart(comparison, app)
            for app in comparison.apps()
        )
        parts.append(_section(
            f"{figure} — workload {workload[1]}",
            workloads.render(comparison, title=f"[{figure}]") + "\n\n" + charts,
        ))

    note("allocation statistics (§5 trace analyses)")
    from repro.experiments.common import run_workload
    from repro.metrics.timeline import allocation_stats_by_app, render_allocation_table

    alloc_blocks = []
    for policy in ("PDPA", "Equal_eff"):
        out = run_workload(policy, "w4", 0.8, config, sanitizer=sanitizer)
        stats = allocation_stats_by_app(out.trace, out.jobs)
        alloc_blocks.append(render_allocation_table(
            stats, title=f"{policy} on w4 at 80% load"
        ))
    parts.append(_section(
        "Allocation statistics — w4 at 80% (paper §5.4: PDPA 17/20/10/2, "
        "Equal_eff 26/28/27/2)",
        "\n\n".join(alloc_blocks),
    ))

    note("Fig. 5 / Table 2 (traced w1)")
    traced = fig5_table2.run(config=config, sanitizer=sanitizer)
    parts.append(_section("Table 2 — migrations and bursts",
                          fig5_table2.render_table2(traced)))
    parts.append(_section("Fig. 5 — execution views",
                          fig5_table2.render_fig5(traced, width=90)))

    note("Fig. 7 MPL sweep")
    sweep = fig7_fig8.run_mpl_sweep(config=config, runner=runner)
    parts.append(_section("Fig. 7 — multiprogramming-level sweep",
                          fig7_fig8.render_fig7(sweep)))

    note("Fig. 8 dynamic MPL")
    timeline = fig7_fig8.run_fig8(config=config, runner=runner)
    parts.append(_section("Fig. 8 — dynamic multiprogramming level",
                          fig7_fig8.render_fig8(timeline)))

    note("Tables 3 and 4 (untuned workloads)")
    parts.append(_section("Table 3 — w3 not tuned",
                          tables.render_table3(tables.run_table3(config, runner=runner))))
    parts.append(_section("Table 4 — w4 not tuned",
                          tables.render_table4(tables.run_table4(config, runner=runner))))

    if include_ablations:
        note("ablations")
        rows = ablations.run_coordination_ablation(config=config, sanitizer=sanitizer)
        parts.append(_section(
            "Ablation — coordination",
            ablations.render_rows(rows, "w3, load 100%"),
        ))
        allocs = ablations.run_relspeedup_ablation(config=config)
        parts.append(_section(
            "Ablation — RelativeSpeedup check",
            f"final swim allocation with check:    {allocs['with']:.0f}\n"
            f"final swim allocation without check: {allocs['without']:.0f}",
        ))
        batch_rows = ablations.run_batch_comparison(
            config=config, request_overrides={"apsi": 30}
        )
        parts.append(_section(
            "Ablation — batch scheduling (w3 untuned)",
            ablations.render_rows(batch_rows, "w3 untuned, load 100%"),
        ))
        noise = ablations.run_noise_sweep(config=config, runner=runner)
        parts.append(_section(
            "Ablation — measurement noise",
            ablations.render_noise_sweep(noise, "w2, load 100%"),
        ))

    elapsed = clock.elapsed()
    footer = f"---\nGenerated in {elapsed:.1f} s of wall-clock time."
    if runner is not None:
        totals = runner.total_stats
        footer += f"\nSweep harness: {totals.summary_line()}."
        for failure in totals.failures:
            footer += (
                f"\n  quarantined: {failure.key} "
                f"({failure.kind} after {failure.attempts} attempts: "
                f"{failure.detail})"
            )
    parts.append(footer)
    return "\n".join(parts)
