"""Ablation studies of PDPA's design choices (DESIGN.md §5).

These are not figures of the paper; they isolate the mechanisms the
paper credits for PDPA's behaviour:

* **coordination** — PDPA's allocation policy with a *fixed*
  multiprogramming level, to separate the §4.1 search from the §4.3
  coordination (the paper argues the two benefits are "orthogonal and
  complementary");
* **RelativeSpeedup** — disable the §4.2.2 scalability check, so
  superlinear applications keep growing as long as efficiency stays
  above ``high_eff``;
* **target efficiency sweep** — PDPA's behaviour as ``target_eff``
  varies (the administrator's knob);
* **noise sensitivity** — Equal_efficiency vs PDPA reallocation counts
  as the measurement noise grows (the stability argument of §5.1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Type

from repro.analysis.race import RaceDetector
from repro.apps.application import AppClass, ApplicationSpec
from repro.apps.speedup import AmdahlSpeedup
from repro.core.params import PDPAParams
from repro.core.pdpa import PDPA
from repro.core.states import AppState
from repro.qs.job import Job
from repro.experiments.common import (
    ExperimentConfig,
    build_session,
    run_jobs,
    run_workload,
    run_workload_cells,
    workload_cell_spec,
    workload_jobs,
)
from repro.metrics.stats import WorkloadResult, format_table
from repro.qs.backfill import BackfillQS
from repro.qs.queuing import NanosQS
from repro.rm.base import SystemView
from repro.rm.batch import BatchFCFS

if TYPE_CHECKING:  # the sweep pool loads only when a sweep runs
    from repro.parallel.runner import SweepCell, SweepRunner


class FixedMplPDPA(PDPA):
    """PDPA's allocation policy under a traditional fixed MPL.

    Isolates the processor-allocation half: admission reverts to the
    ``running < mpl`` rule used by the other policies.
    """

    name = "PDPA(fixed-mpl)"

    __slots__ = ("fixed_mpl",)

    def __init__(self, params: Optional[PDPAParams] = None, mpl: int = 4) -> None:
        super().__init__(params)
        self.fixed_mpl = mpl

    def wants_admission(self, system: SystemView, queued_jobs: int) -> bool:
        if queued_jobs <= 0:
            return False
        if self.fixed_mpl is not None and system.running_jobs >= self.fixed_mpl:
            return False
        return system.running_jobs < system.total_cpus


class NoRelativeSpeedupPDPA(PDPA):
    """PDPA without the §4.2.2 RelativeSpeedup check.

    INC continues whenever efficiency stays above ``high_eff`` and the
    speedup still improves — the configuration the paper's check was
    added to fix for superlinear codes like swim.
    """

    name = "PDPA(no-relspeedup)"

    __slots__ = ()

    def on_report(self, job, report, system):  # type: ignore[override]
        state = self.job_states.get(job.job_id)
        if state is not None and state.state is AppState.INC:
            # Lower the remembered speedup so the RelativeSpeedup
            # condition is always comfortably satisfied; the remaining
            # INC conditions (efficiency, monotonic speedup) stand.
            if state.prev_speedup is not None and state.prev_allocation:
                forged = report.speedup / (
                    (report.procs / state.prev_allocation) * self.params.high_eff * 1.01
                )
                state.prev_speedup = min(state.prev_speedup, max(forged, 1e-6))
        return super().on_report(job, report, system)


@dataclass
class AblationRow:
    """One ablation configuration's headline numbers."""

    label: str
    mean_response: float
    total_execution: float
    reallocations: int
    max_mpl: int


def _row(label: str, result: WorkloadResult) -> AblationRow:
    return AblationRow(
        label=label,
        mean_response=result.mean_response_time,
        total_execution=result.total_execution_time,
        reallocations=result.reallocations,
        max_mpl=result.max_mpl,
    )


def _tagged(cell: SweepCell, tag: str) -> SweepCell:
    """*cell* with the value its sweep varies appended to its label."""
    return replace(cell, key=f"{cell.key}/{tag}")


def run_coordination_ablation(
    workload: str = "w3",
    load: float = 1.0,
    config: Optional[ExperimentConfig] = None,
    sanitizer: Optional[RaceDetector] = None,
) -> List[AblationRow]:
    """PDPA vs PDPA-with-fixed-MPL vs Equipartition.

    Shows how much of PDPA's win comes from coordination (dynamic MPL)
    versus the allocation search alone.
    """
    config = config or ExperimentConfig()
    fixed = run_jobs(
        FixedMplPDPA(config.pdpa, mpl=config.mpl),
        workload_jobs(workload, load, config),
        config,
        load,
        sanitizer=sanitizer,
    )
    return [
        _row("PDPA (full)",
             run_workload("PDPA", workload, load, config,
                          sanitizer=sanitizer).result),
        _row("PDPA (fixed mpl)", fixed.result),
        _row("Equip",
             run_workload("Equip", workload, load, config,
                          sanitizer=sanitizer).result),
    ]


def run_relspeedup_ablation(
    load: float = 1.0,
    config: Optional[ExperimentConfig] = None,
) -> Dict[str, float]:
    """Final swim allocation with and without the RelativeSpeedup check.

    A controlled scenario built so the INC search actually runs: a
    rigid blocker occupies most of the machine while an (untuned,
    request=60) swim arrives and receives a small initial allocation;
    when the blocker finishes, swim's superlinear efficiency drives the
    INC search upward.  With the §4.2.2 check, growth stops as soon as
    the speedup progression flattens (~20 CPUs on swim's curve);
    without it, swim keeps absorbing processors until its efficiency
    finally drops below ``high_eff``.
    """
    from repro.apps.catalog import SWIM, scaled_spec
    from repro.metrics.paraver import allocation_timeline

    config = config or ExperimentConfig()
    # Four rigid blockers fill the base multiprogramming level and most
    # of the machine (4 x 13 = 52 CPUs) for ~40 seconds each.
    blocker_spec = ApplicationSpec(
        name="blocker",
        app_class=AppClass.HIGH,
        speedup_model=AmdahlSpeedup(0.0, name="blocker"),
        iterations=40,
        t_iter_seq=13.0,
        t_startup=0.0,
        t_teardown=0.0,
        default_request=13,
        malleable=False,
    )
    # A long, untuned swim arrives fifth: admitted beyond the base
    # level with initial allocation min(request, free) = 8, so the INC
    # search has to climb the superlinear curve step by step.
    swim_spec = scaled_spec(SWIM, 4.0).with_request(60)
    results: Dict[str, float] = {}
    for label, policy in (
        ("with", PDPA(config.pdpa)),
        ("without", NoRelativeSpeedupPDPA(config.pdpa)),
    ):
        jobs = [
            Job(i, blocker_spec, submit_time=0.0) for i in range(1, 5)
        ] + [Job(5, swim_spec, submit_time=2.0)]
        out = run_jobs(policy, jobs, config, load)
        steps = allocation_timeline(out.trace, 5)
        results[label] = float(steps[-1][1])
    return results


def run_batch_comparison(
    workload: str = "w3",
    load: float = 1.0,
    config: Optional[ExperimentConfig] = None,
    request_overrides: Optional[Dict[str, int]] = None,
) -> List[AblationRow]:
    """PDPA vs batch FCFS vs batch+EASY backfilling.

    On *tuned* workloads exact-fit batch scheduling (especially with
    backfilling) is a strong traditional opponent: with honest 2-CPU
    apsi requests it packs the machine as densely as PDPA does.  The
    comparison that matters is the *untuned* one
    (``request_overrides={"apsi": 30}``): batch must trust the
    request and runs every apsi on 30 processors at speedup ~1.35,
    while PDPA measures, shrinks them to their 2-CPU frontier, and
    raises the multiprogramming level — backfilling cannot recover
    that, because it never shrinks a running job.

    Every row runs on the stack :func:`build_session` assembles, so a
    fault plan in *config* strikes the batch rows as it strikes PDPA.
    """
    config = config or ExperimentConfig()

    def run_batch(qs_class: Type[NanosQS]) -> WorkloadResult:
        jobs = workload_jobs(workload, load, config, request_overrides)
        session = build_session(BatchFCFS(), jobs, config, load, qs_class=qs_class)
        session.run()
        return session.finish().result

    return [
        _row("PDPA", run_workload("PDPA", workload, load, config,
                                  request_overrides=request_overrides).result),
        _row("Batch + EASY backfill", run_batch(BackfillQS)),
        _row("Batch FCFS", run_batch(NanosQS)),
    ]


def run_target_sweep(
    targets: Sequence[float] = (0.5, 0.6, 0.7, 0.8, 0.9),
    workload: str = "w2",
    load: float = 1.0,
    config: Optional[ExperimentConfig] = None,
    runner: Optional[SweepRunner] = None,
) -> List[Tuple[float, AblationRow]]:
    """PDPA headline numbers across target efficiencies."""
    config = config or ExperimentConfig()
    cfgs = []
    for target in targets:
        params = replace(
            config.pdpa, target_eff=target, high_eff=max(config.pdpa.high_eff, target)
        )
        cfgs.append(replace(config, pdpa=params))
    cells = [
        _tagged(workload_cell_spec("PDPA", workload, load, cfg),
                f"target_eff={cfg.pdpa.target_eff:g}")
        for cfg in cfgs
    ]
    results = run_workload_cells(cells, runner)
    return [
        (target, _row(f"target={target:.1f}", result))
        for target, result in zip(targets, results)
    ]


def run_step_sweep(
    steps: Sequence[int] = (1, 2, 4, 8),
    workload: str = "w3",
    load: float = 1.0,
    config: Optional[ExperimentConfig] = None,
    runner: Optional[SweepRunner] = None,
) -> List[Tuple[int, AblationRow, float]]:
    """PDPA behaviour across search step sizes.

    ``step`` is the granularity of the §4.2 search: small steps
    converge precisely but need many transitions (the untuned apsi
    walks 30 -> 2 in 28/step moves); large steps converge fast but
    overshoot.  Returns (step, headline row, mean apsi execution time)
    on the untuned w3.
    """
    config = config or ExperimentConfig()
    cells = [
        _tagged(workload_cell_spec(
            "PDPA", workload, load,
            replace(config, pdpa=replace(config.pdpa, step=step)),
            request_overrides={"apsi": 30},
        ), f"step={step}")
        for step in steps
    ]
    results = run_workload_cells(cells, runner)
    return [
        (step, _row(f"step={step}", result),
         result.summary("apsi").mean_execution_time)
        for step, result in zip(steps, results)
    ]


def run_noise_sweep(
    sigmas: Sequence[float] = (0.0, 0.015, 0.05, 0.1),
    workload: str = "w2",
    load: float = 1.0,
    config: Optional[ExperimentConfig] = None,
    runner: Optional[SweepRunner] = None,
) -> List[Tuple[float, int, int]]:
    """(sigma, PDPA reallocations, Equal_eff reallocations).

    Reproduces the stability argument: Equal_efficiency's reallocation
    count grows with measurement noise much faster than PDPA's.
    """
    config = config or ExperimentConfig()
    cells = [
        _tagged(workload_cell_spec(policy, workload, load,
                                   replace(config, noise_sigma=sigma)),
                f"sigma={sigma:g}")
        for sigma in sigmas
        for policy in ("PDPA", "Equal_eff")
    ]
    results = run_workload_cells(cells, runner)
    return [
        (sigma, results[2 * i].reallocations, results[2 * i + 1].reallocations)
        for i, sigma in enumerate(sigmas)
    ]


def render_noise_sweep(rows: Sequence[Tuple[float, int, int]], title: str) -> str:
    """Tabulate :func:`run_noise_sweep` rows.

    Sigma prints with ``:g``: the table's one-decimal float format
    would label 0, 0.015 and 0.05 as ``0.0``, ``0.0`` and ``0.1``.
    """
    return format_table(
        ["noise sigma", "PDPA reallocs", "Equal_eff reallocs"],
        [[f"{sigma:g}", pdpa, equal_eff] for sigma, pdpa, equal_eff in rows],
        title=title,
    )


def render_rows(rows: Sequence[AblationRow], title: str) -> str:
    """Tabulate ablation rows."""
    return format_table(
        ["configuration", "mean resp (s)", "workload exec (s)", "reallocs", "max mpl"],
        [
            [r.label, round(r.mean_response, 1), round(r.total_execution, 1),
             r.reallocations, r.max_mpl]
            for r in rows
        ],
        title=title,
    )
