"""Shared experiment runner.

Runs one workload trace under one scheduling policy on a fresh
simulated machine and returns a :class:`~repro.metrics.stats.WorkloadResult`
plus the raw trace for deeper analyses (execution views, MPL
timelines, burst statistics).  It is the one place a run's stack is
assembled, for closed runs and for :mod:`repro.serve.session` alike.

The four policy names match the paper's evaluation: ``IRIX``,
``Equip``, ``Equal_eff`` and ``PDPA``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Type,
    TypeVar,
    Union,
)

from repro.checkpoint.session import CheckpointPlan, SimulationSession
from repro.core.params import PDPAParams
from repro.core.pdpa import PDPA
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.machine.machine import Machine
from repro.machine.memory import LocalityConfig, LocalityModel
from repro.metrics.stats import WorkloadResult
from repro.metrics.trace import TraceRecorder
from repro.qs.job import Job
from repro.qs.queuing import NanosQS, RetryConfig
from repro.qs.workload import TABLE1_MIXES, WorkloadMix, generate_workload
from repro.rm.base import SchedulingPolicy
from repro.rm.equal_efficiency import EqualEfficiency
from repro.rm.equipartition import Equipartition
from repro.rm.irix import IrixConfig, IrixResourceManager
from repro.rm.manager import BaseResourceManager, SpaceSharedResourceManager
from repro.runtime.nthlib import RuntimeConfig
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams

if TYPE_CHECKING:  # keeps repro.analysis and repro.parallel off the run path
    from repro.analysis.race import RaceDetector
    from repro.parallel.runner import SweepCell, SweepRunner

#: The four policies of the paper's evaluation.
POLICY_NAMES = ("IRIX", "Equip", "Equal_eff", "PDPA")

Q = TypeVar("Q", bound=NanosQS)


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """Everything needed to reproduce one run.

    Attributes
    ----------
    n_cpus:
        Machine size (the paper uses 60 of the Origin 2000's 64).
    duration:
        Submission window of the workload generator.
    seed:
        Master seed: fixes submission times and all noise.
    mpl:
        Fixed multiprogramming level for IRIX / Equip / Equal_eff, and
        PDPA's default (base) level.
    pdpa:
        PDPA parameters (target 0.7, high 0.9 as in the evaluation).
    noise_sigma:
        Per-iteration execution jitter.
    irix:
        IRIX model calibration.
    locality:
        Memory-locality (page migration) model for space-shared runs;
        ``None`` disables it.
    faults:
        Optional fault-injection plan (see :mod:`repro.faults`).
        ``None`` — or an empty plan — leaves the run byte-identical
        to one without the fault subsystem.
    max_events:
        Event-count safety valve for the simulator.
    """

    n_cpus: int = 60
    duration: float = 300.0
    seed: int = 0
    mpl: int = 4
    pdpa: PDPAParams = field(default_factory=PDPAParams)
    noise_sigma: float = 0.015
    irix: IrixConfig = field(default_factory=IrixConfig)
    locality: Optional[LocalityConfig] = field(default_factory=LocalityConfig)
    faults: Optional[FaultPlan] = None
    max_events: int = 2_000_000

    def runtime_config(self) -> RuntimeConfig:
        """NthLib configuration derived from this experiment config."""
        return RuntimeConfig(noise_sigma=self.noise_sigma)

    def locality_model(self) -> Optional[LocalityModel]:
        """A fresh locality model, or ``None`` when disabled."""
        if self.locality is None:
            return None
        return LocalityModel(self.locality)

    def with_seed(self, seed: int) -> "ExperimentConfig":
        """Copy with a different master seed."""
        return replace(self, seed=seed)

    def with_mpl(self, mpl: int) -> "ExperimentConfig":
        """Copy with a different (fixed/base) multiprogramming level."""
        return replace(self, mpl=mpl, pdpa=replace(self.pdpa, base_mpl=mpl))

    def with_faults(self, faults: Optional[FaultPlan]) -> "ExperimentConfig":
        """Copy with a fault-injection plan (``None`` disables)."""
        return replace(self, faults=faults)


@dataclass
class RunOutput:
    """Result of one workload execution plus the raw artefacts."""

    result: WorkloadResult
    trace: TraceRecorder
    rm: BaseResourceManager
    jobs: List[Job]


def make_space_policy(name: str, config: ExperimentConfig) -> SchedulingPolicy:
    """Instantiate a space-sharing policy by paper name."""
    if name == "Equip":
        return Equipartition(mpl=config.mpl)
    if name == "Equal_eff":
        return EqualEfficiency(mpl=config.mpl)
    if name == "PDPA":
        params = replace(config.pdpa, base_mpl=min(config.pdpa.base_mpl, config.mpl))
        return PDPA(params)
    raise ValueError(f"unknown space-sharing policy {name!r}; IRIX is time-shared")


def build_resource_manager(
    policy: Union[str, SchedulingPolicy],
    config: ExperimentConfig,
    sim: Simulator,
    trace: TraceRecorder,
) -> BaseResourceManager:
    """The manager one run executes under, on a fresh machine.

    *policy* is a paper name or any :class:`SchedulingPolicy` instance;
    only ``"IRIX"`` time-shares, every other policy is space-shared.
    """
    streams = RandomStreams(config.seed)
    runtime_config = config.runtime_config()
    if isinstance(policy, str):
        if policy not in POLICY_NAMES:
            raise ValueError(f"unknown policy {policy!r}; expected one of {POLICY_NAMES}")
        if policy == "IRIX":
            irix = replace(config.irix, mpl=config.mpl)
            return IrixResourceManager(sim, config.n_cpus, streams, trace, irix, runtime_config)
        policy = make_space_policy(policy, config)
    return SpaceSharedResourceManager(
        sim, Machine(config.n_cpus, trace=trace), policy, streams, trace,
        runtime_config, locality=config.locality_model(),
    )


def build_queue(
    config: ExperimentConfig,
    sim: Simulator,
    rm: BaseResourceManager,
    trace: TraceRecorder,
    make_queue: Callable[[Optional[RetryConfig]], Q],
) -> Q:
    """Build the queuing system and install the config's fault plan.

    *make_queue* gets the plan's retry policy (``None`` without one).
    """
    plan = config.faults
    if plan is None or plan.empty:
        return make_queue(None)
    qs = make_queue(plan.retry_config())
    FaultInjector(sim, plan, rm, qs, RandomStreams(config.seed), trace).install()
    return qs


def build_session(
    policy: Union[str, SchedulingPolicy],
    jobs: Sequence[Job],
    config: Optional[ExperimentConfig] = None,
    load: float = 0.0,
    workload: Optional[str] = None,
    request_overrides: Optional[Mapping[str, int]] = None,
    qs_class: Type[NanosQS] = NanosQS,
) -> SimulationSession:
    """Assemble one workload execution as a saveable session.

    Builds the simulator, resource manager, queuing system (a
    *qs_class*), trace recorder and (when configured) fault injector,
    schedules every submission, and returns the whole graph as a
    :class:`~repro.checkpoint.session.SimulationSession` — ready to
    :meth:`~repro.checkpoint.session.SimulationSession.run`, save, or restore.
    """
    config = config or ExperimentConfig()
    sim = Simulator()
    trace = TraceRecorder(config.n_cpus)
    rm = build_resource_manager(policy, config, sim, trace)
    qs = build_queue(config, sim, rm, trace,
                     lambda retry: qs_class(sim, rm, list(jobs), trace, retry=retry))
    qs.schedule_submissions()
    return SimulationSession(
        policy if isinstance(policy, str) else policy.name,
        load, config, sim, rm, qs, trace,
        workload=workload,
        request_overrides=dict(request_overrides) if request_overrides else None,
    )


def run_jobs(
    policy: Union[str, SchedulingPolicy],
    jobs: Sequence[Job],
    config: Optional[ExperimentConfig] = None,
    load: float = 0.0,
    sanitizer: Optional[RaceDetector] = None,
    checkpoint: Optional[CheckpointPlan] = None,
) -> RunOutput:
    """Execute a job list under one policy and collect all metrics.

    *policy* is a name or an instance, as for :func:`build_session`.
    *sanitizer* attaches the event-race detector
    (:class:`~repro.analysis.race.RaceDetector`) to the simulator for
    this run; it observes event ordering and never perturbs results.
    *checkpoint* autosnapshots the run on the plan's cadence; neither
    changes the result by a byte.
    """
    session = build_session(policy, jobs, config, load=load)
    return run_session(session, sanitizer=sanitizer, checkpoint=checkpoint)


def run_session(
    session: SimulationSession,
    sanitizer: Optional[RaceDetector] = None,
    checkpoint: Optional[CheckpointPlan] = None,
) -> RunOutput:
    """Drive one session to completion and collect every metric."""
    if sanitizer is not None:
        sanitizer.begin_run(
            f"{session.policy_name} seed={session.config.seed}"
        )
    session.run(sanitizer=sanitizer, checkpoint=checkpoint)
    if sanitizer is not None:
        sanitizer.finish()
    return session.finish()


def workload_jobs(
    workload: str | WorkloadMix,
    load: float,
    config: ExperimentConfig,
    request_overrides: Optional[Mapping[str, int]] = None,
) -> List[Job]:
    """The Table 1 trace a run executes; every policy sees the same jobs."""
    mix = TABLE1_MIXES[workload] if isinstance(workload, str) else workload
    return generate_workload(
        mix, load, n_cpus=config.n_cpus, duration=config.duration,
        streams=RandomStreams(config.seed).spawn("workload"),
        request_overrides=request_overrides,
    )


def workload_session(
    policy_name: str,
    workload: str | WorkloadMix,
    load: float,
    config: Optional[ExperimentConfig] = None,
    request_overrides: Optional[Mapping[str, int]] = None,
    restore: Optional[Path] = None,
) -> SimulationSession:
    """The session :func:`run_workload` drives, not yet run.

    With *restore*, the workload is not regenerated: the snapshot at
    that path is loaded instead — after verifying it matches this
    code version, *config*, *policy_name*, *workload* and *load*.
    """
    config = config or ExperimentConfig()
    workload_name = workload if isinstance(workload, str) else workload.name
    if restore is not None:
        return SimulationSession.restore(
            restore,
            expected_config=config,
            expected_policy=policy_name,
            expected_workload=workload_name,
            expected_load=load,
        )
    return build_session(
        policy_name, workload_jobs(workload, load, config, request_overrides),
        config, load=load, workload=workload_name,
        request_overrides=request_overrides,
    )


def run_workload(
    policy_name: str,
    workload: str | WorkloadMix,
    load: float,
    config: Optional[ExperimentConfig] = None,
    request_overrides: Optional[Mapping[str, int]] = None,
    sanitizer: Optional[RaceDetector] = None,
    checkpoint: Optional[CheckpointPlan] = None,
    restore: Optional[Path] = None,
) -> RunOutput:
    """Generate a Table 1 workload and execute it under one policy.

    With *restore*, the snapshot at that path is driven from its cut
    point to completion instead (:func:`workload_session`).  The
    returned result is byte-identical to the uninterrupted run's.
    """
    session = workload_session(
        policy_name, workload, load, config, request_overrides, restore
    )
    return run_session(session, sanitizer=sanitizer, checkpoint=checkpoint)


def workload_cell_spec(
    policy_name: str,
    workload: str,
    load: float,
    config: Optional[ExperimentConfig] = None,
    request_overrides: Optional[Mapping[str, int]] = None,
) -> SweepCell:
    """Describe one :func:`run_workload` call as a sweep cell.

    The cell carries the full :class:`ExperimentConfig`, so it is a
    pure function of its parameters and can execute in any worker
    process (or be served from the result cache) without changing its
    outcome.
    """
    from repro.parallel.runner import SweepCell

    config = config or ExperimentConfig()
    params: Dict[str, object] = {
        "policy": policy_name,
        "workload": workload,
        "load": load,
        "config": config,
    }
    if request_overrides:
        params["request_overrides"] = dict(request_overrides)
    key = (
        f"{policy_name}/{workload}/load={load:g}"
        f"/seed={config.seed}/mpl={config.mpl}"
    )
    return SweepCell(key=key, fn="repro.parallel.cells:workload_cell", params=params)


def run_cells(
    cells: Sequence[SweepCell],
    runner: Optional[SweepRunner] = None,
) -> List[Any]:
    """Execute cells through a runner; every record, in submission order.

    With ``runner=None`` a serial, uncached runner is used — the
    records are byte-identical either way, because every path funnels
    through the same canonical-JSON encoding.

    Experiments need every record: if the runner quarantined poison
    cells, this raises
    :class:`~repro.parallel.errors.PoisonCellError` naming them rather
    than rendering tables with holes.  By then every *other* cell is
    already cached and journalled, so a re-run is cheap.
    """
    from repro.parallel.runner import SweepRunner

    runner = runner or SweepRunner()
    records = runner.run(cells)
    missing = [cells[i].key for i, r in enumerate(records) if r is None]
    if missing:
        from repro.parallel.errors import PoisonCellError

        failures = {f.key: f for f in runner.last_stats.failures}
        detail = "; ".join(
            f"{key} ({failures[key].kind}: {failures[key].detail})"
            if key in failures else key
            for key in missing
        )
        error = PoisonCellError(missing[0], attempts=0)
        error.args = (
            f"{len(missing)} cell(s) quarantined; experiment needs every "
            f"record: {detail}",
        )
        raise error from None
    return records


def run_workload_cells(
    cells: Sequence[SweepCell],
    runner: Optional[SweepRunner] = None,
) -> List[WorkloadResult]:
    """:func:`run_cells` over workload cells, decoded to results."""
    return [WorkloadResult.from_dict(record) for record in run_cells(cells, runner)]


def average_results(results: Sequence[WorkloadResult]) -> Dict[str, Dict[str, float]]:
    """Average per-application response/execution times across seeds.

    Returns ``{app_name: {"response": mean, "execution": mean}}``,
    weighting each run's per-app mean equally (the paper averages per
    workload execution).
    """
    if not results:
        raise ValueError("need at least one result")
    sums: Dict[str, Dict[str, float]] = {}
    counts: Dict[str, int] = {}
    for result in results:
        for app, summary in result.by_app().items():
            entry = sums.setdefault(app, {"response": 0.0, "execution": 0.0})
            entry["response"] += summary.mean_response_time
            entry["execution"] += summary.mean_execution_time
            counts[app] = counts.get(app, 0) + 1
    return {
        app: {
            "response": entry["response"] / counts[app],
            "execution": entry["execution"] / counts[app],
        }
        for app, entry in sums.items()
    }
