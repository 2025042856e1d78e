"""Resource-manager implementations.

:class:`BaseResourceManager` holds the lifecycle plumbing shared by
the space-sharing RM and the IRIX time-sharing model: the running-job
table, NthLib runtimes, completion callbacks towards the queuing
system, and the state-change notifications that drive the coordinated
admission protocol of §4.3.

:class:`SpaceSharedResourceManager` is the NANOS RM proper: it hosts a
:class:`~repro.rm.base.SchedulingPolicy`, translates its allocation
decisions into machine partitions, and forwards SelfAnalyzer reports
to it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.machine.machine import CpuHealth, Machine
from repro.machine.memory import LocalityModel
from repro.metrics.trace import FaultRecord, ReallocationRecord, TraceRecorder
from repro.qs.job import Job
from repro.rm.base import AllocationDecision, JobView, SchedulingPolicy, SystemView
from repro.runtime.nthlib import IterationPlan, NthLibRuntime, RuntimeConfig, RuntimeHost
from repro.runtime.selfanalyzer import PerformanceReport, SelfAnalyzer
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.slots import set_slot_state, slot_state


def _no_state_change() -> None:
    """Default ``on_state_change``: no queuing system attached yet."""


def _no_job_finished(job: Job) -> None:
    """Default ``on_job_finished``: no queuing system attached yet."""


def _no_job_killed(job: Job, reason: str) -> None:
    """Default ``on_job_killed``: no queuing system attached yet."""


class BaseResourceManager(RuntimeHost):
    """Common plumbing for both execution models."""

    __slots__ = (
        "sim", "n_cpus", "streams", "trace", "runtime_config", "runtimes",
        "jobs", "last_report_time", "reallocation_count",
        "locality", "report_filter", "on_state_change", "on_job_finished",
        "on_job_killed",
    )

    def __init__(
        self,
        sim: Simulator,
        n_cpus: int,
        streams: RandomStreams,
        trace: Optional[TraceRecorder] = None,
        runtime_config: Optional[RuntimeConfig] = None,
    ) -> None:
        self.sim = sim
        self.n_cpus = n_cpus
        self.streams = streams
        self.trace = trace
        self.runtime_config = runtime_config or RuntimeConfig()
        self.runtimes: Dict[int, NthLibRuntime] = {}
        self.jobs: Dict[int, Job] = {}
        #: time each job last delivered a report (or was launched);
        #: graceful degradation uses this to detect stale measurements
        self.last_report_time: Dict[int, float] = {}
        self.reallocation_count = 0
        #: optional memory-locality model (space-shared managers only)
        self.locality: Optional[LocalityModel] = None
        #: optional fault-injection tap on incoming SelfAnalyzer
        #: reports; returns the (possibly corrupted) report or ``None``
        #: to drop it.  Installed by :class:`repro.faults.injector.FaultInjector`.
        self.report_filter: Optional[
            Callable[[Job, PerformanceReport], Optional[PerformanceReport]]
        ] = None
        #: invoked after any event that may change admission decisions.
        #: Module-level defaults (not lambdas) keep a freshly built RM
        #: picklable: sessions checkpoint this object graph.
        self.on_state_change: Callable[[], None] = _no_state_change
        #: invoked with each job that completes
        self.on_job_finished: Callable[[Job], None] = _no_job_finished
        #: invoked with each job torn down by a fault (the queuing
        #: system requeues or fails it)
        self.on_job_killed: Callable[[Job, str], None] = _no_job_killed

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def running_count(self) -> int:
        """Number of jobs currently executing."""
        return len(self.jobs)

    @property
    def effective_cpus(self) -> int:
        """CPUs currently usable for scheduling (shrinks under faults)."""
        return self.n_cpus

    def can_admit(self, queued_jobs: int, head_request: Optional[int] = None) -> bool:
        """Whether the queuing system may start one more job.

        ``head_request`` is the processor request of the job at the
        head of the FCFS queue, when the queuing system knows it;
        policies that gate admission on exact fit (batch space
        sharing) use it.
        """
        raise NotImplementedError

    def system_view(self) -> SystemView:
        """Snapshot used by policies and diagnostics."""
        views = {
            job_id: JobView(job=job, allocation=self._allocation(job_id))
            for job_id, job in self.jobs.items()
        }
        return SystemView(self.effective_cpus, views)

    def _allocation(self, job_id: int) -> int:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start_job(self, job: Job) -> None:
        """Admit *job*: allocate it and start its runtime."""
        raise NotImplementedError

    def _launch_runtime(self, job: Job) -> None:
        runtime = NthLibRuntime(
            self.sim, job, self, self.streams, self.runtime_config
        )
        self.runtimes[job.job_id] = runtime
        self.jobs[job.job_id] = job
        self.last_report_time[job.job_id] = self.sim.now
        runtime.start()

    def job_completed(self, job: Job) -> None:
        """RuntimeHost hook: the job's last phase finished."""
        job.mark_finished(self.sim.now)
        self._release_job(job)
        self._forget_job(job.job_id)
        self.on_job_finished(job)
        self.on_state_change()

    def kill_job(self, job: Job, reason: str = "") -> None:
        """Tear down a running job after a fault (crash, hang, lost CPUs).

        Aborts the runtime, releases the job's processors, records the
        lost work, and hands the job to the queuing system, which
        requeues it with backoff or declares it FAILED.
        """
        job_id = job.job_id
        if job_id not in self.jobs:
            raise KeyError(f"cannot kill job {job_id}: not running "
                           f"(running: {sorted(self.jobs)})")
        started = job.start_time if job.start_time is not None else self.sim.now
        lost_work = (self.sim.now - started) * self._allocation(job_id)
        self.runtimes[job_id].abort()
        self._release_job(job)
        self._forget_job(job_id)
        self._record_fault("job_kill", job_id, detail=reason, value=lost_work)
        self.on_job_killed(job, reason)
        self.on_state_change()

    def _forget_job(self, job_id: int) -> None:
        del self.jobs[job_id]
        del self.runtimes[job_id]
        self.last_report_time.pop(job_id, None)

    def _release_job(self, job: Job) -> None:
        raise NotImplementedError

    def finalize(self) -> None:
        """Flush any pending accounting at the end of a run."""

    # ------------------------------------------------------------------
    # fault hooks (driven by repro.faults.injector.FaultInjector)
    # ------------------------------------------------------------------
    def _record_fault(self, kind: str, target: int, detail: str = "",
                      value: float = 0.0) -> None:
        if self.trace is not None:
            self.trace.record_fault(
                FaultRecord(self.sim.now, kind, target, detail, value)
            )

    def on_cpu_failed(self, cpu_id: int, permanent: bool = True) -> bool:
        """A CPU went offline.  Subclasses shrink capacity/partitions.

        Returns whether the fault took the CPU offline: an ignored
        fault (the CPU was already offline, or it is the last healthy
        one) returns False, and the fault injector schedules no repair
        for it.
        """
        self._record_fault("cpu_fail", cpu_id,
                           detail="permanent" if permanent else "transient")
        self.on_state_change()
        return True

    def on_cpu_repaired(self, cpu_id: int) -> None:
        """A previously failed CPU is usable again."""
        self._record_fault("cpu_repair", cpu_id)
        self.on_state_change()

    def on_node_degraded(self, node: int, factor: float) -> None:
        """A NUMA node slowed down to *factor* of full speed."""
        self._record_fault("node_degrade", node, value=factor)

    def on_node_restored(self, node: int) -> None:
        """A degraded NUMA node recovered full speed."""
        self._record_fault("node_restore", node, value=1.0)

    # ------------------------------------------------------------------
    # RuntimeHost defaults
    # ------------------------------------------------------------------
    def deliver_report(self, job: Job, report: PerformanceReport) -> None:
        if self.report_filter is not None:
            filtered = self.report_filter(job, report)
            if filtered is None:
                return  # report lost in transit
            report = filtered
        self._accept_report(job, report)

    def _accept_report(self, job: Job, report: PerformanceReport) -> None:
        self.last_report_time[job.job_id] = self.sim.now

    def drop_plans(self) -> None:
        """Drop every runtime's plan: something all of them read changed."""
        for runtime in self.runtimes.values():
            runtime.plan = None


class _LiveSystemView(SystemView):
    """A :class:`SystemView` that reads the RM's books directly.

    The space-shared manager used to rebuild a full snapshot — one
    fresh :class:`JobView` per running job plus an allocation query
    each — on *every* policy activation, which profiling showed was
    ~30% of a whole-workload run.  This subclass instead aliases the
    manager's incrementally-maintained view table, so taking the
    system view is free and the per-view fields are kept current at
    the few places allocations actually change.

    Safe because policies are pure decision makers: they read the
    view only inside the activation call and never retain it (see
    :mod:`repro.rm.base`).
    """

    __slots__ = ("_rm",)

    def __init__(self, rm: "SpaceSharedResourceManager") -> None:
        # deliberately skip SystemView.__init__: both attributes it
        # would set are live properties here
        self._rm = rm

    @property
    def total_cpus(self) -> int:  # type: ignore[override]
        return self._rm.effective_cpus

    @property
    def jobs(self) -> Dict[int, JobView]:  # type: ignore[override]
        return self._rm._views

    @property
    def allocated_cpus(self) -> int:
        # machine partitions correspond 1:1 to viewed jobs at every
        # policy activation, so the machine's O(1) counter equals the
        # sum the base class would compute
        return self._rm.machine.allocated_cpus

    @property
    def free_cpus(self) -> int:
        machine = self._rm.machine
        return machine.healthy_cpus - machine.allocated_cpus


class SpaceSharedResourceManager(BaseResourceManager):
    """The NANOS RM: policy-driven exclusive partitions."""

    __slots__ = ("machine", "policy", "_views", "_live_view", "clocked_admission")

    def __init__(
        self,
        sim: Simulator,
        machine: Machine,
        policy: SchedulingPolicy,
        streams: RandomStreams,
        trace: Optional[TraceRecorder] = None,
        runtime_config: Optional[RuntimeConfig] = None,
        locality: Optional[LocalityModel] = None,
    ) -> None:
        super().__init__(sim, machine.n_cpus, streams, trace, runtime_config)
        self.machine = machine
        self.policy = policy
        self.locality = locality
        #: live JobViews, one per running job, in launch order (the
        #: same iteration order the snapshot dictcomp produced)
        self._views: Dict[int, JobView] = {}
        self._live_view = _LiveSystemView(self)
        #: set by a queuing system whose admission answer depends on
        #: the clock (EASY backfilling): every report must then re-run
        #: admission, so no report may be absorbed
        self.clocked_admission = False
        policy.bind_plans(self.drop_plans)

    # ------------------------------------------------------------------
    # pickling: the view table is derived state
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, object]:
        state = slot_state(self)
        del state["_views"]
        del state["_live_view"]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        set_slot_state(self, state)
        self._views = {
            job_id: JobView(job=job, allocation=self.machine.allocation_of(job_id))
            for job_id, job in self.jobs.items()
        }
        self._live_view = _LiveSystemView(self)

    # ------------------------------------------------------------------
    # admission (coordination with the queuing system)
    # ------------------------------------------------------------------
    def can_admit(self, queued_jobs: int, head_request: Optional[int] = None) -> bool:
        note = getattr(self.policy, "note_head_request", None)
        if note is not None:
            note(head_request)
        return self.policy.wants_admission(self.system_view(), queued_jobs)

    def system_view(self) -> SystemView:
        """Live view over the incrementally-maintained job table."""
        return self._live_view

    def _allocation(self, job_id: int) -> int:
        return self.machine.allocation_of(job_id)

    def _launch_runtime(self, job: Job) -> None:
        super()._launch_runtime(job)
        self._views[job.job_id] = JobView(
            job=job, allocation=self.machine.allocation_of(job.job_id)
        )

    def _forget_job(self, job_id: int) -> None:
        super()._forget_job(job_id)
        self._views.pop(job_id, None)

    @property
    def effective_cpus(self) -> int:
        """Only healthy CPUs take part in allocation decisions."""
        return self.machine.healthy_cpus

    def free_cpus(self) -> int:
        return self.machine.free_cpus

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start_job(self, job: Job) -> None:
        job.mark_started(self.sim.now)
        system = self.system_view()
        decision = self.policy.on_job_arrival(job, system)
        self.policy.validate_decision(decision, system, arriving=job)
        initial = decision.pop(job.job_id)
        # Shrink existing partitions first so the newcomer's CPUs are free.
        self._apply(decision)
        self.machine.start_job(job.job_id, job.app_name, initial, self.sim.now)
        if self.locality is not None:
            self.locality.on_job_start(job.job_id, self.sim.now)
        self._record_realloc(job, 0, initial)
        self._launch_runtime(job)
        self.on_state_change()

    def _release_job(self, job: Job) -> None:
        self.machine.finish_job(job.job_id, self.sim.now)
        if self.locality is not None:
            self.locality.on_job_finish(job.job_id)
        system_after = self.system_view_without(job.job_id)
        decision = self.policy.on_job_completion(job, system_after)
        self.policy.validate_decision(decision, system_after, arriving=None)
        self._apply(decision)
        self.policy.on_job_removed(job)

    def system_view_without(self, job_id: int) -> SystemView:
        """View with one job excluded (used at completion time).

        A plain snapshot (reusing the live JobViews) because the
        excluded job is still in the live table until ``_forget_job``
        runs.
        """
        views = {
            jid: view for jid, view in self._views.items() if jid != job_id
        }
        return SystemView(self.effective_cpus, views)

    # ------------------------------------------------------------------
    # reports
    # ------------------------------------------------------------------
    def _accept_report(self, job: Job, report: PerformanceReport) -> None:
        super()._accept_report(job, report)
        self.runtimes[job.job_id].plan = None  # the policy's state for it moves
        system = self.system_view()
        decision = self.policy.on_report(job, report, system)
        self.policy.validate_decision(decision, system, arriving=None)
        self._apply(decision)
        self.on_state_change()

    # ------------------------------------------------------------------
    # iteration spans: the policy proves a report a no-op and applies
    # it in one pass.  A report filter draws the shared "faults" stream
    # on every report, and clocked admission must be re-asked at every
    # report, so under either every report takes the full path.
    # ------------------------------------------------------------------
    def absorb_report(self, job: Job, procs: int, speedup: float) -> bool:
        if self.report_filter is not None or self.clocked_admission:
            return False
        if not self.policy.absorb_report(job, procs, speedup, self._live_view):
            return False
        self.last_report_time[job.job_id] = self.sim.now
        plan = self.runtimes[job.job_id].plan
        if plan is not None and plan.band is not None:
            # the report may have moved the band (PDPA's ratchet)
            plan.band = self.policy.report_band(job, self._live_view)
        return True

    # ------------------------------------------------------------------
    # the plan: what a job's iterations read until it changes
    # ------------------------------------------------------------------
    def iteration_plan(
        self, job: Job, baseline: Optional[SelfAnalyzer]
    ) -> IterationPlan:
        """The job's allocation, rate and report band.

        Malleable applications run at their curve's speedup for the
        granted processors.  Rigid applications always run
        ``request`` processes; when the partition is smaller, the
        processes are folded onto it and the rate scales with the
        allocation fraction (paper §6's folding approach for MPI).
        Memory locality and degraded nodes then slow the partition
        down; the machine is asked only while some node is degraded.
        """
        job_id = job.job_id
        machine = self.machine
        allocation = machine.allocation_of(job_id)
        procs = allocation if baseline is None else baseline.baseline_allocation(allocation)
        spec = job.spec
        if spec.malleable:
            speedup = spec.speedup_model.speedup(float(procs))
        else:
            assert job.request is not None
            speedup = spec.folded_speedup(job.request, float(procs))
        locality = self.locality
        record = None if locality is None else locality.record(job_id)
        if record is None or record.value == 1.0:
            locality = None  # the factor is exactly 1.0 until it is replaced
        fault = machine.partition_speed_factor(job_id) if machine.node_speed else 1.0
        band = None if self.report_filter is not None or self.clocked_admission \
            else self.policy.report_band(job, self._live_view)
        return IterationPlan(
            allocation, procs, speedup, locality, record, fault, band,
            self.last_report_time,
        )

    # ------------------------------------------------------------------
    # fault handling (driven by repro.faults.injector.FaultInjector)
    # ------------------------------------------------------------------
    def on_cpu_failed(self, cpu_id: int, permanent: bool = True) -> bool:
        """A CPU failed: shrink capacity and repair the owner's partition.

        Recovery, in order of preference: grow the partition back from
        the free pool (the policy never notices), let it run one CPU
        short (the policy is told via ``note_forced_allocation``), or —
        when the job just lost its only CPU and nothing is free — kill
        the job so the queuing system can retry it.
        """
        if self.machine.cpu_health(cpu_id) is CpuHealth.OFFLINE:
            return False  # duplicate fault on an already-offline CPU
        owner = self.machine.fail_cpu(cpu_id, self.sim.now)
        self._record_fault(
            "cpu_fail", cpu_id, detail="permanent" if permanent else "transient"
        )
        if owner is not None:
            job = self.jobs[owner]
            self.runtimes[owner].plan = None  # its partition shrank
            current = self.machine.allocation_of(owner)
            if self.machine.free_cpus > 0:
                # Replace the lost CPU from the healthy free pool: the
                # partition returns to its pre-fault size, so neither
                # the policy nor the realloc trace sees a change.
                self.machine.resize_job(owner, current + 1, self.sim.now)
                if self.locality is not None:
                    # the replacement is new; the surviving CPUs are kept
                    self.locality.on_reallocation(owner, current, current + 1, self.sim.now)
                self._record_fault(
                    "fallback", owner,
                    detail=f"replaced failed cpu {cpu_id} from free pool",
                    value=float(current + 1),
                )
            elif current >= 1:
                # No spare CPU: the partition runs one short.
                if self.locality is not None:
                    self.locality.on_reallocation(owner, current, current, self.sim.now)
                self._record_realloc(job, current + 1, current)
                self.policy.note_forced_allocation(owner, current)
            else:
                # The job's only CPU died and nothing is free.
                self.kill_job(job, reason=f"lost last CPU {cpu_id}")
                return True  # kill_job already notified the state change
            view = self._views.get(owner)
            if view is not None:
                view.allocation = self.machine.allocation_of(owner)
        self.on_state_change()
        return True

    def on_cpu_repaired(self, cpu_id: int) -> None:
        if self.machine.repair_cpu(cpu_id, self.sim.now):
            self._record_fault("cpu_repair", cpu_id)
            self.on_state_change()

    def on_node_degraded(self, node: int, factor: float) -> None:
        self.machine.degrade_node(node, factor, self.sim.now)
        self.drop_plans()
        self._record_fault("node_degrade", node, value=factor)

    def on_node_restored(self, node: int) -> None:
        self.machine.restore_node(node, self.sim.now)
        self.drop_plans()
        self._record_fault("node_restore", node, value=1.0)

    def force_allocation(self, job_id: int, procs: int, reason: str = "") -> int:
        """Impose an allocation outside the policy (graceful degradation).

        Used by the fault injector's equal-share fallback for jobs
        whose measurements went stale.  Growth is clamped to the free
        pool; the policy is resynchronised through
        ``note_forced_allocation``.  Returns the allocation actually
        in force afterwards.
        """
        if job_id not in self.jobs:
            raise KeyError(f"force_allocation: job {job_id} is not running")
        current = self.machine.allocation_of(job_id)
        if procs > current:
            procs = min(procs, current + self.machine.free_cpus)
        procs = max(1, procs)
        if procs == current:
            return current
        job = self.jobs[job_id]
        self.machine.resize_job(job_id, procs, self.sim.now)
        self.runtimes[job_id].plan = None
        view = self._views.get(job_id)
        if view is not None:
            view.allocation = procs
        if self.locality is not None:
            # a shrink keeps every CPU left, a grow every CPU it held
            self.locality.on_reallocation(job_id, min(current, procs), procs, self.sim.now)
        self._record_realloc(job, current, procs)
        self.policy.note_forced_allocation(job_id, procs)
        self._record_fault("fallback", job_id, detail=reason, value=float(procs))
        self.on_state_change()
        return procs

    # ------------------------------------------------------------------
    # enforcement
    # ------------------------------------------------------------------
    def _apply(self, decision: AllocationDecision) -> None:
        """Resize partitions, shrinking before growing."""
        if not decision:
            return
        machine = self.machine
        shrinks: List[Tuple[int, int, int]] = []
        grows: List[Tuple[int, int, int]] = []
        for job_id, procs in decision.items():
            if job_id not in self.jobs:
                raise KeyError(f"decision names unknown job {job_id}")
            current = machine.allocation_of(job_id)
            if procs < current:
                shrinks.append((job_id, current, procs))
            elif procs > current:
                grows.append((job_id, current, procs))
        now = self.sim.now
        locality = self.locality
        for job_id, old, new in shrinks + grows:
            machine.resize_job(job_id, new, now)
            self.runtimes[job_id].plan = None
            view = self._views.get(job_id)
            if view is not None:
                view.allocation = new
            if locality is not None:
                # a shrink keeps every CPU left, a grow every CPU it held
                locality.on_reallocation(job_id, min(old, new), new, now)
            self._record_realloc(self.jobs[job_id], old, new)

    def _record_realloc(self, job: Job, old: int, new: int) -> None:
        if old == new:
            return
        self.reallocation_count += 1
        if self.trace is not None:
            self.trace.record_reallocation(
                ReallocationRecord(self.sim.now, job.job_id, job.app_name, old, new)
            )

    def finalize(self) -> None:
        """Flush machine bursts at the end of a run."""
        self.machine.finalize(self.sim.now)
