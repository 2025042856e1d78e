"""The fault injector: turns a :class:`FaultPlan` into simulator events.

The injector sits *outside* the system under test.  It only uses the
public fault surface the subsystem exposes:

* ``rm.on_cpu_failed`` / ``rm.on_cpu_repaired`` — capacity changes,
* ``rm.on_node_degraded`` / ``rm.on_node_restored`` — slowdowns,
* ``rm.kill_job`` — crash teardown (the queuing system then retries),
* ``runtime.hang()`` — livelock (caught by the watchdog sweep),
* ``rm.report_filter`` — SelfAnalyzer report loss/corruption.

Besides injecting faults it runs the *recovery sweep*, the part of
graceful degradation that needs a clock: a watchdog that kills jobs
making no observable progress, and the equal-share fallback the paper's
coordination story implies for report-driven policies — when PDPA's
measurements stop arriving, falling back to an equipartition keeps the
machine busy instead of freezing allocations at stale values.

Everything is deterministic given (master seed, plan): event times are
plan data and all randomness comes from the named ``"faults"`` stream.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.faults.plan import (
    CpuFault,
    FaultPlan,
    JobCrash,
    JobHang,
    NodeSlowdown,
)
from repro.metrics.trace import FaultRecord, TraceRecorder
from repro.qs.job import Job
from repro.qs.queuing import NanosQS
from repro.rm.manager import BaseResourceManager
from repro.runtime.selfanalyzer import PerformanceReport
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams


class FaultInjector:
    """Schedules one plan's faults and runs the recovery sweep."""

    __slots__ = ("sim", "plan", "rm", "qs", "trace", "_rng", "_installed", "_progress")

    def __init__(
        self,
        sim: Simulator,
        plan: FaultPlan,
        rm: BaseResourceManager,
        qs: NanosQS,
        streams: RandomStreams,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.sim = sim
        self.plan = plan
        self.rm = rm
        self.qs = qs
        self.trace = trace if trace is not None else rm.trace
        self._rng = streams.stream("faults")
        self._installed = False
        #: watchdog memory: job_id -> (progress signature, since)
        self._progress: Dict[int, Tuple[tuple, float]] = {}

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Schedule the plan's events and start the recovery sweep.

        A run without an injector and a run with an empty plan are
        byte-identical: installation is a no-op when the plan is empty
        (no events scheduled, no report filter, no RNG stream touched).
        """
        if self._installed:
            raise RuntimeError("fault injector installed twice")
        self._installed = True
        if self.plan.empty:
            return
        for index, event in enumerate(self.plan.events):
            if isinstance(event, CpuFault):
                self.sim.schedule_at(
                    event.time, self._cpu_fault, event,
                    label=f"fault:cpu:{event.cpu}",
                )
            elif isinstance(event, NodeSlowdown):
                self.sim.schedule_at(
                    event.time, self._node_slowdown, event,
                    label=f"fault:node:{event.node}",
                )
            elif isinstance(event, JobCrash):
                self.sim.schedule_at(
                    event.time, self._job_crash, event,
                    label=f"fault:crash:{index}",
                )
            elif isinstance(event, JobHang):
                self.sim.schedule_at(
                    event.time, self._job_hang, event,
                    label=f"fault:hang:{index}",
                )
            else:  # pragma: no cover - plan type is closed
                raise TypeError(f"unknown fault event {event!r}")
        if self.plan.report_loss is not None and self.plan.report_loss.active:
            self.rm.report_filter = self._filter_report
        self._schedule_sweep()

    # ------------------------------------------------------------------
    # hardware faults
    # ------------------------------------------------------------------
    def _cpu_fault(self, event: CpuFault) -> None:
        if self.rm.effective_cpus <= 1:
            # A machine with zero healthy CPUs cannot make progress;
            # refuse the fault rather than deadlock the workload.
            self._record("cpu_fail", event.cpu, detail="skipped: last healthy CPU")
            return
        # A fault the RM ignored (the CPU is already offline) gets no
        # repair: it would end the earlier outage early.
        taken = self.rm.on_cpu_failed(event.cpu, permanent=event.repair_after is None)
        if taken and event.repair_after is not None:
            # The CPU is back before anything else at its instant
            # runs, such as a requeued job's restart.
            self.sim.schedule_after(
                event.repair_after, self.rm.on_cpu_repaired, event.cpu,
                priority=Simulator.PRIORITY_EARLY,
                label=f"fault:repair:{event.cpu}",
            )

    def _node_slowdown(self, event: NodeSlowdown) -> None:
        self.rm.on_node_degraded(event.node, event.factor)
        if event.restore_after is not None:
            self.sim.schedule_after(
                event.restore_after, self.rm.on_node_restored, event.node,
                label=f"fault:restore:{event.node}",
            )

    # ------------------------------------------------------------------
    # application faults
    # ------------------------------------------------------------------
    def _pick_victim(self, wanted: Optional[int]) -> Optional[Job]:
        """The requested job if it is running, else a seeded pick."""
        if wanted is not None:
            return self.rm.jobs.get(wanted)
        running = sorted(self.rm.jobs)
        if not running:
            return None
        return self.rm.jobs[self._rng.choice(running)]

    def _job_crash(self, event: JobCrash) -> None:
        victim = self._pick_victim(event.job_id)
        if victim is None:
            self._record(
                "job_crash", -1 if event.job_id is None else event.job_id,
                detail="skipped: no running victim",
            )
            return
        self._record("job_crash", victim.job_id)
        self.rm.kill_job(victim, reason="crash")

    def _job_hang(self, event: JobHang) -> None:
        victim = self._pick_victim(event.job_id)
        if victim is None:
            self._record(
                "job_hang", -1 if event.job_id is None else event.job_id,
                detail="skipped: no running victim",
            )
            return
        self._record("job_hang", victim.job_id)
        self.rm.runtimes[victim.job_id].hang()

    # ------------------------------------------------------------------
    # report loss
    # ------------------------------------------------------------------
    def _filter_report(
        self, job: Job, report: PerformanceReport
    ) -> Optional[PerformanceReport]:
        loss = self.plan.report_loss
        assert loss is not None
        now = self.sim.now
        if loss.job_id is not None and job.job_id != loss.job_id:
            return report
        if not loss.start <= now <= loss.end:
            return report
        u = self._rng.random()
        if u < loss.drop_prob:
            self._record("report_drop", job.job_id)
            return None
        if u < loss.drop_prob + loss.corrupt_prob:
            factor = self._rng.uniform(loss.corrupt_low, loss.corrupt_high)
            self._record("report_corrupt", job.job_id, value=factor)
            return report._replace(speedup=report.speedup * factor)
        return report

    # ------------------------------------------------------------------
    # recovery sweep: watchdog + staleness fallback
    # ------------------------------------------------------------------
    def _sweep(self) -> None:
        now = self.sim.now
        self._watchdog(now)
        self._staleness_fallback(now)
        # a stream is all-done between arrivals: keep sweeping while
        # a job is live or the source may still deliver one
        if not self.qs.drained:
            self._schedule_sweep()

    def _schedule_sweep(self) -> None:
        # The sweep sees every fault, crash and hang of its instant.
        self.sim.schedule_after(
            self.plan.sweep_interval, self._sweep,
            priority=Simulator.PRIORITY_LATE, label="fault:sweep",
        )

    def _watchdog(self, now: float) -> None:
        """Kill jobs whose runtime made no progress for hang_timeout."""
        running = set(self.rm.runtimes)
        for job_id in list(self._progress):
            if job_id not in running:
                del self._progress[job_id]
        for job_id, runtime in list(self.rm.runtimes.items()):
            signature = (runtime.phase, runtime.app.completed_iterations)
            known = self._progress.get(job_id)
            if known is None or known[0] != signature:
                self._progress[job_id] = (signature, now)
                continue
            if now - known[1] >= self.plan.hang_timeout:
                del self._progress[job_id]
                self.rm.kill_job(
                    self.rm.jobs[job_id],
                    reason=f"watchdog: no progress for {now - known[1]:.0f}s",
                )

    def _staleness_fallback(self, now: float) -> None:
        """Equal-share fallback for report-driven policies (PDPA §4).

        A malleable job whose measurements are older than
        ``stale_after`` can no longer be trusted to drive the
        allocation automaton; park it at the equipartition share so
        the rest of the machine keeps being scheduled on fresh data.
        """
        policy = getattr(self.rm, "policy", None)
        if policy is None or not policy.uses_reports:
            return
        force = getattr(self.rm, "force_allocation", None)
        if force is None:  # pragma: no cover - space-shared RMs have it
            return
        for job_id, job in list(self.rm.jobs.items()):
            if not job.spec.malleable:
                continue
            runtime = self.rm.runtimes.get(job_id)
            if runtime is None or runtime.hung:
                continue  # the watchdog owns hung jobs
            last = self.rm.last_report_time.get(job_id, now)
            if now - last <= self.plan.stale_after:
                continue
            assert job.request is not None
            share = max(
                1,
                min(job.request,
                    self.rm.effective_cpus // max(1, len(self.rm.jobs))),
            )
            force(job_id, share, reason="stale measurements")
            # One fallback per staleness episode: a job that still
            # reports nothing is re-forced only stale_after later.
            self.rm.last_report_time[job_id] = now

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _record(
        self, kind: str, target: int, detail: str = "", value: float = 0.0
    ) -> None:
        if self.trace is not None:
            self.trace.record_fault(
                FaultRecord(self.sim.now, kind, target, detail, value)
            )
